"""Code lines of every module of ``src/rectilab``, and with ``--base`` the counts at a base revision.

    python3 scripts/line_counts.py [--base REV]

A code line holds a token other than a comment, leaving out docstrings.
Prints one line per module (code lines, path), then the total; with
``--base``, both counts at REV (all lines and code lines) and the net change.
Run it from the root of the checkout; ``wc -l src/rectilab/*.py`` gives the
all-line count per module.
"""

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in BLANK:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            code -= set(range(first.lineno, first.end_lineno + 1))
    return len(code)


def git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="a git revision to count against")
    args = parser.parse_args()
    paths = sorted(pathlib.Path("src/rectilab").glob("*.py"))
    texts = [path.read_text() for path in paths]
    for path, text in zip(paths, texts):
        print(f"{code_lines(text):8d} {path}")
    lines, code = sum(t.count("\n") for t in texts), sum(map(code_lines, texts))
    print(f"{code:8d} code lines")
    if args.base:
        base = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
        names = [name for name in git("ls-tree", "--name-only", base, "src/rectilab/").split() if name.endswith(".py")]
        old = [git("show", f"{base}:{name}") for name in names]
        old_lines, old_code = sum(t.count("\n") for t in old), sum(map(code_lines, old))
        print(f"base {base[:12]}: {old_lines} lines, {old_code} code lines")
        print(f"net: {lines - old_lines:+d} lines, {code - old_code:+d} code lines")


if __name__ == "__main__":
    main()
