"""SHA-256 of the outputs of the graph-refine and cantor-scan benchmark passes.

    python3 scripts/output_digest.py [--root CHECKOUT] [--seeds 1 2 3]

Runs one untimed pass of each workload of ``perfbench/workloads.py`` at each
seed, on the ``src/`` and ``perfbench/`` of CHECKOUT (default: this
checkout), and hashes every output entry written exactly: each beta result
(value, method, degenerate flag, basis and point), and per cloud the PBP
margins, the graph overlap and the regularity report. Floats are written as
``float.hex`` and arrays as their dtype, shape and bytes, so two checkouts
print the same digest only if every entry is equal bit for bit.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def _array(a) -> str:
    return f"{a.dtype.str}{a.shape}{a.tobytes().hex()}"


def _betas(tag, betas):
    for key, res in sorted(betas.items()):
        yield f"{tag} {key} {res.value.hex()} {res.method} {res.degenerate} {_array(res.basis)} {_array(res.point)}"


def entries(workload: str, seed: int):
    import inputs
    import tracing
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[workload](inputs.MAKERS[workload](seed), seed, Path(workdir))
        out = wl.run_pass(tracing.NullTracer())[2]
    if workload == "cantor-scan":
        yield from _betas(f"{workload} {seed}", out["betas"])
        return
    for name, res in out.items():
        tag = f"{workload} {seed} {name}"
        yield from _betas(tag, res["betas"])
        yield f"{tag} margins {' '.join(float(m).hex() for m in res['margins'])}"
        yield f"{tag} overlap {float(res['overlap']).hex()}"
        rep = res["regularity"]
        yield f"{tag} regularity {rep.C0_estimate.hex()} {_array(rep.worst_ball.center)} {rep.worst_ball.radius.hex()} {rep.samples}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    digest, count = hashlib.sha256(), 0
    for workload in ("graph-refine", "cantor-scan"):
        for seed in args.seeds:
            for line in entries(workload, seed):
                digest.update(line.encode() + b"\n")
                count += 1
    print(f"{count} entries, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
