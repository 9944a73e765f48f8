"""SHA-256 of every output of the benchmark passes, per workload and per kind of output.

    python3 scripts/output_digest.py [--root CHECKOUT] [--seeds 1 2 3] [--dump FILE]
    python3 scripts/output_digest.py --corpus stopping [--root CHECKOUT] [--dump FILE]
    python3 scripts/output_digest.py --compare A B

Runs one untimed pass of each workload of ``perfbench/workloads.py`` at each
seed, on the ``src/`` and ``perfbench/`` of CHECKOUT (default: this
checkout), and hashes every output entry written exactly:

- graph-refine, per cloud: the lattice, each beta result (value, method,
  degenerate flag, basis and point), the PBP margins, the graph overlap and
  the regularity report;
- cantor-scan: the lattice (each cube's key, members, centre, weight and
  child keys), each beta result, the David report, every tree (top, cubes,
  leaves), the wgl sum, the packing check and the bytes of the files
  ``save_cloud``, ``export_jsonl`` and ``export_betas`` write (the cloud's
  CSV and JSON sidecar, the lattice's JSONL and the betas' CSV);
- stopping-mix, per family: the status, heavy cubes, ``f_masses``, trace,
  checks and the ``exhaustive_verify`` verdict.

Floats are written as ``float.hex``, integers (numpy's too) as Python ints
and arrays as their dtype, shape and bytes, so two checkouts print the same
digest only if every entry is equal bit for bit.

Each workload prints its total line, ``<workload>: <count> entries, sha256
<hex>``, over all its entries in order, then one indented line of the same
form per kind of entry, in order of first appearance: ``cube``, ``beta``,
``david``, ``tree``, ``wgl``, ``packing`` and each written file on
cantor-scan, ``family`` on stopping-mix, and on graph-refine the cloud's
name before each of ``cube``, ``beta``, ``margins``, ``overlap`` and
``regularity``. Diffing two runs then names the kind of output that moved.

``--corpus stopping`` hashes the named stopping corpus in place of the
workloads: ``random_family`` at (d, depth) = (1, 10), (2, 7) and (3, 5),
profiles ``peaked`` and ``mixed``, seeds 0-199 (``default_rng(seed)``) and
``StoppingConfig(N=40, M=2)``, 1,200 runs of ``heavy_cubes``. Each run's
entry holds the status, heavy cubes, ``f_masses``, trace, checks, the
``exhaustive_verify`` verdict and the ``weight_profile`` dict; its kind is
``d=<d> <profile>``. After the digest lines it prints the count of each
status.

``--dump FILE`` also writes every entry to FILE, one per line: workload,
seed, kind and text, tab-separated. ``--compare A B`` reads two such files
and prints, per workload and kind, how many entries differ, the largest
absolute and relative change of the floats of the differing entries that
hold as many floats on both sides, how many differing entries have no
floats to pair (on one side only, an array of another shape, or a file's
hash), and the first differing entry's seed and key: the cube key for ``cube`` and ``beta`` entries, else ``#i`` for
the kind's i-th entry at that seed. It exits 1 when any entry differs.

A digest is specific to one machine and one numpy build. numpy picks its
SIMD kernels at run time, and they can round differently and break
``argsort`` ties in another order: with the AVX-512 kernels disabled
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``) the same
checkout printed other graph-refine ``curve beta``, ``surface beta`` and
``surface regularity`` digests at seed 1, and the same cantor-scan and
stopping-mix digests. So two digests or dumps compare only when one machine
and one numpy build made both, as CI's base-against-head step does within
each leg.
"""

import argparse
import collections
import dataclasses
import hashlib
import itertools
import os
import re
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("graph-refine", "cantor-scan", "stopping-mix")


def _canon(x) -> str:
    """One exact text for a value: numpy scalars write as the Python scalars they hold."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}{x.tobytes().hex()}"
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return x.hex()
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, dict):
        return "{" + ", ".join(f"{_canon(k)}: {_canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(map(_canon, x))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(_canon, x)) + "]"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + _canon([getattr(x, f.name) for f in dataclasses.fields(x)])
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _lattice(lat):
    for cube in lat.all_cubes():
        fields = (cube.key, cube.members, cube.center, cube.weight, lat.child_keys(cube.key))
        yield "cube", " ".join(map(_canon, fields))


def _betas(betas):
    for key, res in sorted(betas.items()):
        yield "beta", " ".join(map(_canon, (key, res.value, res.method, res.degenerate, res.basis, res.point)))


def entries(workload: str, seed: int):
    """(kind, text) of every output entry of one pass; the entry's line is
    ``<workload> <seed> <kind> <text>``."""
    import inputs
    import tracing
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[workload](inputs.MAKERS[workload](seed), seed, Path(workdir))
        out = wl.run_pass(tracing.NullTracer())[2]
        if workload == "cantor-scan":
            yield from _lattice(out["lattice"])
            yield from _betas(out["betas"])
            yield "david", _canon(out["david"])
            for tree in out["forest"].trees:
                yield "tree", _canon(tree)
            yield "wgl", _canon(out["wgl"])
            yield "packing", _canon(out["packing"])
            for name in ("cloud.csv", "cloud.csv.json", "lattice.jsonl", "betas.csv"):
                yield name, hashlib.sha256((Path(workdir) / name).read_bytes()).hexdigest()
        elif workload == "stopping-mix":
            for k, (res, verdict) in enumerate(out):
                fields = (res.status, res.heavy, res.f_masses, res.trace, res.checks, verdict)
                yield "family", f"{k} {' '.join(map(_canon, fields))}"
        else:
            for name, res in out.items():
                scalars = [(kind, _canon(res[kind])) for kind in ("margins", "overlap", "regularity")]
                for kind, text in itertools.chain(_lattice(res["lattice"]), _betas(res["betas"]), scalars):
                    yield f"{name} {kind}", text


def _floats(text: str):
    """Every float of an entry's text, in order, array elements included: each ``float.hex`` and
    each float array's dtype, shape and bytes as ``_canon`` writes them."""
    import numpy as np

    hexed = r"(?<![\w'])(-?0x[0-9a-f.]+p[+-]\d+|-?inf|nan)(?![\w'])"
    found = re.findall(hexed + r"|([<>]f\d+)\([\d, ]*\)([0-9a-f]*)", text)
    parts = [np.frombuffer(bytes.fromhex(data), dtype) if dtype else [float.fromhex(x)] for x, dtype, data in found]
    return np.concatenate(parts).astype(float) if parts else np.empty(0)


def _read_dump(path: Path) -> dict:
    """{(workload, kind): {(seed, key): text}} of a ``--dump`` file, in file order."""
    groups, seen = {}, {}
    with open(path) as fh:
        for line in fh:
            workload, seed, kind, text = line.rstrip("\n").split("\t")
            i = seen[workload, seed, kind] = seen.get((workload, seed, kind), -1) + 1
            key = re.match(r"\[-?\d+, \[[-\d, ]*\]\]", text)  # a cube key leads cube and beta entries
            groups.setdefault((workload, kind), {})[seed, key.group() if key else f"#{i}"] = text
    return groups


def compare(path_a: Path, path_b: Path) -> bool:
    """Print, per workload and kind, how two dumps differ; True when every entry is equal."""
    import numpy as np

    a_groups, b_groups = _read_dump(path_a), _read_dump(path_b)
    equal = True
    for group in dict.fromkeys([*a_groups, *b_groups]):
        a, b = a_groups.get(group, {}), b_groups.get(group, {})
        keys = list(dict.fromkeys([*a, *b]))
        differ = [key for key in keys if a.get(key) != b.get(key)]
        line = f"{group[0]} {group[1]}: {len(differ)} of {len(keys)} entries differ"
        if differ:
            equal, largest, paired = False, np.zeros(2), 0
            for key in differ:
                fa, fb = (_floats(side.get(key, "")) for side in (a, b))
                if len(fa) == len(fb) and len(fa):
                    paired += 1
                    same = (fa == fb) | (np.isnan(fa) & np.isnan(fb))
                    with np.errstate(invalid="ignore", over="ignore"):
                        change = np.where(same, 0.0, np.abs(fa - fb))
                        rel = np.where(same, 0.0, change / np.maximum(np.abs(fa), np.abs(fb)))
                    largest = np.fmax(largest, [change.max(), rel.max()])
            if paired:
                line += f"; largest float change {largest[0]:.3g} absolute, {largest[1]:.3g} relative"
            if paired < len(differ):
                line += f"; {len(differ) - paired} without floats to pair"
            line += f"; first at seed {differ[0][0]} key {differ[0][1]}"
        print(line)
    return equal


def stopping_corpus(statuses: collections.Counter):
    """(seed, kind, text) of every run of the named stopping corpus, counting each status in ``statuses``."""
    import numpy as np
    from rectilab import stopping as st

    config = st.StoppingConfig(N=40, M=2)
    for d, depth in ((1, 10), (2, 7), (3, 5)):
        systems = st.AdjacentSystems(d)
        for profile in ("peaked", "mixed"):
            for seed in range(200):
                fam = st.random_family(d, np.random.default_rng(seed), profile=profile, config=config, grid_depth=depth)
                res = st.heavy_cubes(fam, config, depth)
                statuses[res.status] += 1
                verdict, weights = st.exhaustive_verify(fam, config, res), st.weight_profile(fam, systems)
                fields = (res.status, res.heavy, res.f_masses, res.trace, res.checks, verdict, weights)
                yield seed, f"d={d} {profile}", " ".join(map(_canon, fields))


def report(name: str, items, dump) -> None:
    """Print the total and per-kind digests of (seed, kind, text) items, writing each item to ``dump``."""
    total, kinds = [hashlib.sha256(), 0], {}
    for seed, kind, text in items:
        dump.write(f"{name}\t{seed}\t{kind}\t{text}\n")
        line = f"{name} {seed} {kind} {text}\n".encode()
        for tally in (total, kinds.setdefault(kind, [hashlib.sha256(), 0])):
            tally[0].update(line)
            tally[1] += 1
    print(f"{name}: {total[1]} entries, sha256 {total[0].hexdigest()}")
    for kind, (digest, count) in kinds.items():
        print(f"  {kind}: {count} entries, sha256 {digest.hexdigest()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--corpus", choices=("stopping",), help="hash the named corpus in place of the workloads")
    parser.add_argument("--dump", type=Path, help="also write every entry to this file, one per line")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two dump files")
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import rectilab

    if Path(rectilab.__file__).resolve().parent != (args.root / "src" / "rectilab").resolve():
        sys.exit(f"rectilab loads from {rectilab.__file__}, not from {args.root / 'src'}")
    with open(args.dump or os.devnull, "w") as dump:
        if args.corpus:
            statuses = collections.Counter()
            report("stopping-corpus", stopping_corpus(statuses), dump)
            print("  statuses: " + ", ".join(f"{count} {status}" for status, count in sorted(statuses.items())))
            return
        for workload in WORKLOADS:
            report(workload, ((seed, *entry) for seed in args.seeds for entry in entries(workload, seed)), dump)


if __name__ == "__main__":
    main()
