"""SHA-256 of every output of the benchmark passes, one digest per workload.

    python3 scripts/output_digest.py [--root CHECKOUT] [--seeds 1 2 3]

Runs one untimed pass of each workload of ``perfbench/workloads.py`` at each
seed, on the ``src/`` and ``perfbench/`` of CHECKOUT (default: this
checkout), and hashes every output entry written exactly:

- graph-refine, per cloud: the lattice, each beta result (value, method,
  degenerate flag, basis and point), the PBP margins, the graph overlap and
  the regularity report;
- cantor-scan: the lattice (each cube's key, members, centre, weight and
  child keys), each beta result, the David report, every tree (top, cubes,
  leaves), the wgl sum, the packing check and the bytes of the files
  ``export_jsonl`` and ``export_betas`` write;
- stopping-mix, per family: the status, heavy cubes, ``f_masses``, trace,
  checks and the ``exhaustive_verify`` verdict.

Floats are written as ``float.hex``, integers (numpy's too) as Python ints
and arrays as their dtype, shape and bytes, so two checkouts print the same
digest only if every entry is equal bit for bit.
"""

import argparse
import dataclasses
import hashlib
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


def _lattice(tag, lat):
    for cube in lat.all_cubes():
        fields = (cube.key, cube.members, cube.center, cube.weight, lat.child_keys(cube.key))
        yield f"{tag} cube {' '.join(map(_canon, fields))}"


def _betas(tag, betas):
    for key, res in sorted(betas.items()):
        yield f"{tag} beta {' '.join(map(_canon, (key, res.value, res.method, res.degenerate, res.basis, res.point)))}"


def entries(workload: str, seed: int):
    import inputs
    import tracing
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[workload](inputs.MAKERS[workload](seed), seed, Path(workdir))
        out = wl.run_pass(tracing.NullTracer())[2]
        tag = f"{workload} {seed}"
        if workload == "cantor-scan":
            yield from _lattice(tag, out["lattice"])
            yield from _betas(tag, out["betas"])
            yield f"{tag} david {_canon(out['david'])}"
            for tree in out["forest"].trees:
                yield f"{tag} tree {_canon(tree)}"
            yield f"{tag} wgl {_canon(out['wgl'])}"
            yield f"{tag} packing {_canon(out['packing'])}"
            for name in ("lattice.jsonl", "betas.csv"):
                yield f"{tag} {name} {hashlib.sha256((Path(workdir) / name).read_bytes()).hexdigest()}"
        elif workload == "stopping-mix":
            for k, (res, verdict) in enumerate(out):
                fields = (res.status, res.heavy, res.f_masses, res.trace, res.checks, verdict)
                yield f"{tag} family {k} {' '.join(map(_canon, fields))}"
        else:
            for name, res in out.items():
                yield from _lattice(f"{tag} {name}", res["lattice"])
                yield from _betas(f"{tag} {name}", res["betas"])
                yield f"{tag} {name} margins {_canon(res['margins'])}"
                yield f"{tag} {name} overlap {_canon(res['overlap'])}"
                yield f"{tag} {name} regularity {_canon(res['regularity'])}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import rectilab

    if Path(rectilab.__file__).resolve().parent != (args.root / "src" / "rectilab").resolve():
        sys.exit(f"rectilab loads from {rectilab.__file__}, not from {args.root / 'src'}")
    for workload in WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in args.seeds:
            for line in entries(workload, seed):
                digest.update(line.encode() + b"\n")
                count += 1
        print(f"{workload}: {count} entries, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
