"""Alternating runs of the benchmark at a base and a head revision, summarised in one JSON file.

    python3 scripts/bench_pairs.py --base REV [--head REV] --workload W [W ...] --pairs K
        --out BENCH_<n>.json [--seeds S1 ... SK]

Exports the committed files of both revisions (the head defaults to HEAD) with
``git archive`` into a temporary directory, so each side runs its own
``perfbench/run.py`` on its own ``src/``, unchanged. Pair i runs at the i-th
seed of ``--seeds`` (default 1..K): the base first in even pairs, the head
first in odd ones, one run at a time, each for ``run_seconds`` of the head's
``BENCHMARK.json``, with ``--trace 0``. Each side's ``run.py`` checks the
workload names. A run's result is the JSON object on the last line of its
output.

The file holds both revisions and their SHAs, the seeds, the run length, the
environment (Python, numpy and scipy versions, the BLAS thread variables and
the CPU count), every run's result and, per workload and metric, each side's
median and quartiles and the number of pairs in which the head's value is
lower. No file is written, and the script exits 1, when any run reports
``correct=false`` or the head fails a larger share of its operations than the
base.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "head")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def export(sha: str, into: Path) -> Path:
    """The committed files of ``sha``, extracted under ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", sha], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line result of one benchmark run in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=30 * seconds + 600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summary(runs: list[dict]) -> dict:
    """Per metric: each side's spread and the pairs in which the head's value is lower."""
    out = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side] for side in SIDES}
        lower = sum(h < b for b, h in zip(sides["base"], sides["head"]))
        out[name] = {"unit": metric["unit"], **{side: spread(v) for side, v in sides.items()}, "head_lower": lower}
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        # run.py sets each of these to 1 before numpy loads; these are the values it was started with
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the revision under test")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", help="one seed per pair (default 1..K)")
    args = parser.parse_args()
    seeds = args.seeds or list(range(1, args.pairs + 1))
    if args.pairs < 2 or len(seeds) != args.pairs:
        parser.error("need --pairs >= 2 and one seed per pair")
    revs = {"base": args.base, "head": args.head}
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revs.items()}

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        seconds = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())["run_seconds"]
        report = {
            **{side: {"rev": rev, "sha": shas[side]} for side, rev in revs.items()},
            "seeds": seeds, "seconds": seconds, "environment": environment(),
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            for pair, seed in enumerate(seeds):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run(checkouts[side], workload, seed, seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, "result": result})
                    print(f"{workload} pair {pair} seed {seed} {side}: {json.dumps(result['metrics'])}", flush=True)
            bad = [r for r in runs if r["result"]["correct"] is not True]
            share = {side: max(r["result"]["failed"] / r["result"]["attempted"] for r in runs if r["side"] == side)
                     for side in SIDES}
            if bad or share["head"] > share["base"]:
                print(f"{workload}: {len(bad)} runs with correct=false, failed share base {share['base']:.4g} "
                      f"head {share['head']:.4g}; no file written", file=sys.stderr)
                return 1
            metrics = summary(runs)
            report["workloads"][workload] = {"failed_share": share, "metrics": metrics, "runs": runs}
            for name, m in metrics.items():
                base, head = (f"{m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]" for side in revs)
                lower = f"head lower in {m['head_lower']} of {args.pairs} pairs"
                print(f"{workload} {name}: base {base}, head {head}, {lower}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
