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
median and quartiles, the number of pairs in which the head's value is lower,
and a verdict, which is also printed:

- ``change``: the relative change of the median, head against base;
- ``bound``: the metric's bound in the head's ``BENCHMARK.json`` (null when it
  has none);
- ``base_spread``: the base's quartile distance over its median;
- ``claim_rule``: the head is better (lower, or higher where the metric's
  ``better`` says so) in at least 9 of 10 pairs, and the medians differ, in the
  head's favour, by more than the base's quartile distance; null under 10 pairs;
- ``within_bound``: the head's median is worse than the base's by at most the
  bound (null without a bound).

No file is written, and the script exits 1, when any run reports
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


def verdict(base: dict, head: dict, spec: dict) -> dict:
    """The change of the median, the bound, the base's spread and the two rules (module docstring)."""
    sign = -1.0 if spec.get("better", "lower") == "higher" else 1.0  # sign * (head - base) > 0: the head is worse
    pairs = len(head["values"])
    better = sum(sign * (h - b) < 0 for b, h in zip(base["values"], head["values"]))
    gap, quartiles = head["median"] - base["median"], base["q3"] - base["q1"]
    bound = spec.get("bound")
    return {
        "change": gap / base["median"],
        "bound": bound,
        "base_spread": quartiles / base["median"],
        "claim_rule": None if pairs < 10 else better >= 0.9 * pairs and -sign * gap > quartiles,
        "within_bound": None if bound is None else sign * gap <= bound * base["median"],
    }


def summary(runs: list[dict], specs: dict) -> dict:
    """Per metric: each side's spread, the pairs in which the head's value is lower, and the verdict."""
    out = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        sides = {side: spread([r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side])
                 for side in SIDES}
        lower = sum(h < b for b, h in zip(sides["base"]["values"], sides["head"]["values"]))
        out[name] = {"unit": metric["unit"], **sides, "head_lower": lower,
                     **verdict(sides["base"], sides["head"], specs.get(name, {}))}
    return out


def describe(m: dict) -> str:
    """The verdict of one metric as one line of text."""
    bound = "no bound" if m["bound"] is None else f"bound {m['bound']:.0%}, within: {m['within_bound']}"
    claim = "n/a under 10 pairs" if m["claim_rule"] is None else m["claim_rule"]
    return f"median {m['change']:+.1%} ({bound}); base quartiles {m['base_spread']:.1%} of median; claim rule: {claim}"


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
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        seconds, specs = spec["run_seconds"], {m["name"]: m for m in spec["end_to_end"]}
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
            metrics = summary(runs, specs)
            report["workloads"][workload] = {"failed_share": share, "metrics": metrics, "runs": runs}
            for name, m in metrics.items():
                base, head = (f"{m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]" for side in revs)
                lower = f"head lower in {m['head_lower']} of {args.pairs} pairs"
                print(f"{workload} {name}: base {base}, head {head}, {lower}; {describe(m)}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
