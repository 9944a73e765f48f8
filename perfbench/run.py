"""Benchmark of rectilab: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload cantor-scan --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics and the spans are written
to ``perfbench/out/trace-<workload>-seed<seed>.json``.  See README.md.
"""

import os

# one BLAS/OpenMP thread, fixed before NumPy is first imported; the set-up
# children inherit it through the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_CHILDREN = 3
# the reference child imports the third-party modules that ``import
# rectilab`` loads, and nothing of rectilab; setup_s is the set-up wall time
# over the reference children's around it, times REFERENCE_CHILD_S
REFERENCE_CHILD = "import numpy, scipy.optimize, scipy.signal, scipy.spatial"
REFERENCE_CHILD_S = 1.0
CHILD_TIMEOUT_S = 120
IMPORT_METRICS = {
    "rectilab": "import.rectilab_s",
    "scipy.signal": "import.scipy_signal_s",
    "scipy.optimize": "import.scipy_optimize_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cantor-scan", "graph-refine", "stopping-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the modules in IMPORT_METRICS, from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].strip() if len(parts) == 3 else ""
        if name in IMPORT_METRICS:
            found[IMPORT_METRICS[name]] = int(parts[1]) / 1e6
    return found


class SetupTimer:
    """Times set-up children: import rectilab and build the inputs in a fresh interpreter.

    The speed of the machine drifts by more than the set-up bound between
    runs (README.md), so the set-up children run in a chain with reference
    children, one at a time: reference, set-up, reference, ..., reference.
    Each set-up child is timed as the ratio of its wall time to the mean of
    the reference children just before and just after it.
    """

    def __init__(self, workload: str, seed: int, importtime: bool):
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import inputs; inputs.MAKERS[{workload!r}]({seed})"
        )
        self.cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
        self.reference_cmd = [sys.executable, "-c", REFERENCE_CHILD]
        self.importtime = importtime
        self.walls: list[float] = []
        self.reference_walls: list[float] = []
        self.imports: list[dict[str, float]] = []

    @staticmethod
    def _run(cmd) -> tuple[float, str]:
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"child {cmd[-1]!r} failed:\n{proc.stderr}")
        return wall, proc.stderr

    def run(self, n: int) -> None:
        self.reference_walls.append(self._run(self.reference_cmd)[0])
        for _ in range(n):
            wall, stderr = self._run(self.cmd)
            self.walls.append(wall)
            if self.importtime:
                self.imports.append(parse_importtime(stderr))
            self.reference_walls.append(self._run(self.reference_cmd)[0])

    def setup_s(self) -> float:
        refs = self.reference_walls
        ratios = [w / ((a + b) / 2.0) for w, a, b in zip(self.walls, refs, refs[1:])]
        return statistics.median(ratios) * REFERENCE_CHILD_S

    def import_medians(self) -> dict[str, float]:
        return {
            metric: statistics.median(run.get(metric, 0.0) for run in self.imports)
            for metric in IMPORT_METRICS.values()
        }


def measure(workload, tracer, seconds: float):
    """An untimed warm-up pass, then whole passes until ``seconds`` have passed.

    The reference kernel runs after every pass, so each timed pass has a
    reference timing before and after it.  The peak resident memory is
    read right after the warm-up pass (every pass does the same work),
    before the checks and the reference kernel allocate.
    """
    attempted = failed = 0
    problems: list[str] = []
    pass_times: list[float] = []
    ref_times: list[float] = []
    peak_rss_mb = None
    pass_id = 0
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        tracer.pass_id = pass_id
        start = time.perf_counter()
        n, f, outputs = workload.run_pass(tracer)
        elapsed = time.perf_counter() - start
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            import reference
        ref_times.append(reference.reference_seconds())
        if tracer.enabled:
            workload.trace_extras(tracer)
        attempted += n
        failed += f
        problems += workload.check(outputs)
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            pass_times.append(elapsed)
        pass_id += 1
    pass_refs = [t / ((a + b) / 2.0) for t, a, b in zip(pass_times, ref_times, ref_times[1:])]
    return attempted, failed, problems, pass_times, pass_refs, ref_times, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rectilab" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: this checkout lacks {SRC / 'rectilab'} or {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))

    import inputs
    import tracing
    import workloads

    data = inputs.MAKERS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](data, args.seed, workdir)
        setup = SetupTimer(args.workload, args.seed, importtime=bool(args.trace))
        if tracer.enabled:
            workload.install_counters(tracer)
        try:
            attempted, failed, problems, pass_times, pass_refs, ref_times, peak_rss_mb = measure(
                workload, tracer, args.seconds
            )
        finally:
            if tracer.enabled:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.run(SETUP_CHILDREN)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    pass_s = statistics.median(pass_times)
    pass_ref = statistics.median(pass_refs)
    ref_s = statistics.median(ref_times)
    print(
        f"{args.workload} seed {args.seed}: {len(pass_times)} timed passes, "
        f"{attempted} operations attempted, {failed} failed, correct={not problems}; "
        f"median pass {pass_s:.4f} s, reference kernel {ref_s:.4f} s"
    )
    if args.trace:
        passes = range(1, len(pass_times) + 1)
        values = {f"{name}_s": v for name, v in tracer.span_medians(passes).items()}
        values.update(tracer.count_medians(passes))
        values.update(setup.import_medians())
        values.update({
            "trace.pass_s": pass_s, "trace.pass_ref": pass_ref, "trace.reference_s": ref_s,
            "trace.setup_wall_s": statistics.median(setup.walls),
            "trace.reference_child_s": statistics.median(setup.reference_walls),
        })
        chosen = spec["per_layer"]
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {
                "workload": args.workload, "seed": args.seed, "pass_times": pass_times,
                "reference_times": ref_times, "metrics": values,
            },
        )
    else:
        values = {
            "setup_s": setup.setup_s(),
            "pass_ref": pass_ref,
            "peak_rss_mb": peak_rss_mb,
        }
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in chosen}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
