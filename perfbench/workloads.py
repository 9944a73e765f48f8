"""One pass of each workload through the public API of ``rectilab``, and its checks.

A workload object has ``run_pass(tracer) -> (attempted, failed, outputs)``,
``check(outputs) -> list of problems`` and, for the traced run,
``install_counters(tracer)`` and ``trace_extras(tracer)``.  Every check
compares against a computation made here, apart from the program, or
against a property the method must have.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate

from rectilab import beta, cubes, pointset, stopping

import inputs


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def _in_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    return np.linalg.norm(points - center, axis=1) <= radius


def grid_mass_of_balls(centers, radii, depth: int) -> np.ndarray:
    """Grid volume of every ball: cell centres within the radius times cell volume.

    Written apart from ``rectilab.stopping`` so the checks can compare the
    program's grid sums against it.
    """
    h = 2.0**-depth
    size = 2**depth
    d = centers.shape[1]
    out = np.empty(len(radii))
    for i, (c, r) in enumerate(zip(centers, radii)):
        lo = np.maximum(np.ceil((c - r) / h - 0.5), 0).astype(int)
        hi = np.minimum(np.floor((c + r) / h - 0.5), size - 1).astype(int)
        axes = [(np.arange(lo[j], hi[j] + 1) + 0.5) * h - c[j] for j in range(d)]
        dist2 = np.zeros([len(a) for a in axes])
        for j, a in enumerate(axes):
            dist2 = dist2 + (a**2).reshape([-1 if k == j else 1 for k in range(d)])
        out[i] = np.count_nonzero(dist2 <= r * r) * h**d
    return out


class Workload:
    def install_counters(self, tr):
        """Wrap library functions whose internal calls the traced run counts."""

    def trace_extras(self, tr):
        """Traced run only: calls timed on their own, outside the timed pass."""


class CantorScan(Workload):
    """Full-cloud scans: pca beta field, David diagnostics, trees, packing, I/O."""

    J_MAX = 9
    EPSILON = 0.15
    N_STOP = 2
    BETA_SAMPLE = 24
    BETA_REL_TOL = 1e-9

    def __init__(self, data: dict, seed: int, workdir):
        self.cloud = data["cloud"]
        self.seed = seed
        self.workdir = workdir

    def run_pass(self, tr):
        cloud, workdir = self.cloud, self.workdir
        lat = tr.call("cubes.CubeLattice", cubes.CubeLattice, cloud, 0, self.J_MAX)
        betas = tr.call("beta.beta_lattice", beta.beta_lattice, lat, method="pca")
        david = tr.call("cubes.diagnose_david_properties", cubes.diagnose_david_properties, lat)
        flags = {key: res.value >= self.EPSILON for key, res in betas.items()}
        root = lat.tops()[0]
        forest = tr.call("cubes.decompose_trees", cubes.decompose_trees, lat, flags, self.N_STOP, root)
        wgl = tr.call("beta.wgl_sum", beta.wgl_sum, lat, betas, self.EPSILON, root)
        packing = tr.call("cubes.packing_check", cubes.packing_check, lat, flags, self.N_STOP, root)
        cloud_path = workdir / "cloud.csv"
        tr.call("pointset.save_cloud", pointset.save_cloud, cloud, cloud_path, seed=self.seed)
        loaded = tr.call("pointset.load_cloud", pointset.load_cloud, cloud_path)
        tr.call("cubes.export_jsonl", lat.export_jsonl, workdir / "lattice.jsonl")
        tr.call("beta.export_betas", beta.export_betas, betas, workdir / "betas.csv")
        tr.count("cubes.cubes", len(lat))
        tr.count("cubes.trees", len(forest.trees))
        tr.count("beta.flagged", sum(flags.values()))
        out = {
            "lattice": lat, "betas": betas, "david": david, "flags": flags, "root": root,
            "forest": forest, "wgl": wgl, "packing": packing, "loaded": loaded,
        }
        return 1, 0, out

    def check(self, out) -> list[str]:
        bad = []
        pts, weights = self.cloud.points, self.cloud.weights
        lat, betas, flags = out["lattice"], out["betas"], out["flags"]
        for j in range(self.J_MAX + 1):
            level = lat.cubes[j]
            members = np.concatenate([c.members for c in level.values()])
            if not np.array_equal(np.sort(members), np.arange(len(pts))):
                bad.append(f"level {j}: the cubes do not partition the points")
            if not _close(sum(c.weight for c in level.values()), 1.0, 1e-12):
                bad.append(f"level {j}: the cube weights do not sum to 1")
            cells = np.floor(pts / 2.0**-j).astype(np.int64)
            if len(level) != len(np.unique(cells, axis=0)):
                bad.append(f"level {j}: {len(level)} cubes, expected {len(np.unique(cells, axis=0))}")
            for cube in level.values():
                if not np.all(cells[cube.members] == cube.index):
                    bad.append(f"cube {cube.key} holds points of another cell")
                    break

        keys = list(betas)
        rng = np.random.default_rng([self.seed, 2])
        ball_constant = 3.0 * math.sqrt(self.cloud.d)
        for i in rng.choice(len(keys), size=self.BETA_SAMPLE, replace=False):
            cube = lat.get(keys[i])
            radius = ball_constant * cube.side
            mask = _in_ball(pts, cube.center, radius)
            expected, kappa = _svd_beta1(pts[mask], weights[mask], self.cloud.n, radius)
            rel = self.BETA_REL_TOL + 1e3 * np.finfo(float).eps * kappa
            if not _close(betas[cube.key].value, expected, rel, 1e-15):
                bad.append(f"beta1 of {cube.key}: {betas[cube.key].value!r}, SVD gives {expected!r}")

        root = out["root"]
        flagged_mass = sum(lat.get(k).weight for k, f in flags.items() if f)
        if not _close(out["wgl"], flagged_mass / root.weight, 1e-12):
            bad.append(f"wgl_sum {out['wgl']!r} != {flagged_mass / root.weight!r}")
        if not _close(out["packing"]["flagged_mass"], flagged_mass, 1e-12):
            bad.append(f"packing flagged_mass {out['packing']['flagged_mass']!r} != {flagged_mass!r}")

        seen: dict = {}
        for tree in out["forest"].trees:
            for key in tree.cubes:
                seen[key] = seen.get(key, 0) + 1
            ok, witness = cubes.validate_tree(tree, lat)
            if not ok:
                bad.append(f"tree at {tree.top} is invalid: {witness}")
        all_keys = {c.key for c in lat.all_cubes()}
        if set(seen) != all_keys or any(n != 1 for n in seen.values()):
            bad.append("the trees do not cover every cube under the root exactly once")

        densities = [c.weight / c.side**self.cloud.n for c in lat.all_cubes()]
        lo, hi = out["david"].density_ratio_range
        if not (_close(lo, min(densities), 1e-12) and _close(hi, max(densities), 1e-12)):
            bad.append(f"density range {(lo, hi)} != {(min(densities), max(densities))}")

        loaded = out["loaded"]
        if not (np.array_equal(loaded.points, pts) and np.array_equal(loaded.weights, weights)):
            bad.append("load_cloud(save_cloud(cloud)) changed the points or weights")
        with open(self.workdir / "lattice.jsonl") as fh:
            if sum(1 for _ in fh) != len(lat):
                bad.append("export_jsonl wrote a line count other than the cube count")
        with open(self.workdir / "betas.csv", newline="") as fh:
            if sum(1 for _ in csv.reader(fh)) != len(betas) + 1:
                bad.append("export_betas wrote a row count other than the cube count")
        return bad


def _svd_beta1(pts: np.ndarray, w: np.ndarray, n: int, radius: float) -> tuple[float, float]:
    """Weighted mean distance to the best PCA n-plane over r^(n+1), by an SVD.

    Also returns kappa = lambda_n / (lambda_n - lambda_(n+1)) of the weighted
    covariance: the PCA plane, and so the coefficient, is determined only to
    about machine epsilon times kappa.
    """
    if len(pts) < n + 2:
        return 0.0, 1.0
    centered = pts - (w @ pts) / w.sum()
    _, sv, vt = np.linalg.svd(np.sqrt(w)[:, None] * centered, full_matrices=False)
    dist = np.linalg.norm(centered @ vt[n:].T, axis=1)
    lam = sv**2
    gap = lam[n - 1] - lam[n]
    kappa = lam[n - 1] / gap if gap > 0 else math.inf
    return float(w @ dist / radius ** (n + 1)), float(kappa)


class GraphRefine(Workload):
    """Refined beta fields and PBP margins on a Lipschitz curve and surface."""

    # (name, j_max, level of the PBP balls)
    SPECS = (("curve", 7, 3), ("surface", 3, 2))
    DELTA = 0.1
    N_DIRECTIONS = 16
    TRIALS = 2000
    TEST_RADIUS = 0.25
    ORACLE_SAMPLE = 8
    ORACLE_TOL = 1e-6
    # midpoint-rule weights against quadrature: the curve agrees to ~8e-7;
    # the surface's one-sided edge differences leave ~3e-3
    WEIGHT_TOL = {"curve": 1e-5, "surface": 1e-2}

    def __init__(self, data: dict, seed: int, workdir):
        self.seed = seed
        self.clouds = {"curve": data["curve"], "surface": data["surface"]}
        rng = np.random.default_rng([seed, 4])
        self.test_balls = {
            name: pointset.Ball(c.points[rng.integers(len(c.points))], self.TEST_RADIUS)
            for name, c in self.clouds.items()
        }
        self._reference: dict = {}

    def install_counters(self, tr):
        tr.count_calls(pointset, "projection_measure", "pointset.projection_measure_calls")
        tr.count_calls(pointset, "sample_in_ball", "grassmann.sample_in_ball_calls")

    def run_pass(self, tr):
        out = {}
        for pos, (name, j_max, level) in enumerate(self.SPECS):
            cloud = self.clouds[name]
            rng = np.random.default_rng([self.seed, 3, pos])
            tr.prefix = name + "."
            try:
                lat = tr.call("cubes.CubeLattice", cubes.CubeLattice, cloud, 0, j_max)
                betas = tr.call("beta.beta_lattice", beta.beta_lattice, lat)
                margins = [
                    tr.call(
                        "pointset.pbp_margin", pointset.pbp_margin,
                        cloud, lat.ball(q), self.DELTA, self.N_DIRECTIONS, rng,
                    )[1]
                    for q in lat.cubes[level].values()
                ]
                overlap = tr.call(
                    "pointset.graph_overlap", pointset.graph_overlap,
                    cloud, cloud, self.test_balls[name],
                )
                report = tr.call(
                    "pointset.estimate_regularity", pointset.estimate_regularity,
                    cloud, self.TRIALS, rng,
                )
            finally:
                tr.prefix = ""
            out[name] = {
                "lattice": lat, "betas": betas, "margins": margins,
                "overlap": overlap, "regularity": report,
            }
        return 1, 0, out

    def _references(self, name: str, lat) -> dict:
        """Per-run reference values: the pca field, the oracle sample, the quadrature."""
        if name in self._reference:
            return self._reference[name]
        cloud = self.clouds[name]
        ref = {"pca": beta.beta_lattice(lat, method="pca"), "oracle": {}}
        if name == "curve":
            a = inputs.CURVE["amplitude"] * 2.0 * math.pi
            ref["measure"] = integrate.quad(
                lambda x: math.sqrt(1.0 + (a * math.cos(2.0 * math.pi * x)) ** 2),
                0.0, 1.0, limit=200, epsabs=1e-13,
            )[0]
            deep = [c for c in lat.all_cubes() if c.level >= 3]
            rng = np.random.default_rng([self.seed, 5])
            for i in rng.choice(len(deep), size=self.ORACLE_SAMPLE, replace=False):
                cube = deep[i]
                ref["oracle"][cube.key] = beta.beta1(cloud, lat.ball(cube), "grid_oracle").value
        else:
            a = inputs.SURFACE["amplitude"] * 2.0 * math.pi

            def area_element(y, x):
                gx = a * math.cos(2.0 * math.pi * x) * math.cos(2.0 * math.pi * y)
                gy = -a * math.sin(2.0 * math.pi * x) * math.sin(2.0 * math.pi * y)
                return math.sqrt(1.0 + gx * gx + gy * gy)

            ref["measure"] = integrate.dblquad(area_element, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10)[0]
        self._reference[name] = ref
        return ref

    def check(self, out) -> list[str]:
        bad = []
        for name, res in out.items():
            cloud = self.clouds[name]
            ref = self._references(name, res["lattice"])
            for key, refined in res["betas"].items():
                pca = ref["pca"][key].value
                if refined.value > pca + 1e-12 * max(1.0, pca):
                    bad.append(f"{name} {key}: pca_refined {refined.value!r} > pca {pca!r}")
            for key, oracle in ref["oracle"].items():
                if res["betas"][key].value > oracle + self.ORACLE_TOL:
                    bad.append(f"{name} {key}: pca_refined {res['betas'][key].value!r} > grid_oracle {oracle!r}")
            if not _close(cloud.total_weight, ref["measure"], self.WEIGHT_TOL[name]):
                bad.append(f"{name}: total weight {cloud.total_weight!r}, quadrature {ref['measure']!r}")
            if min(res["margins"]) <= 0.0:
                bad.append(f"{name}: PBP margin {min(res['margins'])!r} on a top ball")
            ball = self.test_balls[name]
            direct = float(cloud.weights[_in_ball(cloud.points, ball.center, ball.radius)].sum())
            if not _close(res["overlap"], direct, 1e-12):
                bad.append(f"{name}: graph_overlap {res['overlap']!r}, ball mass {direct!r}")
            rep = res["regularity"]
            wb = rep.worst_ball
            mass = float(cloud.weights[_in_ball(cloud.points, wb.center, wb.radius)].sum())
            rn = wb.radius**cloud.n
            if rep.C0_estimate < 1.0 or not _close(rep.C0_estimate, max(mass / rn, rn / mass), 1e-9):
                bad.append(f"{name}: C0 estimate {rep.C0_estimate!r} is not its worst ball's ratio")
        return bad


class StoppingMix(Workload):
    """heavy_cubes then exhaustive_verify on each ball family; one family is one operation."""

    CONFIG = inputs.STOPPING_CONFIG

    def __init__(self, data: dict, seed: int, workdir):
        self.families = data["families"]
        self.grid_volumes = [
            grid_mass_of_balls(fam.centers, fam.radii, depth) for _, depth, fam in self.families
        ]

    def run_pass(self, tr):
        results = []
        failed = 0
        for d, depth, fam in self.families:
            res = tr.call(f"stopping.heavy_cubes_d{d}", stopping.heavy_cubes, fam, self.CONFIG, depth)
            verdict = tr.call(
                "stopping.exhaustive_verify", stopping.exhaustive_verify, fam, self.CONFIG, res
            )
            # the known fault: the working hypothesis held, yet no heavy cube came out
            if res.status == "exhausted" and res.checks.get("hypothesis_working_ok"):
                failed += 1
            tr.count("stopping.status." + res.status)
            tr.count("stopping.generations", len(res.trace["generations"]))
            results.append((res, verdict))
        return len(self.families), failed, results

    def trace_extras(self, tr):
        """Time the stages of heavy_cubes one by one, outside the timed pass."""
        for d, depth, fam in self.families:
            grid = tr.call("stopping.GridFunction.from_balls", stopping.GridFunction.from_balls, fam, depth)
            tr.call("stopping.maximal_function", stopping.maximal_function, grid)
            tr.call("stopping.weight_profile", stopping.weight_profile, fam, stopping.AdjacentSystems(d))

    def check(self, out) -> list[str]:
        bad = []
        m = self.CONFIG.M
        for (d, _, fam), gvol, (res, verdict) in zip(self.families, self.grid_volumes, out):
            label = f"d={d} family of {len(fam)} balls"
            if res.status not in ("early_exit", "heavy_found", "vacuous", "exhausted"):
                bad.append(f"{label}: unknown status {res.status!r}")
            if not verdict["ok"]:
                bad.append(f"{label}: exhaustive_verify failed: {verdict['failures']}")
            total = float(fam.weights @ gvol)
            if (res.status == "early_exit") != (total > m):
                bad.append(f"{label}: status {res.status} with grid L1 mass {total!r} against M={m}")
            if res.status in ("early_exit", "heavy_found") and not res.heavy:
                bad.append(f"{label}: status {res.status} without cubes")
            for cube in res.heavy:
                side = 2.0**-cube.level
                lo = np.array([((cube.system >> j) & 1) / 3.0 for j in range(d)]) + np.array(cube.cell) * side
                inside = np.all(fam.centers - fam.radii[:, None] >= lo - 1e-15, axis=1) & np.all(
                    fam.centers + fam.radii[:, None] <= lo + side + 1e-15, axis=1
                )
                mass = float(fam.weights[inside] @ gvol[inside])
                if not mass > m * side**d:
                    bad.append(f"{label}: cube {cube} has mass {mass!r} <= M|R| = {m * side**d!r}")
                if not _close(mass, res.f_masses[cube], 1e-9, 1e-12):
                    bad.append(f"{label}: cube {cube} mass {res.f_masses[cube]!r}, recomputed {mass!r}")
        return bad


WORKLOADS = {
    "cantor-scan": CantorScan,
    "graph-refine": GraphRefine,
    "stopping-mix": StoppingMix,
}
