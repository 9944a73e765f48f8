"""Normalized plane-approximation coefficients of clouds inside balls.

The L1 coefficient of a ball is the weighted mean distance to the best
n-plane, normalized by r^{n+1}; the sup variant replaces the mean by a max.
The infimum over planes is approximated by a declared plane family: a
weighted PCA fit (``pca``), coordinate descent from the PCA fit
(``pca_refined``), or an exhaustive angle/offset grid (``grid_oracle``,
planar clouds only). Every result carries its method tag.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .cubes import CubeKey, CubeLattice, _as_key
from .grassmann import AffinePlane, Subspace
from .pointset import Ball, RegularCloud, _pca_frame

METHODS = ("pca", "pca_refined", "grid_oracle")
REFINE_ITERATIONS = 50
REFINE_TOL = 1e-8
# grid_oracle: angles in [0, pi) and offsets across the ball's diameter
ORACLE_ANGLES = 360
ORACLE_OFFSETS = 100
# beta_comparison skips cubes whose mean coefficient is below this times resolution / radius
FLOOR_FACTOR = 2.0


@dataclass(frozen=True)
class BetaResult:
    value: float
    plane: AffinePlane
    method: str
    degenerate: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("a plane-approximation coefficient is nonnegative")


def _plane_from_angle(theta: float, offset: float) -> AffinePlane:
    direction = Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))
    normal = np.array([-math.sin(theta), math.cos(theta)])
    return AffinePlane(direction, offset * normal)


def _best_offset(s: np.ndarray, w: np.ndarray, sup: bool) -> float:
    """The c minimising max |s - c| (sup: the midrange) or sum w |s - c| (a weighted median)."""
    if sup:
        return 0.5 * (s.min() + s.max())
    order = np.argsort(s)
    cum = np.cumsum(w[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(s[order[min(k, len(s) - 1)]])


def _plane_value(pts, w, normals, point, r, n, sup) -> float:
    dist = np.linalg.norm((pts - point) @ normals, axis=1)
    return float(dist.max() / r) if sup else float(np.sum(w * dist) / r ** (n + 1))


def _planar_objective(theta, pts, w, r, sup):
    s = pts @ np.array([-math.sin(theta), math.cos(theta)])
    c = _best_offset(s, w, sup)
    spread = np.abs(s - c)
    return (float(spread.max() / r) if sup else float(np.sum(w * spread) / r**2)), c


def _planar_refine(pts, w, r, sup, theta0):
    """Best angle by coarse grid plus bounded local refinement."""

    def value(theta):
        return _planar_objective(theta, pts, w, r, sup)[0]

    thetas = np.concatenate(
        [[theta0], theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
    )
    vals = [value(t) for t in thetas]
    best = int(np.argmin(vals))
    theta, best_val = float(thetas[best]), vals[best]
    span = math.pi / 64
    for _ in range(REFINE_ITERATIONS):
        res = minimize_scalar(value, bounds=(theta - span, theta + span), method="bounded")
        if res.fun < best_val - REFINE_TOL:
            theta, best_val = float(res.x), float(res.fun)
            span /= 2.0
        else:
            break
    val, c = _planar_objective(theta, pts, w, r, sup)
    return min(val, best_val), theta, c


def _general_refine(pts, w, r, n, sup, frame, normals, point):
    """Coordinate descent from the PCA fit (frame, normals, point) over frame
    rotations and offsets, monotone steps."""
    d = pts.shape[1]

    def value(nm, pt):
        return _plane_value(pts, w, nm, pt, r, n, sup)

    best = value(normals, point)
    for _ in range(REFINE_ITERATIONS):
        start = best
        for i in range(n):
            for j in range(d - n):
                u, m = frame[:, i].copy(), normals[:, j].copy()

                def turned_normals(t):
                    nm = normals.copy()
                    nm[:, j] = -math.sin(t) * u + math.cos(t) * m
                    return nm

                res = minimize_scalar(
                    lambda t: value(turned_normals(t), point), bounds=(-0.6, 0.6), method="bounded"
                )
                if res.fun < best - 1e-12:
                    t = float(res.x)
                    frame = frame.copy()
                    frame[:, i] = math.cos(t) * u + math.sin(t) * m
                    normals = turned_normals(t)
                    best = float(res.fun)
        rel = (pts - point) @ normals
        shift = np.array([_best_offset(rel[:, j], w, sup) for j in range(d - n)])
        candidate = point + normals @ shift
        cand_val = value(normals, candidate)
        if cand_val < best:
            point, best = candidate, cand_val
        if start - best < REFINE_TOL:
            break
    return best, frame, point


def _grid_oracle(pts, w, ball: Ball, sup: bool) -> BetaResult:
    r = ball.radius
    thetas = np.arange(ORACLE_ANGLES) * math.pi / ORACLE_ANGLES
    best = (math.inf, 0.0, 0.0)
    for theta in thetas:
        normal = np.array([-math.sin(theta), math.cos(theta)])
        s = pts @ normal
        mid = float(ball.center @ normal)
        offsets = np.linspace(mid - r, mid + r, ORACLE_OFFSETS)
        spread = np.abs(s[None, :] - offsets[:, None])
        vals = spread.max(axis=1) / r if sup else (spread * w[None, :]).sum(axis=1) / r**2
        k = int(np.argmin(vals))
        if vals[k] < best[0]:
            best = (float(vals[k]), float(theta), float(offsets[k]))
    return BetaResult(best[0], _plane_from_angle(best[1], best[2]), "grid_oracle")


def _compute(cloud: RegularCloud, ball: Ball, method: str, sup: bool) -> BetaResult:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    idx = cloud.ball_indices(ball)
    pts, w = cloud.points[idx], cloud.weights[idx]
    if len(pts) == 0:
        raise ValueError("the ball does not meet the cloud")
    n, r = cloud.n, ball.radius
    if len(pts) < n + 2:
        frame = Subspace.axis(cloud.d, *range(n))
        return BetaResult(0.0, AffinePlane(frame, pts[0]), method, degenerate=True)

    if method == "grid_oracle":
        if cloud.d != 2 or n != 1:
            raise ValueError("grid_oracle is only available for planar clouds with n=1")
        return _grid_oracle(pts, w, ball, sup)

    frame, normals, mean = _pca_frame(pts, w, n)
    if method == "pca":
        value = _plane_value(pts, w, normals, mean, r, n, sup)
        return BetaResult(value, AffinePlane(Subspace(frame), mean), "pca")

    if cloud.d == 2 and n == 1:
        theta0 = math.atan2(frame[1, 0], frame[0, 0])
        val, theta, c = _planar_refine(pts, w, r, sup, theta0)
        return BetaResult(val, _plane_from_angle(theta, c), "pca_refined")
    val, fr, pt = _general_refine(pts, w, r, n, sup, frame, normals, mean)
    return BetaResult(val, AffinePlane(Subspace(fr), pt), "pca_refined")


def beta1(cloud: RegularCloud, ball: Ball, method: str = "pca_refined") -> BetaResult:
    """Mean-distance plane coefficient of the cloud inside the ball."""
    return _compute(cloud, ball, method, sup=False)


def beta_inf(cloud: RegularCloud, ball: Ball, method: str = "pca_refined") -> BetaResult:
    """Sup-distance plane coefficient of the cloud inside the ball."""
    return _compute(cloud, ball, method, sup=True)


def beta_lattice(
    lattice: CubeLattice, which: str = "beta1", method: str = "pca_refined"
) -> dict[CubeKey, BetaResult]:
    """Coefficient of the ball B_Q for every cube of the lattice, keyed by cube."""
    if which not in ("beta1", "beta_inf"):
        raise ValueError("which must be 'beta1' or 'beta_inf'")
    fn = beta1 if which == "beta1" else beta_inf
    out: dict[CubeKey, BetaResult] = {}
    for cube in lattice.all_cubes():
        out[cube.key] = fn(lattice.cloud, lattice.ball(cube), method)
    return out


def wgl_sum(lattice: CubeLattice, betas: dict[CubeKey, BetaResult], epsilon: float, q0) -> float:
    """Carleson ratio: flagged-cube mass under q0 over the mass of q0."""
    root = _as_key(q0)
    total = 0.0
    for key in lattice.descendants(root):
        if key not in betas:
            raise KeyError(f"missing coefficient for cube {key}")
        if betas[key].value >= epsilon:
            total += lattice.get(key).weight
    return total / lattice.get(root).weight


def beta_comparison(lattice: CubeLattice):
    """Worst ratio of the sup coefficient to the mean coefficient at double radius.

    For every cube, compares beta_inf(B_Q) against
    beta1(2 B_Q)^(1/(n+1)), skipping cubes whose mean coefficient sits below
    the discretization floor (FLOOR_FACTOR * resolution / radius). Returns
    (worst constant, count of contributing cubes); the constant is None when
    nothing clears the floor.
    """
    cloud = lattice.cloud
    worst, used = None, 0
    power = 1.0 / (cloud.n + 1)
    for cube in lattice.all_cubes():
        small, big = lattice.ball(cube), lattice.ball(cube, 2.0)
        b1 = beta1(cloud, big)
        if b1.degenerate or b1.value < FLOOR_FACTOR * cloud.resolution / big.radius:
            continue
        binf = beta_inf(cloud, small)
        ratio = binf.value / b1.value**power
        used += 1
        if worst is None or ratio > worst:
            worst = ratio
    return worst, used


def export_betas(betas: dict[CubeKey, BetaResult], path: str | Path, which: str = "beta1"):
    """CSV rows: level, cell index, value, method, plane parameters."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "cell_index", which, "method", "plane_direction", "plane_anchor"])
        for (level, cell), res in sorted(betas.items()):
            writer.writerow(
                [
                    level,
                    " ".join(map(str, cell)),
                    repr(res.value),
                    res.method,
                    " ".join(repr(float(x)) for x in res.plane.direction.basis.ravel()),
                    " ".join(repr(float(x)) for x in res.plane.anchor),
                ]
            )
