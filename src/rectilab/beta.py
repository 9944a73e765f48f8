"""Normalized plane-approximation coefficients of clouds inside balls.

The L1 coefficient of a ball is the weighted mean distance to the best
n-plane, normalized by r^{n+1}; the sup variant replaces the mean by a max.
Zero-weight points lie outside the measure's support and are left out. The
infimum over planes comes from a declared plane family: a weighted PCA fit
(``pca``), descent from it (``pca_refined``), or the exact planar oracle
(``grid_oracle``, a name kept because the benchmark in ``perfbench`` passes
it). Every result carries its method tag. Exact: planar beta1 under
``grid_oracle`` (every pivot's turn, ``_sweep``), planar beta_inf under both
refined methods (half the minimum width, ``_half_width``) and the
codimension-1 beta_inf turn. ``pca_refined`` planar beta1 scores the start
angles that closed-form bounds (``_start_bounds``) keep, then turns exactly
about a few pivots. Brent's bounded method serves only codimension >= 2, and
only it loads ``scipy.optimize``. Fields go one lattice level at a time:
balls are selected in batches, each batch is fitted by one batched PCA, and
pca values are segment sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cubes import CubeKey, CubeLattice, _as_key
from .grassmann import AffinePlane, Subspace
from .pointset import Ball, RegularCloud, _ball_batches, _pca_frames, _row_norms

METHODS = ("pca", "pca_refined", "grid_oracle")
REFINE_ITERATIONS = 50
REFINE_TOL = 1e-8
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


def _planar_values(pts, w, r, thetas):
    """Planar beta1 objective and best offset at every angle of ``thetas``. Each row is
    reduced on its own, so row k equals a one-angle call at thetas[k] bit for bit."""
    s = np.cos(thetas)[:, None] * pts[:, 1]
    buf = np.sin(thetas)[:, None] * pts[:, 0]
    s -= buf
    order = s.argsort(axis=1)
    cum = np.cumsum(np.take(w, order, out=buf, mode="clip"), axis=1, out=buf)  # clip: no copy
    rows = np.arange(len(s))
    c = s[rows, order[rows, (cum < 0.5 * cum[:, -1:]).sum(axis=1)]]
    s -= c[:, None]
    np.abs(s, out=s)
    s *= w
    return s.sum(axis=1) / r**2, c


def _sweep(a, b, w):
    """Exact minimiser t in [0, pi] of sum_i w_i |a_i cos t - b_i sin t| along the last axis, and
    the minimum. Between the zeros of its terms the sum is a nonnegative sinusoid, so concave, and
    the minimum sits at a zero: score each with running sums of w·a and w·b in sorted order."""
    zeros = np.arctan2(a, b)
    sw = np.where(zeros < 0, -w, w)  # flip the terms whose zero atan2 puts in (-pi, 0)
    zeros[zeros < 0] += np.pi
    base = zeros.shape[-1] * np.arange(zeros.size // zeros.shape[-1]).reshape(zeros.shape[:-1])
    order = zeros.argsort(axis=-1) + base[..., None]  # flat indices, one take per array
    zeros, ca, cb = zeros.take(order), (sw * a).take(order).cumsum(-1), (sw * b).take(order).cumsum(-1)
    vals = np.cos(zeros) * (ca[..., -1:] - 2.0 * ca) - np.sin(zeros) * (cb[..., -1:] - 2.0 * cb)
    k = vals.argmin(axis=-1) + base
    return zeros.take(k), np.maximum(vals.take(k), 0.0)  # the running sums can round below 0


def _start_bounds(pts, w, r, thetas):
    """(lower, upper): row k of the planar beta1 ``_planar_values`` is at least lower[k] and the
    least row at most upper. With s the projections on the normal at t and V = sum w (s - mean)^2
    (a quadratic form of the 2x2 covariance), V = sum w (s - mean)(s - c) <= R sum w |s - c| for
    any c (R: largest distance to the mean); at the least V, sum w |s - median| <= sqrt(W V) by
    Cauchy-Schwarz. Slacks 1e-13 m trace (on V) and 1e-13 m W max|coordinate| cover rounding."""
    rel = pts - w @ pts / w.sum()
    cov, nrm = (w * rel.T) @ rel, np.c_[-np.sin(thetas), np.cos(thetas)]
    var = ((nrm @ cov) * nrm).sum(axis=1)
    dv, tau = 1e-13 * len(pts) * np.array([cov.trace(), w.sum() * np.abs(pts).max()])
    lower = ((var - dv) / max(_row_norms(rel).max(), np.finfo(float).tiny) - tau) / r**2
    return lower, (math.sqrt(w.sum() * (max(var.min(), 0.0) + dv)) + tau) / r**2


def _best_angle(pts, w, r, thetas):
    """The angle of ``thetas`` with the lowest planar beta1 objective: (angle, value, offset)."""
    vals, c = _planar_values(pts, w, r, thetas)
    k = int(np.argmin(vals))
    return float(thetas[k]), float(vals[k]), float(c[k])


def _planar_refine(pts, w, r, theta0):
    """Planar beta1: the best of 65 start angles around theta0, then exact turns (``_sweep``)
    about the weighted-median point and its two neighbours along the normal while the value
    strictly falls (an optimal L1 line passes through a weighted median). A pivot's turn
    depends on the pivot alone and scored no lower than the current value when it was first
    swept, so only new pivots are turned, and the descent stops when none is new. A start
    angle whose ``_start_bounds`` lower bound exceeds the upper bound scores above the least,
    so it is not scored; rows reduce alone, so kept angles score bit for bit."""
    thetas = np.r_[theta0, theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
    lower, upper = _start_bounds(pts, w, r, thetas)
    theta, best_val, c = _best_angle(pts, w, r, thetas[lower <= upper])
    swept = set()
    for _ in range(REFINE_ITERATIONS):
        order = np.argsort(pts @ np.array([-math.sin(theta), math.cos(theta)]))
        cum = np.cumsum(w[order])
        k = int((cum < 0.5 * cum[-1]).sum())
        pivots = [p for p in order[max(k - 1, 0) : k + 2].tolist() if p not in swept]
        if not pivots:
            break
        swept.update(pivots)
        rel = pts - pts[pivots, None]
        t, val, off = _best_angle(pts, w, r, _sweep(rel[..., 1], rel[..., 0], w)[0])
        if val >= best_val:
            break
        theta, best_val, c = t, val, off
    return best_val, theta, c


def _pivot_oracle(pts, w, r):
    """Exact planar beta1 (angle, value, offset): an optimal L1 line passes through two data
    points, so the best of every pivot's exact turn is the minimum. Pivots go in chunks that
    keep each array near 2^18 entries."""
    rels = (pts - piv[:, None] for piv in np.array_split(pts, 1 + len(pts) ** 2 // 2**18))
    turns = (_best_angle(pts, w, r, _sweep(rel[..., 1], rel[..., 0], w)[0]) for rel in rels)
    return min(turns, key=lambda turn: turn[1])


def _half_width(xy):
    """(unit normal, half width) of the narrowest strip holding the points xy (m x 2). The width
    is least across some convex-hull edge (Houle & Toussaint, IEEE PAMI 10, 1988), so each edge
    normal is scored by the hull's extent along it, in chunks near 2^18 entries. Collinear or
    coincident points have no 2-D hull; the segment from xy[0] to the farthest point stands in."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        v = xy[ConvexHull(xy).vertices]
    except QhullError:
        v = xy[[0, int(np.argmax(_row_norms(xy - xy[0])))]]
    e = np.roll(v, -1, axis=0) - v
    if not e.any():  # coincident points
        return np.array([0.0, 1.0]), 0.0
    normals = np.c_[-e[:, 1], e[:, 0]] / np.hypot(e[:, 0], e[:, 1])[:, None]
    chunks = np.array_split(normals, 1 + len(v) ** 2 // 2**18)
    width = np.concatenate([np.ptp(v @ c.T, axis=0) for c in chunks])
    k = int(width.argmin())
    return normals[k], 0.5 * float(width[k])


def _turned_value(t, q, j, pm, pu, w, r, n, sup):
    """Plane value with normal j turned by t towards -u, written into column j of q."""
    q[:, j] = math.cos(t) * pm - math.sin(t) * pu
    dist = np.linalg.norm(q, axis=1)
    return float(dist.max() / r) if sup else float((w * dist).sum() / r ** (n + 1))


def _general_refine(pts, w, r, n, sup, frame, normals, point):
    """Coordinate descent from the PCA fit (frame, normals, point) over frame
    rotations and offsets, monotone steps. Each (i, j) rotation projects once. In codimension 1
    the turn is exact: beta1 by ``_sweep``, and beta_inf, which minimises max |a cos t - b sin t|,
    as half the minimum width of the symmetric set {+-(a_i, -b_i)}. In codimension >= 2 Brent
    rewrites only column j."""
    d = pts.shape[1]
    best = _plane_value(pts, w, normals, point, r, n, sup)
    for _ in range(REFINE_ITERATIONS):
        start = best
        rel = pts - point
        for i in range(n):
            for j in range(d - n):
                u, m = frame[:, i], normals[:, j]
                q, pu = rel @ normals, rel @ u
                if d - n > 1:
                    from scipy.optimize import minimize_scalar
                    args = (q, j, q[:, j].copy(), pu, w, r, n, sup)
                    res = minimize_scalar(_turned_value, bounds=(-0.6, 0.6), args=args, method="bounded")
                    t, val = float(res.x), float(res.fun)
                elif sup:
                    ab = np.c_[q[:, 0], -pu]
                    turn, half = _half_width(np.r_[ab, -ab])
                    t, val = math.atan2(turn[1], turn[0]), half / r
                else:
                    t, val = map(float, _sweep(q[:, 0], pu, w))
                    val /= r ** (n + 1)
                if val < best - 1e-12:
                    frame, normals = frame.copy(), normals.copy()
                    frame[:, i] = math.cos(t) * u + math.sin(t) * m
                    normals[:, j] = -math.sin(t) * u + math.cos(t) * m
                    best = val
        proj = rel @ normals
        shift = np.array([_best_offset(proj[:, j], w, sup) for j in range(d - n)])
        candidate = point + normals @ shift
        cand_val = _plane_value(pts, w, normals, candidate, r, n, sup)
        if cand_val < best:
            point, best = candidate, cand_val
        if start - best < REFINE_TOL:
            break
    return best, frame, point


def _fit(
    cloud: RegularCloud, centers: np.ndarray, radii: np.ndarray, method: str, sup: bool
) -> list[BetaResult]:
    """Coefficients of the balls B(centers[b], radii[b]), selected in batches; a batch's pca fits
    come from one ``_pca_frames`` call and its pca values from segment sums (sup: maxima)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n, d = cloud.n, cloud.d
    out = []
    for lo, indptr, idx in _ball_batches(cloud, centers, radii):
        r, live = radii[lo : lo + len(indptr) - 1], cloud.weights[idx] > 0
        seg, idx = np.repeat(np.arange(len(r)), np.diff(indptr))[live], idx[live]
        counts = np.bincount(seg, minlength=len(r))
        if not counts.all():
            b = int(np.argmin(counts))  # the first ball left without live points
            if indptr[b] == indptr[b + 1]:
                raise ValueError("the ball does not meet the cloud")
            raise ValueError("the ball holds only zero-weight points, outside the measure's support")
        full = counts >= n + 2
        if method != "grid_oracle" and full.any():
            fit, fptr = idx[full[seg]], np.r_[0, np.cumsum(counts[full])]
            pts, w = cloud.points.take(fit, axis=0), cloud.weights.take(fit)
            frames, normals, means, dist = _pca_frames(pts, w, fptr, n)
            if sup:
                values = np.maximum.reduceat(dist, fptr[:-1]) / r[full]
            else:
                values = np.add.reduceat(w * dist, fptr[:-1]) / r[full] ** (n + 1)
        balls = zip(np.cumsum(full) - 1, np.split(idx, np.cumsum(counts)[:-1]))
        for b, (k, sel) in enumerate(balls):
            if method == "pca" and full[b]:
                out.append(BetaResult(float(values[k]), AffinePlane(Subspace(frames[k]), means[k]), "pca"))
                continue
            pts, w = cloud.points[sel], cloud.weights[sel]
            if not full[b]:
                plane = AffinePlane(Subspace.axis(d, *range(n)), pts[0])
                out.append(BetaResult(0.0, plane, method, degenerate=True))
            elif method == "grid_oracle" and (d != 2 or n != 1):
                raise ValueError("grid_oracle is only available for planar clouds with n=1")
            elif d == 2 and n == 1:
                if sup:
                    normal, half = _half_width(pts)
                    theta, val, c = math.atan2(-normal[0], normal[1]), half / r[b], _best_offset(pts @ normal, w, True)
                elif method == "grid_oracle":
                    theta, val, c = _pivot_oracle(pts, w, r[b])
                else:
                    val, theta, c = _planar_refine(pts, w, r[b], math.atan2(frames[k][1, 0], frames[k][0, 0]))
                out.append(BetaResult(val, _plane_from_angle(theta, c), method))
            else:
                val, fr, pt = _general_refine(pts, w, r[b], n, sup, frames[k], normals[k], means[k])
                out.append(BetaResult(val, AffinePlane(Subspace(fr), pt), "pca_refined"))
    return out


def beta1(cloud: RegularCloud, ball: Ball, method: str = "pca_refined") -> BetaResult:
    """Mean-distance plane coefficient of the cloud inside the ball."""
    return _fit(cloud, ball.center[None], np.array([ball.radius]), method, sup=False)[0]


def beta_inf(cloud: RegularCloud, ball: Ball, method: str = "pca_refined") -> BetaResult:
    """Sup-distance plane coefficient of the cloud inside the ball."""
    return _fit(cloud, ball.center[None], np.array([ball.radius]), method, sup=True)[0]


def beta_lattice(
    lattice: CubeLattice, which: str = "beta1", method: str = "pca_refined"
) -> dict[CubeKey, BetaResult]:
    """Coefficient of the ball B_Q for every cube of the lattice, keyed by cube; one level at a time."""
    if which not in ("beta1", "beta_inf"):
        raise ValueError("which must be 'beta1' or 'beta_inf'")
    out: dict[CubeKey, BetaResult] = {}
    for j in range(lattice.j_min, lattice.j_max + 1):
        fits = _fit(lattice.cloud, *lattice.level_balls(j), method, which == "beta_inf")
        out.update(((j, cell), res) for cell, res in zip(lattice.cubes[j], fits))
    return out


def wgl_sum(lattice: CubeLattice, betas: dict[CubeKey, BetaResult], epsilon: float, q0) -> float:
    """Carleson ratio: flagged-cube mass under q0 over the mass of q0."""
    if math.isnan(epsilon):
        raise ValueError("epsilon must not be NaN")
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
    the discretization floor (FLOOR_FACTOR * resolution / radius). Each level
    takes two ``_fit`` calls: beta1 on all its doubled balls, then beta_inf on
    the balls of the cubes that clear the floor. Returns (worst constant,
    count of contributing cubes); the constant is None when nothing clears
    the floor.
    """
    cloud = lattice.cloud
    worst, used = None, 0
    power = 1.0 / (cloud.n + 1)
    for j in range(lattice.j_min, lattice.j_max + 1):
        centers, radii = lattice.level_balls(j)
        big = _fit(cloud, centers, 2.0 * radii, "pca_refined", sup=False)
        keep = [
            b for b, b1 in enumerate(big)
            if not b1.degenerate and b1.value >= FLOOR_FACTOR * cloud.resolution / (2.0 * radii[b])
        ]
        if not keep:
            continue
        for b, binf in zip(keep, _fit(cloud, centers[keep], radii[keep], "pca_refined", sup=True)):
            ratio = binf.value / big[b].value**power
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
            direction = " ".join(repr(float(x)) for x in res.plane.direction.basis.ravel())
            anchor = " ".join(repr(float(x)) for x in res.plane.anchor)
            writer.writerow([level, " ".join(map(str, cell)), repr(res.value), res.method, direction, anchor])
