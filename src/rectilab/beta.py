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
codimension-1 beta_inf turn. ``pca_refined`` planar beta1 refines all the
balls of a selection batch together (``_planar_refine``): each scores the
start angles that closed-form bounds (``_start_bounds``) keep, then turns
exactly about a few pivots, in lockstep on a padded layout, one
power-of-two class of point counts at a time. Rows sort stably and sum in
sequence, and pads weigh 0 and copy their ball's first point: they sort
after every real point they tie with and add nothing, so a ball's result is
the same alone as in any batch. Brent's bounded method serves only
codimension >= 2, and only it loads ``scipy.optimize``. Fields go one
lattice level at a time: balls are selected in batches, each batch is
fitted by one batched PCA, and pca values are segment sums. A ball whose live
selection is every live point of the cloud is fitted once per radius in a
call, and the call's later such balls copy that fit: a fit reads only the
live points, their weights and the radius, and no ball's fit depends on its
batch, so the copy is the fit, bit for bit. A result holds
its value, method tag, degenerate flag and the fit's raw arrays, a d x n
basis and one point of the plane; the validated ``AffinePlane`` is built
when ``.plane`` is first read, and ``export_betas`` writes from the arrays
without building it.
"""

from __future__ import annotations

import csv
import math
import types
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .cubes import CubeKey, CubeLattice, _as_key
from .grassmann import AffinePlane, Subspace, _canonical_anchor
from .pointset import _ROW_CHUNK, Ball, RegularCloud, _ball_batches, _pca_frames, _reprs, _row_norms

METHODS = ("pca", "pca_refined", "grid_oracle")
REFINE_ITERATIONS = 50
REFINE_TOL = 1e-8
# beta_comparison skips cubes whose mean coefficient is below this times resolution / radius
FLOOR_FACTOR = 2.0


@dataclass(frozen=True, eq=False)
class BetaResult:
    """A coefficient ``value`` >= 0 (NaN rejected, kept as a Python float) with its ``method``
    tag and ``degenerate`` flag (fewer than n + 2 live points: value 0). The fitted plane is kept
    as the fit left it, an orthonormal d x n ``basis`` and one ``point`` of the plane; ``.plane``
    builds and validates ``AffinePlane(Subspace(basis), point)`` the first time it is read."""

    value: float
    basis: np.ndarray
    point: np.ndarray
    method: str
    degenerate: bool = False

    def __post_init__(self):
        if type(self.value) is not float:  # a numpy scalar's repr is np.float64(...)
            object.__setattr__(self, "value", float(self.value))
        if not self.value >= 0:
            raise ValueError("a plane-approximation coefficient is nonnegative")

    @cached_property
    def plane(self) -> AffinePlane:
        return AffinePlane(Subspace(self.basis), self.point)


def _plane_from_angle(theta: float, offset: float):
    """(basis, point) of the line at angle theta, offset along its normal."""
    normal = np.array([-math.sin(theta), math.cos(theta)])
    return np.array([[math.cos(theta)], [math.sin(theta)]]), offset * normal


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


def _padded(pts, w, start, m):
    """Ball b's points pts[start[b]:start[b] + m[b]] as row b of a coordinate-major (2, B, M) array
    and its weights as row b of a (B, M) array; each pad copies its ball's first point and weighs 0."""
    lane = np.arange(m.max())
    pad = lane >= m[:, None]
    at = start[:, None] + np.where(pad, 0, lane)
    return pts.T[:, at], np.where(pad, 0.0, w[at])


def _planar_values(xy, w, m, r2, ball, thetas):
    """Planar beta1 objective, best offset and pivots of every row k: ball ball[k] of a ``_padded``
    batch (r2: the squared radii) at angle thetas[k], over the rows' own widest ball. Each row sorts
    stably with its pads last and takes its weighted median from running sums; the pivots are the
    lanes of the median and its two neighbours in that order (-1 where none is a real point). The
    objective sums in lane order, where pads copy their ball's first point and weigh 0, so they add
    trailing zeros, and no row depends on the padded width."""
    rows, stride = np.arange(len(ball)), xy.shape[2] * ball
    width = int(m[ball].max())
    s = xy[1, :, :width].take(ball, axis=0)
    s *= np.cos(thetas)[:, None]
    s -= xy[0, :, :width].take(ball, axis=0) * np.sin(thetas)[:, None]
    real = np.arange(width) < m[ball][:, None]
    order = np.where(real, s, np.inf).argsort(axis=1, kind="stable")
    order += stride[:, None]  # flat indices into w
    buf = w.take(order)
    cum = np.cumsum(buf, axis=1, out=buf)
    k = (cum < 0.5 * cum[:, -1:]).sum(axis=1)
    at = np.maximum(k - 1, 0)[:, None] + np.arange(3)
    lanes = np.take_along_axis(order, np.minimum(at, width - 1), axis=1) - stride[:, None]
    pivots = np.where(at < np.minimum(k + 2, m[ball])[:, None], lanes, -1)
    c = s[rows, order[rows, k] - stride]
    s -= c[:, None]
    np.abs(s, out=s)
    s *= w[:, :width].take(ball, axis=0, out=buf, mode="clip")  # clip: no buffered copy
    return np.cumsum(s, axis=1, out=s)[:, -1] / r2[ball], c, pivots


def _sweep(a, b, w, kind=None):
    """Exact minimiser t in [0, pi] of sum_i w_i |a_i cos t - b_i sin t| along the last axis, and
    the minimum. Between the zeros of its terms the sum is a nonnegative sinusoid, so concave, and
    the minimum sits at a zero: score each with running sums of w·a and w·b in the order of
    ``argsort(kind=kind)``. Sorted stably, a row's zero-weight copies of its first term (a ``_padded``
    row's pads) change no bit: they sort after its ties and add nothing to the running sums, so each
    scores as the term before it and is never the first least."""
    zeros = np.arctan2(a, b)
    flip = zeros < 0
    sw = np.where(flip, -w, w)  # flip the terms whose zero atan2 puts in (-pi, 0)
    zeros[flip] += np.pi
    base = zeros.shape[-1] * np.arange(zeros.size // zeros.shape[-1]).reshape(zeros.shape[:-1])
    order = zeros.argsort(axis=-1, kind=kind)
    order += base[..., None]  # flat indices, one take per array
    zeros = zeros.take(order)
    # vals = cos z (A - 2 ca) - sin z (B - 2 cb), A and B the totals, written in place to hold the memory
    ca, cb = ((sw * c).take(order).cumsum(-1) for c in (a, b))
    for run, trig in ((ca, np.cos), (cb, np.sin)):
        np.subtract(run[..., -1:].copy(), np.multiply(run, 2.0, out=run), out=run)
        run *= trig(zeros)
    vals = np.subtract(ca, cb, out=ca)
    k = vals.argmin(axis=-1) + base
    return zeros.take(k), np.maximum(vals.take(k), 0.0)  # the running sums can round below 0


def _start_bounds(xy, w, m, r2, thetas):
    """(lower, upper) on a ``_padded`` batch: ball b's planar beta1 ``_planar_values`` at thetas[b, k]
    is at least lower[b, k], and the least of them at most upper[b]. With s the projections on the
    normal at t and V = sum w (s - mean)^2 (a quadratic form of the 2x2 covariance), V = sum w (s -
    mean)(s - c) <= R sum w |s - c| for any c (R: largest distance to the mean); at the least V, sum w
    |s - median| <= sqrt(W V) by Cauchy-Schwarz. Slacks 1e-13 m trace (on V) and 1e-13 m W
    max|coordinate| cover rounding. Pads weigh 0 and copy a point, so they move no sum or maximum."""
    total = w.sum(axis=1)
    rel = xy - (xy * w).sum(axis=2, keepdims=True) / total[:, None]
    cov = np.einsum("ibm,jbm,bm->bij", rel, rel, w)
    nrm = np.stack([-np.sin(thetas), np.cos(thetas)], axis=-1)
    var = np.einsum("bki,bij,bkj->bk", nrm, cov, nrm)
    dv = 1e-13 * m * np.trace(cov, axis1=1, axis2=2)
    tau = 1e-13 * m * total * np.abs(xy).max(axis=(0, 2))
    reach = np.maximum(np.sqrt((rel * rel).sum(axis=0)).max(axis=1), np.finfo(float).tiny)
    lower = ((var - dv[:, None]) / reach[:, None] - tau[:, None]) / r2[:, None]
    return lower, (np.sqrt(total * (np.maximum(var.min(axis=1), 0.0) + dv)) + tau) / r2


def _first_least(group, vals):
    """Index of the first least of ``vals`` within each run of equal labels of the ascending ``group``."""
    return np.lexsort((vals, group))[np.flatnonzero(np.diff(group, prepend=-1))]


def _best_angle(pts, w, r, thetas):
    """The angle of ``thetas`` with the lowest planar beta1 objective on one ball: (angle, value, offset)."""
    one = np.zeros(len(thetas), np.intp)
    m = np.array([len(pts)])
    vals, c, _ = _planar_values(pts.T[:, None], w[None], m, np.array([r * r]), one, thetas)
    k = int(np.argmin(vals))
    return float(thetas[k]), float(vals[k]), float(c[k])


def _planar_refine(pts, w, ptr, r, theta0):
    """Planar beta1 of every ball of a CSR batch (points pts[ptr[b]:ptr[b + 1]], radius r[b]) from its
    PCA angle theta0[b]: (values, angles, offsets). Balls go in power-of-two classes of their point
    counts (``_planar_lockstep``), so a class pads to fewer than twice its points, however the batch
    mixes small and large balls."""
    m = np.diff(ptr)
    size = np.frexp(m)[1]
    out = np.empty((3, len(m)))
    for c in np.unique(size):
        b = np.flatnonzero(size == c)
        out[:, b] = _planar_lockstep(pts, w, ptr[b], m[b], r[b], theta0[b])
    return tuple(out)


def _planar_lockstep(pts, w, start, m, r, theta0):
    """``_planar_refine`` on the balls of points pts[start[b]:start[b] + m[b]]. Each ball scores the
    ones that its ``_start_bounds`` keep (a dropped angle scores above the least) of 64 distinct
    start angles: theta0[b] first, so it wins ties, then theta0[b] plus the 63 nonzero steps of
    pi/64 in (-pi/2, pi/2). It then turns exactly (``_sweep``) about the weighted-median point and
    its two neighbours along the normal while the value strictly falls (an optimal L1 line passes
    through a weighted median). A pivot's turn depends on the pivot alone and scored no lower than
    the current value when it was first swept, so only new pivots are turned, and a ball stops when
    none is new. The balls go in lockstep on a ``_padded`` layout: one ``_sweep`` turns every active
    ball's new pivots and one ``_planar_values`` call scores the turns and gives each row's pivots
    from the sort that scored it, so the next step turns about the pivots of each ball's best row.
    Pads change no bit there (both sort stably), the scoring sort puts them last so they never
    pivot, and each ball takes the first least of its own rows, so a ball's result does not depend
    on the rest of its batch."""
    xy, w = _padded(pts, w, start, m)
    r2 = r * r
    fan = np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)
    thetas = np.c_[theta0, theta0[:, None] + fan[fan != 0.0]]
    lower, upper = _start_bounds(xy, w, m, r2, thetas)
    ball, k = np.nonzero(lower <= upper[:, None])
    kept = thetas[ball, k]
    # no call scores more entries than the largest one-ball grid of kept rows: a batch peaks as one ball
    step = max(1, int((np.bincount(ball, minlength=len(m)) * m).max()) // xy.shape[2])
    parts = range(0, len(ball), step)
    scored = [_planar_values(xy, w, m, r2, ball[i : i + step], kept[i : i + step]) for i in parts]
    vals, offs, pivots = (np.concatenate(part) for part in zip(*scored))
    first = _first_least(ball, vals)
    theta, best, c, piv = kept[first], vals[first], offs[first], pivots[first]
    swept, live = np.zeros(w.shape, bool), np.arange(len(m))
    for _ in range(REFINE_ITERATIONS):
        row, j = np.nonzero((piv >= 0) & ~swept[live[:, None], piv])
        if not len(row):
            break
        ball, piv = live[row], piv[row, j]
        swept[ball, piv] = True
        t = _sweep(*(x[ball] - x[ball, piv][:, None] for x in (xy[1], xy[0])), w[ball], "stable")[0]
        vals, offs, pivots = _planar_values(xy, w, m, r2, ball, t)
        first = _first_least(ball, vals)
        first = first[vals[first] < best[ball[first]]]
        live, piv = ball[first], pivots[first]
        theta[live], best[live], c[live] = t[first], vals[first], offs[first]
    return best, theta, c


def _pivot_oracle(pts, w, r):
    """Exact planar beta1 (angle, value, offset): an optimal L1 line passes through two data
    points, so the best of every pivot's exact turn is the minimum. Pivots go in chunks that
    keep each array near 2^18 entries."""
    rels = (pts - piv[:, None] for piv in np.array_split(pts, 1 + len(pts) ** 2 // 2**18))
    turns = (_best_angle(pts, w, r, _sweep(rel[..., 1], rel[..., 0], w)[0]) for rel in rels)
    return min(turns, key=lambda turn: turn[1])


def _half_width(xy):
    """(unit normal, half width) of the narrowest strip holding the points xy (m x 2). The width
    is least across some convex-hull edge (Houle & Toussaint, IEEE PAMI 10, 1988), where it is the
    hull's extent along the edge normal, from the edge's ends to the farthest vertex. That vertex
    starts the first edge turned at least pi from the edge, found by binary search over the edge
    angles, which rise once around the counterclockwise hull (an angle that rounds across a tie
    picks an equally far vertex). Collinear or coincident points have no 2-D hull; the segment from
    xy[0] to the farthest point stands in."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        v = xy[ConvexHull(xy).vertices]
    except QhullError:
        v = xy[[0, int(np.argmax(_row_norms(xy - xy[0])))]]
    e = np.roll(v, -1, axis=0) - v
    if not e.any():  # coincident points
        return np.array([0.0, 1.0]), 0.0
    normals = np.c_[-e[:, 1], e[:, 0]] / np.hypot(e[:, 0], e[:, 1])[:, None]
    edge, angle = np.arange(len(v)), np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    far = np.searchsorted(np.r_[angle, angle + 2.0 * np.pi], angle + np.pi)
    near = np.c_[edge, edge + 1, far] % len(v)
    extent = (v[near] @ normals[:, :, None])[..., 0]
    width = extent.max(axis=1) - extent.min(axis=1)
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
    come from one ``_pca_frames`` call, its pca values from segment sums (sup: maxima), and its
    pca results from one pass over them. A batch's refined planar beta1 balls go through one
    ``_planar_refine`` call on the same selection; degenerate balls, the other refined balls and
    the oracle go one at a time. A whole-cloud ball, whose live selection is every live point of
    the cloud, is fitted only if it is the call's first of its radius; each later one gets its
    own result with that fit's value, method and flag and copies of its arrays. A fit reads the
    live points, their weights and the radius, not the centre, and a ball's fit does not depend
    on its batch, so the copy is what fitting the ball would give, bit for bit."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n, d = cloud.n, cloud.d
    if method == "grid_oracle" and (d, n) != (2, 1):
        raise ValueError("grid_oracle is only available for planar clouds with n=1")
    out, first_whole, live_points = [], {}, np.count_nonzero(cloud.weights > 0)
    for lo, indptr, idx in _ball_batches(cloud, centers, radii):
        r, live = radii[lo : lo + len(indptr) - 1], cloud.weights[idx] > 0
        seg, idx = np.repeat(np.arange(len(r)), np.diff(indptr))[live], idx[live]
        counts = np.bincount(seg, minlength=len(r))
        if not counts.all():
            b = int(np.argmin(counts))  # the first ball left without live points
            if indptr[b] == indptr[b + 1]:
                raise ValueError("the ball does not meet the cloud")
            raise ValueError("the ball holds only zero-weight points, outside the measure's support")
        at = len(out) + np.arange(len(r))  # the balls' positions in out
        source = at.copy()  # the position of the fit each ball takes
        for b in np.flatnonzero(counts == live_points).tolist():
            source[b] = first_whole.setdefault(float(r[b]), at[b])
        own, full = source == at, counts >= n + 2
        fitted, ptr, batch = own & full, np.concatenate(([0], counts.cumsum())), np.empty(len(r), object)
        kth = np.cumsum(fitted) - 1  # ball b's row in the pca fit
        if method != "grid_oracle" and fitted.any():
            fit, fptr = idx[fitted[seg]], np.concatenate(([0], counts[fitted].cumsum()))
            pts, w = cloud.points.take(fit, axis=0), cloud.weights.take(fit)
            frames, normals, means, dist = _pca_frames(pts, w, fptr, n)
            if method == "pca":
                if sup:
                    values = np.maximum.reduceat(dist, fptr[:-1]) / r[fitted]
                else:
                    values = np.add.reduceat(w * dist, fptr[:-1]) / r[fitted] ** (n + 1)
                batch[fitted] = [BetaResult(v, f, p, method) for v, f, p in zip(values.tolist(), frames, means)]
            elif (d, n) == (2, 1) and not sup:
                theta0 = np.arctan2(frames[:, 1, 0], frames[:, 0, 0])
                fits = zip(*(a.tolist() for a in _planar_refine(pts, w, fptr, r[fitted], theta0)))
                batch[fitted] = [BetaResult(v, *_plane_from_angle(t, c), method) for v, t, c in fits]
        for b in [b for b in np.flatnonzero(own).tolist() if batch[b] is None]:
            sel, k = idx[ptr[b] : ptr[b + 1]], kth[b]
            pts, w = cloud.points[sel], cloud.weights[sel]
            if not full[b]:
                batch[b] = BetaResult(0.0, np.eye(d, n), pts[0], method, degenerate=True)
            elif d == 2 and n == 1:
                if sup:
                    normal, half = _half_width(pts)
                    theta, val, c = math.atan2(-normal[0], normal[1]), half / r[b], _best_offset(pts @ normal, w, True)
                else:
                    theta, val, c = _pivot_oracle(pts, w, r[b])
                batch[b] = BetaResult(val, *_plane_from_angle(theta, c), method)
            else:
                batch[b] = BetaResult(*_general_refine(pts, w, r[b], n, sup, frames[k], normals[k], means[k]), method)
        out.extend(batch.tolist())
        for i, j in zip(at[~own].tolist(), source[~own].tolist()):
            res = out[j]
            out[i] = BetaResult(res.value, res.basis.copy(), res.point.copy(), res.method, res.degenerate)
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
    """CSV rows in key order, the bytes ``csv.writer`` writes: level, cell index, value, method,
    plane parameters: the basis, row-major, and the canonical anchor, written from each result's
    arrays and its own ``_canonical_anchor`` without building its ``AffinePlane``. The floats are
    formatted _ROW_CHUNK results at a time, and each distinct method is quoted once."""
    items = sorted(betas.items())
    line = csv.writer(types.SimpleNamespace(write=str)).writerow  # returns the line it writes
    methods = {m: line([m, ""])[:-3] for m in {res.method for _, res in items}}  # less the ",\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(line(["level", "cell_index", which, "method", "plane_direction", "plane_anchor"]))
        for lo in range(0, len(items), _ROW_CHUNK):
            chunk = items[lo:lo + _ROW_CHUNK]
            values = _reprs(np.array([res.value for _, res in chunk]))
            planes = [a for _, res in chunk for a in (res.basis, _canonical_anchor(res.basis, res.point))]
            texts = iter(_reprs(np.concatenate(planes, axis=None, dtype=float)))  # in order: basis, then anchor
            fh.writelines(
                f"{level},{' '.join(map(str, cell))},{value},{methods[res.method]},"
                f"{' '.join(islice(texts, res.basis.size))},{' '.join(islice(texts, res.point.size))}\r\n"
                for ((level, cell), res), value in zip(chunk, values)
            )
