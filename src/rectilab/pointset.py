"""Weighted point clouds standing in for n-regular sets.

A cloud is a finite list of weighted points approximating n-dimensional
Hausdorff measure on a set at a declared resolution. Generators are
deterministic; every measure-like query (projection measure, ball mass,
regularity constant) is a grid or ball count at a declared scale, so all
statements about clouds are scale-indexed and reproducible.

Ball queries go through ``RegularCloud.balls_indices`` (many balls, one
query of one lazily built k-d tree per cloud, then the exact ``Ball.contains``
test; ``ball_indices`` is its one-ball call), so a cloud must not be mutated
in place; ``dilated``, ``rotated`` and ``dataclasses.replace`` make new clouds
with fresh trees. Scans over many balls select them in runs of about
BALL_CHUNK (ball, point) pairs, and ``_pca_frames`` fits every ball of a run
at once. Per-ball routines select a ball's points once per call:
``pbp_margin`` selects once, fits its PCA candidate once and counts every
sampled direction's shadow on that selection, with ``projection_measure``
as the per-call reference for one shadow.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .grassmann import GrassmannBall, Subspace, sample_haar, sample_in_ball

# (ball, point) pairs that ``_ball_batches`` selects at once; bounds the memory of a batched scan
BALL_CHUNK = 4096
# rows that a file writer formats at once; bounds the memory of its text
_ROW_CHUNK = 256


class LipschitzViolationError(ValueError):
    def __init__(self, bound, observed, witness):
        self.bound = bound
        self.observed = observed
        self.witness = witness
        super().__init__(
            f"empirical Lipschitz constant {observed:.4g} exceeds the declared {bound:.4g} "
            f"between grid points {witness[0]} and {witness[1]}"
        )


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1 or not np.all(np.isfinite(self.center)):
            raise ValueError(f"ball center must be one finite point, a 1-D array, got {self.center}")
        if not (0.0 <= self.radius < math.inf):
            raise ValueError(f"ball radius must be finite and nonnegative, got {self.radius}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _row_norms(pts - self.center) <= self.radius


@dataclass(frozen=True, eq=False)
class RegularCloud:
    """Weighted points approximating H^n on a set at a stated resolution.

    Invariants (checked on construction unless ``validate=False``): an integer
    n with 0 < n < d, finite positive resolution and density_constant, one
    weight per point (a 1-D array), finite points, total weight positive and
    finite, no two points closer than resolution/4, and every weight inside
    [resolution^n / density_constant, density_constant * resolution^n].
    The parameters are checked before the k-d tree is built.

    The cloud owns one lazily built k-d tree over ``points`` (the spacing
    check builds it), so its arrays must not be mutated in place.
    """

    points: np.ndarray
    weights: np.ndarray
    n: int
    resolution: float
    density_constant: float = 8.0
    generator: str = "custom"
    params: dict = field(default_factory=dict)
    validate: bool = True

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if self.validate:
            self._check()

    def _check(self):
        if self.weights.shape != self.points.shape[:1]:
            raise ValueError(f"weights of shape {self.weights.shape} for {len(self.points)} points; need one per point")
        _check_count("n", self.n, 1)
        if self.n >= self.d:
            raise ValueError(f"n must be below the ambient dimension d = {self.d}, got {self.n}")
        _check_positive("resolution", self.resolution)
        _check_positive("density_constant", self.density_constant)
        bad = np.flatnonzero(~np.isfinite(self.points).all(axis=1))
        if bad.size:
            raise ValueError(f"point {bad[0]} is not finite: {self.points[bad[0]]}")
        total = float(self.weights.sum())
        if not (0.0 < total < math.inf):
            raise ValueError("total weight must be finite and positive")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        lo = self.resolution**self.n / self.density_constant
        hi = self.density_constant * self.resolution**self.n
        live = self.weights[self.weights > 0]
        if live.size and (live.min() < lo - 1e-15 or live.max() > hi + 1e-15):
            raise ValueError(
                f"weights outside the uniform-density band [{lo:.3g}, {hi:.3g}]"
            )
        pairs = self.tree.query_pairs(self.resolution / 4.0)
        if pairs:
            i, j = next(iter(pairs))
            raise ValueError(f"points {i} and {j} are closer than resolution/4")

    @cached_property
    def tree(self):
        """The cloud's ``scipy.spatial.cKDTree``; ask it for balls only through ``balls_indices``.
        ``scipy.spatial`` loads on the first access, at the separation check unless validate=False."""
        from scipy.spatial import cKDTree
        return cKDTree(self.points)

    def balls_indices(self, centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR pair list (indptr, idx) of the balls B(centers[b], radii[b]): ball b holds the
        ascending indices idx[indptr[b]:indptr[b + 1]] that ``Ball.contains`` accepts. One tree
        query asks for radii padded by a relative 1e-12; the exact test then filters its answer."""
        centers, radii = self._centres(centers), np.asarray(radii, dtype=float)
        near = self.tree.query_ball_point(centers, radii * (1.0 + 1e-12), return_sorted=False)
        counts = np.fromiter(map(len, near), np.intp, len(near))
        seg = np.repeat(np.arange(len(near)), counts)
        offset = seg * len(self.points)  # sorted ball-major keys hold each ball's indices ascending
        idx = np.sort(np.fromiter(itertools.chain.from_iterable(near), np.intp, len(seg)) + offset) - offset
        keep = _row_norms(self.points.take(idx, axis=0) - centers.take(seg, axis=0)) <= radii.take(seg)
        return np.r_[0, np.cumsum(np.bincount(seg[keep], minlength=len(near)))], idx[keep]

    def _centres(self, centers) -> np.ndarray:
        """Ball centres as rows; ValueError, before any tree query, unless they have the cloud's dimension."""
        centers = np.atleast_2d(centers)
        if centers.shape[1] != self.d:
            raise ValueError(f"ball centres of dimension {centers.shape[1]} in a cloud of dimension {self.d}")
        return centers

    def ball_indices(self, ball: Ball) -> np.ndarray:
        """Ascending indices of the points that ``Ball.contains`` accepts."""
        return self.balls_indices(ball.center, [ball.radius])[1]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def diameter(self) -> float:
        """The diagonal of the bounding box."""
        return float(np.linalg.norm(self.points.max(axis=0) - self.points.min(axis=0)))

    def ball_mass(self, ball: Ball) -> float:
        return float(self.weights[self.ball_indices(ball)].sum())

    def dilated(self, factor: float) -> "RegularCloud":
        return replace(self, points=self.points * factor, weights=self.weights * factor**self.n,
                       resolution=self.resolution * factor)

    def rotated(self, g: np.ndarray) -> "RegularCloud":
        return replace(self, points=self.points @ np.asarray(g, dtype=float).T)


@dataclass(frozen=True)
class RegularityReport:
    C0_estimate: float
    worst_ball: Ball
    samples: int

    def __post_init__(self):
        if self.C0_estimate < 1.0:
            raise ValueError("a regularity constant is always >= 1")


def four_corners(k: int) -> RegularCloud:
    """Generation-k four-corners Cantor cloud in the unit square.

    4^k points at the centres of the generation-k corner squares (side
    4^-k), each carrying weight 4^-k; total mass 1.
    """
    _check_count("k", k)
    if not 1 <= k <= 8:
        raise ValueError("generation k must be in 1..8")
    offsets = np.array([[0.0, 0.0]])
    for g in range(1, k + 1):
        step = 3.0 * 4.0**-g
        shifts = np.array([[0.0, 0.0], [step, 0.0], [0.0, step], [step, step]])
        offsets = (offsets[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    side = 4.0**-k
    centers = offsets + side / 2.0
    weights = np.full(len(centers), 4.0**-k)
    return RegularCloud(centers, weights, n=1, resolution=side, generator="four-corners", params={"k": k})


def hrycak(m: int) -> RegularCloud:
    """Iterated subdivide-and-rotate segment cloud with small projections.

    Starting from the unit segment, repeat m times: split every segment into
    m equal pieces and rotate each piece by 2*pi/m about its own left
    endpoint (rotations accumulate across stages, pieces keep their left
    endpoints). The result is m^m segments of length m^-m, sampled at their
    midpoints: m^m points of weight m^-m each.
    """
    _check_count("m", m)
    if not 2 <= m <= 5:
        raise ValueError("m must be in 2..5")
    angle_step = 2.0 * math.pi / m
    # segment = (start point, angle); all segments share a common length per stage
    starts = np.array([[0.0, 0.0]])
    angles = np.array([0.0])
    length = 1.0
    for _ in range(m):
        piece = length / m
        direction = np.column_stack([np.cos(angles), np.sin(angles)])
        starts = (starts[:, None, :] + direction[:, None, :] * (np.arange(m) * piece)[None, :, None]).reshape(-1, 2)
        angles, length = np.repeat(angles + angle_step, m), piece
    mids = starts + 0.5 * length * np.column_stack([np.cos(angles), np.sin(angles)])
    return RegularCloud(
        mids, np.full(len(mids), length), n=1, resolution=length,
        density_constant=2.0 * m**2, generator="hrycak", params={"m": m},
    )


def segment(resolution: float = 1e-3) -> RegularCloud:
    """Unit-density unit segment on the x-axis, sampled at cell centres."""
    _check_positive("resolution", resolution)
    cells = max(1, round(1.0 / resolution))
    h = 1.0 / cells
    xs = (np.arange(cells) + 0.5) * h
    pts = np.column_stack([xs, np.zeros(cells)])
    return RegularCloud(pts, np.full(cells, h), n=1, resolution=h, generator="segment", params={"length": 1.0})


def circle(resolution: float = 2e-3) -> RegularCloud:
    """Unit circle centred at the origin, arclength weights."""
    _check_positive("resolution", resolution)
    count = max(8, round(2.0 * math.pi / resolution))
    theta = 2.0 * math.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    h = 2.0 * math.pi / count
    return RegularCloud(pts, np.full(count, h), n=1, resolution=h, generator="circle", params={"radius": 1.0})


def lipschitz_graph_cloud(f, v: Subspace, lipschitz_bound: float, resolution: float) -> RegularCloud:
    """Cloud sampling the graph of ``f`` over the unit cube [0, 1]^n of ``v``.

    ``f`` maps n-vectors of v-coordinates to (d-n)-vectors of coordinates in
    a fixed orthonormal basis of the complement. Grid cells of side about
    ``resolution`` (at most 2/3, for two cells per axis; else ``ValueError``)
    tile the cube; each sample carries the graph area element of its cell,
    estimated from finite differences. The empirical Lipschitz constant over
    the grid is checked against the declared bound.
    """
    n, d = v.n, v.d
    comp = v.complement()
    cells = round(1.0 / resolution) if resolution > 0 else 0
    if cells < 2:
        raise ValueError(f"resolution {resolution} leaves fewer than 2 grid cells per axis of [0, 1]")
    step = 1.0 / cells
    ticks = (np.arange(cells) + 0.5) / cells  # cell centres along every axis
    mesh = np.meshgrid(*([ticks] * n), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, n)
    values = np.array([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in coords])
    if values.shape != (len(coords), d - n):
        raise ValueError(f"f must return d - n = {d - n} coordinates per point, got values of shape {values.shape[1:]}")

    vals_grid = values.reshape((cells,) * n + (d - n,))
    grad_sq = np.zeros(len(coords))
    worst = (0.0, None)
    for a in range(n):
        slopes = np.linalg.norm(np.diff(vals_grid, axis=a), axis=-1) / step
        idx = np.unravel_index(np.argmax(slopes), slopes.shape)
        if slopes[idx] > worst[0]:
            hi_idx = list(idx)
            hi_idx[a] += 1
            worst = (float(slopes[idx]), (ticks[list(idx)], ticks[hi_idx]))
        grad_sq += np.linalg.norm(np.gradient(vals_grid, ticks, axis=a), axis=-1).reshape(-1) ** 2
    if worst[0] > lipschitz_bound * (1.0 + 1e-9):
        raise LipschitzViolationError(lipschitz_bound, worst[0], worst[1])

    area = np.sqrt(1.0 + grad_sq) * math.prod([step] * n)
    pts = coords @ v.basis.T + values @ comp.basis.T
    density_c = max(8.0, 4.0 * math.sqrt(1.0 + lipschitz_bound**2) * (step / resolution) ** n)
    return RegularCloud(
        pts, area, n=n, resolution=resolution, density_constant=density_c,
        generator="graph", params={"lipschitz": lipschitz_bound},
    )


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows, their squares summed column by column (np.linalg.norm sums
    rows of under 8 entries in the same order, so it agrees there bit for bit, and is slower)."""
    return np.sqrt(functools.reduce(np.add, (diff * diff).T))


def _check_count(name: str, value, least: int | None = None):
    """ValueError unless ``value`` is an integer, not a bool, of at least ``least`` when it is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        raise ValueError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


def _check_positive(name: str, value):
    """ValueError unless ``value`` is finite and positive (NaN is not)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _ball_batches(cloud: RegularCloud, centers: np.ndarray, radii: np.ndarray, counts=None):
    """``balls_indices`` over runs of consecutive balls of about BALL_CHUNK pairs each, planned
    by the point counts at radii (1 + 1e-12), from a count-only tree query unless ``counts``
    holds them; yields (first ball of the run, indptr, idx)."""
    if counts is None:
        centers = cloud._centres(centers)  # before the tree is built
        counts = cloud.tree.query_ball_point(centers, radii * (1.0 + 1e-12), return_length=True)
    cum = np.cumsum(counts)
    cuts = np.searchsorted(cum, np.arange(BALL_CHUNK, cum[-1], BALL_CHUNK)) + 1
    for lo, hi in itertools.pairwise(np.unique(np.r_[0, cuts, len(cum)])):
        yield lo, *cloud.balls_indices(centers[lo:hi], radii[lo:hi])


def estimate_regularity(cloud: RegularCloud, trials: int, rng: np.random.Generator) -> RegularityReport:
    """Randomised scan for the n-regularity constant of a cloud.

    Samples centres from the cloud (weighted) and radii log-uniformly in
    [4 * resolution, diam]; the estimate is the worst ratio between ball
    mass and r^n in either direction, the first of equal ratios in draw
    order. Each centre has positive weight and lies in its own ball, so every
    mass is positive. Count-only queries at radii (1 -+ 1e-12) bound each
    mass below by max(centre weight, (inner count - zero-weight count) *
    least positive weight) and above by outer count * largest weight. The
    bar starts at the largest lower ratio bound, and a ball whose upper
    ratio bound is below it (less 1e-9 relative, for rounding) is beaten
    strictly, so it is never summed. The other balls are summed in
    ``_ball_batches`` runs, planned by the outer counts, in stably descending
    order of their upper bounds; after each run the bar rises to the worst
    ratio summed so far, and the scan stops before the first run whose
    leading upper bound is below the bar (less 1e-9). The runs are
    consecutive, so the summed balls are a prefix of that order, and the
    first of equal ratios is the least draw index among them. Every ball
    left unsummed is beaten strictly by a summed one, and each mass is one
    sum per ball, so the report is the one that summing every ball gives.
    """
    _check_count("trials", trials, 1)
    r_lo = 4.0 * cloud.resolution
    r_hi = max(cloud.diameter, r_lo * (1.0 + 1e-9))
    idx = rng.choice(len(cloud.points), size=trials, p=cloud.weights / cloud.total_weight)
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=trials))
    centers, w, rn = cloud.points[idx], cloud.weights, radii**cloud.n
    near = [cloud.tree.query_ball_point(centers, radii * f, return_length=True) for f in (1 - 1e-12, 1 + 1e-12)]
    live = w > 0
    lo = np.maximum(w[idx], (near[0] - np.count_nonzero(~live)) * w[live].min())
    hi, slack = near[1] * w.max(), 1.0 - 1e-9
    upper, bar = np.maximum(hi / rn, rn / lo), np.maximum(lo / rn, rn / hi).max()
    keep = np.flatnonzero(upper >= bar * slack)
    keep = keep[np.argsort(-upper[keep], kind="stable")]
    ratios = []
    for first, ptr, sel in _ball_batches(cloud, centers[keep], radii[keep], near[1][keep]):
        run = keep[first : first + len(ptr) - 1]
        # one sum per ball, not np.add.reduceat: a ball's mass rounds as ball_mass rounds it
        masses = np.array([part.sum() for part in np.split(w[sel], ptr[1:-1])])
        ratios.append(np.maximum(masses / rn[run], rn[run] / masses))
        bar = max(bar, ratios[-1].max())
        if first + len(run) == len(keep) or upper[keep[first + len(run)]] < bar * slack:
            break
    ratios = np.concatenate(ratios)  # the runs are consecutive: the balls keep[:len(ratios)]
    worst = ratios.max()
    k = keep[: len(ratios)][ratios == worst].min()  # the first of equal ratios; ball 0 when none exceeds 1
    worst, k = (float(worst), k) if worst > 1.0 else (1.0, 0)
    return RegularityReport(C0_estimate=worst, worst_ball=Ball(centers[k], float(radii[k])), samples=trials)


def projection_measure(
    cloud: RegularCloud, v: Subspace, ball: Ball, grid_resolution: float
) -> float:
    """Outer estimate of the measure of the shadow of ``cloud ∩ ball`` on ``v``.

    Projects the in-ball points of positive weight (zero-weight points lie
    outside the measure's support) to v-coordinates, bins them into half-open
    grid cells of side ``grid_resolution``, and returns occupied cells times
    cell volume. This is the one-call reference for the shadows that
    ``pbp_margin`` counts on one selection of the ball.
    """
    if grid_resolution < cloud.resolution:
        raise ValueError("grid_resolution must be at least the cloud resolution")
    idx = cloud.ball_indices(ball)
    return _shadow(cloud.points[idx[cloud.weights[idx] > 0]], v.basis, grid_resolution)


def _shadow(pts: np.ndarray, basis: np.ndarray, g: float) -> float:
    """Occupied half-open grid cells of side g in the coordinates of pts @ basis, times g^n."""
    cells = np.floor(pts @ basis / g).astype(np.int64)
    # distinct rows after a lexicographic sort; np.unique(axis=0) is ~10x slower
    cells = cells[np.lexsort(cells.T)]
    occupied = np.count_nonzero(np.any(cells[1:] != cells[:-1], axis=1)) + min(len(cells), 1)
    return float(occupied) * g ** basis.shape[1]


def _pca_frames(pts: np.ndarray, w: np.ndarray, indptr: np.ndarray, n: int):
    """Weighted PCA of every non-empty CSR segment pts[indptr[b]:indptr[b + 1]]: the top-n and
    remaining axes, (B, d, n) and (B, d, d - n), the means (B, d) and every point's distance to
    its segment's plane, from segment sums of the centred points and one stacked ``eigh``."""
    seg = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    starts, cols = indptr[:-1], pts.T  # coordinate-major sums run along contiguous rows
    mean = np.add.reduceat(cols * w, starts, axis=1) / np.add.reduceat(w, starts)
    centered = cols - mean.take(seg, axis=1)
    cov = np.add.reduceat((centered * w)[:, None] * centered, starts, axis=2)
    vecs = np.linalg.eigh(cov.transpose(2, 0, 1))[1][:, :, ::-1]  # eigh sorts ascending
    dist = _row_norms(np.einsum("dm,mdk->mk", centered, vecs[:, :, n:].take(seg, axis=0)))
    return vecs[:, :, :n], vecs[:, :, n:], mean.T, dist


def _pca_frame(pts: np.ndarray, w: np.ndarray, n: int):
    """``_pca_frames`` of one segment: the top-n and remaining principal axes, and the mean."""
    frame, normals, mean, _ = _pca_frames(pts, w, np.array([0, len(pts)]), n)
    return frame[0], normals[0], mean[0]


def pbp_margin(
    cloud: RegularCloud,
    ball: Ball,
    delta: float,
    n_directions: int,
    rng: np.random.Generator,
    n_candidates: int = 8,
    grid_resolution: float | None = None,
) -> tuple[Subspace, float]:
    """Best plenty-of-big-projections margin over sampled centre planes.

    For each candidate centre V0 (the weighted PCA plane first, then Haar
    samples), the margin is
    ``min over n_directions samples V in B(V0, delta) of shadow/r^n - delta``.
    Returns the candidate with the largest margin. A margin >= 0 certifies
    PBP on the ball at the sampled directions: every sampled V in
    B(V0, delta) has shadow at least delta r^n. A negative margin means no
    candidate did. The ball's points are selected once per call, and only
    those of positive weight count: the PCA plane is theirs (the axis plane
    when there are at most n), and each shadow equals
    ``projection_measure(cloud, V, ball, grid_resolution)``.
    Each candidate's directions are one ``sample_in_ball`` batch (the law is
    stated there; Haar planes for delta >= 1), scored in order until the
    margin falls below the best so far. Their bases are fixed by the plane
    V0, so the margin depends on the candidate planes, not on their bases.
    """
    _check_count("n_directions", n_directions, 16)
    _check_count("n_candidates", n_candidates, 1)
    g = grid_resolution if grid_resolution is not None else cloud.resolution
    if g < cloud.resolution:
        raise ValueError("grid_resolution must be at least the cloud resolution")
    n = cloud.n
    idx = cloud.ball_indices(ball)
    idx = idx[cloud.weights[idx] > 0]  # the measure's support
    pts = cloud.points[idx]
    if len(idx) <= n:
        candidates = [Subspace.axis(cloud.d, *range(n))]
    else:
        candidates = [Subspace(_pca_frame(pts, cloud.weights[idx], n)[0])]
    candidates += [sample_haar(cloud.d, n, rng) for _ in range(n_candidates - 1)]
    best_v0, best_margin = candidates[0], -math.inf
    rn = ball.radius**n
    for v0 in candidates:
        margin = math.inf
        for basis in sample_in_ball(GrassmannBall(v0, delta), rng, n_directions):
            margin = min(margin, _shadow(pts, basis, g) / rn - delta)
            if margin < best_margin:
                break
        if margin > best_margin:
            best_v0, best_margin = v0, margin
    return best_v0, float(best_margin)


def graph_overlap(cloud: RegularCloud, graph_cloud: RegularCloud, ball: Ball) -> float:
    """Weight of in-ball cloud points lying on the graph cloud, at matched scale.

    The matching tolerance is twice the coarser of the two resolutions.
    """
    if cloud.d != graph_cloud.d:
        raise ValueError("clouds must share the ambient dimension")
    tol = 2.0 * max(cloud.resolution, graph_cloud.resolution)
    idx = cloud.ball_indices(ball)
    dist, _ = graph_cloud.tree.query(cloud.points[idx], k=1)
    return float(cloud.weights[idx][dist <= tol].sum())


def _reprs(a: np.ndarray, dumps=repr) -> list:
    """``a.tolist()`` of a float64 array with each float replaced by its text in ``dumps`` of a
    list: ``repr``, the shortest round-trip form, or ``json.dumps``. Each distinct bit pattern is
    formatted once, in one ``dumps`` call, so -0.0 keeps its sign."""
    bits, inv = np.unique(np.ravel(a).view(np.int64), return_inverse=True)
    texts = dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inv].reshape(np.shape(a)).tolist()


def save_cloud(cloud: RegularCloud, path: str | Path, seed: int | None = None):
    """CSV with header x1..xd,weight plus a JSON sidecar of the metadata, numpy scalars written
    as the Python scalars they hold. The sidecar's text is made first, so a metadata value that
    JSON cannot hold raises TypeError, and weights that are not one per point (an unvalidated
    cloud) raise ValueError, before either file is written."""
    path = Path(path)
    if cloud.weights.shape != cloud.points.shape[:1]:
        raise ValueError(f"weights of shape {cloud.weights.shape} for {len(cloud.points)} points; need one per point")
    meta = {"n": cloud.n, "resolution": cloud.resolution, "generator": cloud.generator,
            "params": cloud.params, "seed": seed, "density_constant": cloud.density_constant}
    sidecar = json.dumps(meta, indent=2, sort_keys=True, default=np.generic.item)
    # _ROW_CHUNK rows at a time, so neither a table nor a text of the whole cloud is held; repr
    # is the shortest round-trip form of each float, so loading is exact
    with open(path, "w") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(cloud.d)] + ["weight"]) + "\r\n")
        for lo in range(0, len(cloud.points), _ROW_CHUNK):
            rows = np.column_stack([cloud.points[lo:lo + _ROW_CHUNK], cloud.weights[lo:lo + _ROW_CHUNK]])
            fh.write("\r\n".join(map(",".join, _reprs(rows))) + "\r\n")
    path.with_suffix(path.suffix + ".json").write_text(sidecar)


def load_cloud(path: str | Path) -> RegularCloud:
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        meta = json.load(fh)
    return RegularCloud(
        data[:, :-1],
        data[:, -1],
        n=meta["n"],
        resolution=meta["resolution"],
        density_constant=meta.get("density_constant", 8.0),
        generator=meta.get("generator", "file"),
        params=meta.get("params", {}),
    )
