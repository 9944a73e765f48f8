"""Weighted point clouds standing in for n-regular sets.

A cloud is a finite list of weighted points approximating n-dimensional
Hausdorff measure on a set at a declared resolution. Generators are
deterministic; every measure-like query (projection measure, ball mass,
regularity constant) is a grid or ball count at a declared scale, so all
statements about clouds are scale-indexed and reproducible.

Ball queries go through ``RegularCloud.ball_indices`` and one lazily built
k-d tree per cloud, so a cloud must not be mutated in place; ``dilated``,
``rotated`` and ``dataclasses.replace`` make new clouds with fresh trees.
Per-ball routines select a ball's points once per call: ``pbp_margin``
selects once, fits its PCA candidate once and counts every sampled
direction's shadow on that selection, with ``projection_measure`` as the
per-call reference for one shadow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .grassmann import GrassmannBall, Subspace, sample_haar, sample_in_ball


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
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"ball center must be finite, got {self.center}")
        if not (0.0 <= self.radius < math.inf):
            raise ValueError(f"ball radius must be finite and nonnegative, got {self.radius}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius


@dataclass(frozen=True, eq=False)
class RegularCloud:
    """Weighted points approximating H^n on a set at a stated resolution.

    Invariants (checked on construction unless ``validate=False``): finite
    points, total weight positive and finite, no two points closer than
    resolution/4, and every weight inside
    [resolution^n / density_constant, density_constant * resolution^n].

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
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
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
    def tree(self) -> cKDTree:
        """The cloud's k-d tree; ask it for balls only through ``ball_indices``."""
        return cKDTree(self.points)

    def ball_indices(self, ball: Ball) -> np.ndarray:
        """Ascending indices of the points that ``Ball.contains`` accepts.

        The tree is asked for a radius padded by a relative 1e-12; the exact
        test then filters its answer.
        """
        near = self.tree.query_ball_point(ball.center, ball.radius * (1.0 + 1e-12), return_sorted=True)
        near = np.asarray(near, dtype=np.intp)
        return near[ball.contains(self.points[near])]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box
        return float(np.linalg.norm(hi - lo))

    def ball_mass(self, ball: Ball) -> float:
        return float(self.weights[self.ball_indices(ball)].sum())

    def enclosing_ball(self, factor: float = 1.0) -> Ball:
        lo, hi = self.bounding_box
        center = (lo + hi) / 2.0
        return Ball(center, factor * max(self.diameter / 2.0, self.resolution))

    def dilated(self, factor: float) -> "RegularCloud":
        return replace(
            self,
            points=self.points * factor,
            weights=self.weights * factor**self.n,
            resolution=self.resolution * factor,
        )

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
    return RegularCloud(
        centers, weights, n=1, resolution=side, generator="four-corners", params={"k": k}
    )


def hrycak(m: int) -> RegularCloud:
    """Iterated subdivide-and-rotate segment cloud with small projections.

    Starting from the unit segment, repeat m times: split every segment into
    m equal pieces and rotate each piece by 2*pi/m about its own left
    endpoint (rotations accumulate across stages, pieces keep their left
    endpoints). The result is m^m segments of length m^-m, sampled at their
    midpoints: m^m points of weight m^-m each.
    """
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
        new_starts = (
            starts[:, None, :] + direction[:, None, :] * (np.arange(m) * piece)[None, :, None]
        ).reshape(-1, 2)
        new_angles = np.repeat(angles + angle_step, m)
        starts, angles, length = new_starts, new_angles, piece
    mids = starts + 0.5 * length * np.column_stack([np.cos(angles), np.sin(angles)])
    return RegularCloud(
        mids, np.full(len(mids), length), n=1, resolution=length,
        density_constant=2.0 * m**2, generator="hrycak", params={"m": m},
    )


def segment(resolution: float = 1e-3, length: float = 1.0) -> RegularCloud:
    """Unit-density segment on the x-axis, sampled at cell centres."""
    cells = max(1, round(length / resolution))
    h = length / cells
    xs = (np.arange(cells) + 0.5) * h
    pts = np.column_stack([xs, np.zeros(cells)])
    return RegularCloud(
        pts, np.full(cells, h), n=1, resolution=h,
        generator="segment", params={"length": length},
    )


def circle(resolution: float = 2e-3, radius: float = 1.0) -> RegularCloud:
    """Circle of the given radius centred at the origin, arclength weights."""
    count = max(8, round(2.0 * math.pi * radius / resolution))
    theta = 2.0 * math.pi * np.arange(count) / count
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    h = 2.0 * math.pi * radius / count
    return RegularCloud(
        pts, np.full(count, h), n=1, resolution=h,
        generator="circle", params={"radius": radius},
    )


def lipschitz_graph_cloud(
    f,
    v: Subspace,
    lipschitz_bound: float,
    resolution: float,
    box: tuple[float, float] | np.ndarray = (0.0, 1.0),
) -> RegularCloud:
    """Cloud sampling the graph of ``f`` over the subspace ``v``.

    ``f`` maps n-vectors of v-coordinates to (d-n)-vectors of coordinates in
    a fixed orthonormal basis of the complement. Grid cells of side
    ``resolution`` tile the coordinate box; each sample carries the graph
    area element of its cell, estimated from finite differences. The
    empirical Lipschitz constant over the grid is checked against the
    declared bound.
    """
    n, d = v.n, v.d
    comp = v.complement()
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (n, 1))
    cells = [max(1, round((hi - lo) / resolution)) for lo, hi in box]
    axes = [(lo + (np.arange(c) + 0.5) * (hi - lo) / c) for (lo, hi), c in zip(box, cells)]
    steps = [(hi - lo) / c for (lo, hi), c in zip(box, cells)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, n)
    values = np.array([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in coords])

    grid_shape = tuple(cells)
    vals_grid = values.reshape(grid_shape + (d - n,))
    grads = []
    worst = (0.0, None)
    for axis in range(n):
        diff = np.diff(vals_grid, axis=axis)
        slopes = np.linalg.norm(diff, axis=-1) / steps[axis]
        if slopes.size:
            idx = np.unravel_index(np.argmax(slopes), slopes.shape)
            if slopes[idx] > worst[0]:
                lo_idx = list(idx)
                hi_idx = list(idx)
                hi_idx[axis] += 1
                worst = (
                    float(slopes[idx]),
                    (
                        np.array([axes[a][lo_idx[a]] for a in range(n)]),
                        np.array([axes[a][hi_idx[a]] for a in range(n)]),
                    ),
                )
        grad = np.gradient(vals_grid, axes[axis], axis=axis)
        grads.append(np.linalg.norm(np.atleast_1d(grad), axis=-1).reshape(-1))
    if worst[0] > lipschitz_bound * (1.0 + 1e-9):
        raise LipschitzViolationError(lipschitz_bound, worst[0], worst[1])

    grad_sq = np.zeros(len(coords))
    for g in grads:
        grad_sq += g**2
    cell_volume = float(np.prod(steps))
    area = np.sqrt(1.0 + grad_sq) * cell_volume
    pts = coords @ v.basis.T + values @ comp.basis.T
    density_c = max(8.0, 4.0 * math.sqrt(1.0 + lipschitz_bound**2) * (max(steps) / resolution) ** n)
    return RegularCloud(
        pts, area, n=n, resolution=resolution, density_constant=density_c,
        generator="graph", params={"lipschitz": lipschitz_bound},
    )


def estimate_regularity(cloud: RegularCloud, trials: int, rng: np.random.Generator) -> RegularityReport:
    """Randomised scan for the n-regularity constant of a cloud.

    Samples centres from the cloud (weighted) and radii log-uniformly in
    [4 * resolution, diam]; the estimate is the worst ratio between ball
    mass and r^n in either direction. Each centre has positive weight and
    lies in its own ball, so every ball mass is positive.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r_lo = 4.0 * cloud.resolution
    r_hi = max(cloud.diameter, r_lo * (1.0 + 1e-9))
    prob = cloud.weights / cloud.total_weight
    idx = rng.choice(len(cloud.points), size=trials, p=prob)
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=trials))
    worst, worst_ball = 1.0, Ball(cloud.points[idx[0]], radii[0])
    for i, r in zip(idx, radii):
        center = cloud.points[i]
        # radii are random, so no point lies on a sphere and the tree's test suffices
        mass = float(cloud.weights[cloud.tree.query_ball_point(center, r)].sum())
        ratio = max(mass / r**cloud.n, r**cloud.n / mass)
        if ratio > worst:
            worst, worst_ball = ratio, Ball(center, float(r))
    return RegularityReport(C0_estimate=worst, worst_ball=worst_ball, samples=trials)


def projection_measure(
    cloud: RegularCloud, v: Subspace, ball: Ball, grid_resolution: float
) -> float:
    """Outer estimate of the measure of the shadow of ``cloud ∩ ball`` on ``v``.

    Projects the in-ball points to v-coordinates, bins them into half-open
    grid cells of side ``grid_resolution``, and returns occupied cells times
    cell volume. This is the one-call reference for the shadows that
    ``pbp_margin`` counts on one selection of the ball.
    """
    if grid_resolution < cloud.resolution:
        raise ValueError("grid_resolution must be at least the cloud resolution")
    return _shadow(cloud.points[cloud.ball_indices(ball)], v, grid_resolution)


def _shadow(pts: np.ndarray, v: Subspace, g: float) -> float:
    """Occupied half-open grid cells of side g under the projection of pts to v, times g^n."""
    cells = np.floor(pts @ v.basis / g).astype(np.int64)
    # distinct rows after a lexicographic sort; np.unique(axis=0) is ~10x slower
    cells = cells[np.lexsort(cells.T)]
    occupied = np.count_nonzero(np.any(cells[1:] != cells[:-1], axis=1)) + min(len(cells), 1)
    return float(occupied) * g**v.n


def _pca_frame(pts: np.ndarray, w: np.ndarray, n: int):
    """Weighted PCA: the top-n and remaining principal axes, and the weighted mean."""
    mean = np.average(pts, axis=0, weights=w)
    centered = pts - mean
    cov = (w[:, None] * centered).T @ centered
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    frame = vecs[:, order[:n]]
    normals = vecs[:, order[n:]]
    return frame, normals, mean


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
    candidate did. The ball's points are selected once per call; each
    shadow equals ``projection_measure(cloud, V, ball, grid_resolution)``.
    """
    if n_directions < 16:
        raise ValueError("n_directions must be >= 16")
    g = grid_resolution if grid_resolution is not None else cloud.resolution
    if g < cloud.resolution:
        raise ValueError("grid_resolution must be at least the cloud resolution")
    n = cloud.n
    idx = cloud.ball_indices(ball)
    pts = cloud.points[idx]
    if len(idx) <= n:
        candidates = [Subspace.axis(cloud.d, *range(n))]
    else:
        candidates = [Subspace(_pca_frame(pts, cloud.weights[idx], n)[0])]
    candidates += [sample_haar(cloud.d, n, rng) for _ in range(n_candidates - 1)]
    best_v0, best_margin = candidates[0], -math.inf
    rn = ball.radius**n
    for v0 in candidates:
        gball = GrassmannBall(v0, delta)
        margin = math.inf
        for _ in range(n_directions):
            v = sample_in_ball(gball, rng)
            margin = min(margin, _shadow(pts, v, g) / rn - delta)
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


def save_cloud(cloud: RegularCloud, path: str | Path, seed: int | None = None):
    """CSV with header x1..xd,weight plus a JSON sidecar of the metadata."""
    path = Path(path)
    header = ",".join([f"x{i + 1}" for i in range(cloud.d)] + ["weight"])
    # "%s" writes each float64 as its shortest round-trip repr, so loading is exact
    np.savetxt(
        path, np.column_stack([cloud.points, cloud.weights]), fmt="%s", delimiter=",",
        header=header, comments="", newline="\r\n",
    )
    sidecar = {
        "n": cloud.n,
        "resolution": cloud.resolution,
        "generator": cloud.generator,
        "params": cloud.params,
        "seed": seed,
        "density_constant": cloud.density_constant,
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


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
