"""Weighted-ball stopping algorithm on shifted dyadic systems.

Everything is evaluated on a regular grid over the unit cube at a declared
depth, so integrals are finite sums and every claimed inequality is an exact
finite assertion. The pieces: a family of 2^d one-third-shifted dyadic cube
systems such that every ball has a containing cube of comparable volume, a
weight profile transferring ball weights to cubes, the centred
Hardy-Littlewood maximal function with dyadic radii, and the stopping
recursion that extracts disjoint cubes carrying a definite fraction of the
high-level mass at high density.

``maximal_function`` takes one FFT convolution per radius and is the
reference. ``heavy_cubes`` reads Mf only through {Mf >= N}, from
``_level_set``: at the small radii it takes the cells that could reach N
from the few cells of {f >= N - band} dilated by the kernel, at the others
it bounds the disk sums by dyadic block sums; it sums exactly from row
prefix sums at the cells either bound leaves undecided, and takes that
radius' FFT average (``_average``, which transforms f and the kernel afresh)
only when a cell lies within the rounding band of N or the direct sums would
cost more than the transform. ``scipy.fft`` loads at the first transform.

``heavy_cubes`` renders each ball once, and that one rendering gives f, the
balls' grid volumes, the visible balls (those rendered not None) and the
per-system functions f_i on {f >= N_w}, the only cells where they can reach
N_w. It drives the recursion through two stage functions: ``_select_system``
(one batched ``locate_all`` pass over the visible balls, their assignment to
systems, pigeonholing, and the selected system's weight map, which
``_cube_weights`` adds up from the integer (level, system, cell) rows, the
ancestor k levels up having the cell ``cell >> k``) and ``_generations`` (the
threshold loop; ``_generation_cubes`` reads each generation's cubes from the
weight map, shifting every weighted cube's cell up to its start). Both
measure cubes with the helpers ``_contained_mass`` (mass of the balls inside
a cube) and ``_high_mass`` (mass of f_i on the grid cells of a cube, located
by ``_cell_window``, where f_i is positive: f_i is kept only on
{f_i >= N_w}). Results hold cubes as ``SystemCube``s.

``exhaustive_verify``, the brute-force oracle of a run, shares neither the
renderer nor the disjointness test with ``heavy_cubes``: it counts each
ball's cells itself (``_ball_cell_counts``, one row of the last axis at a
time over all balls) and decides disjointness on exact integer bounds
(``_integer_disjoint``), so a fault in ``_cells_in_ball`` or
``_pairwise_disjoint`` does not pass both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grassmann import unit_ball_volume
from .pointset import _check_count

MAX_GENERATIONS = 40


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class BallFamily:
    """Weighted balls inside the unit cube, the carrier of f = sum w_B 1_B."""

    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "weights", w)
        if not (len(c) == len(r) == len(w)):
            raise ValueError("centers, radii, weights must have equal length")
        for name, values in (("centers", c), ("radii", r), ("weights", w)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(r <= 0):
            raise ValueError("radii must be positive")
        if np.any(c - r[:, None] < -1e-12) or np.any(c + r[:, None] > 1.0 + 1e-12):
            raise ValueError("every ball must lie inside the unit cube")

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    def __len__(self) -> int:
        return len(self.radii)


@dataclass
class GridFunction:
    """Nonnegative function sampled at the cell centres of a 2^depth grid: ``values`` has shape
    (2^depth,) * d for an integer depth >= 0."""

    values: np.ndarray
    depth: int

    def __post_init__(self):
        _check_count("depth", self.depth, 0)
        if self.values.shape != (2**self.depth,) * self.values.ndim:
            raise ValueError(f"values of shape {self.values.shape} do not fill a grid of depth {self.depth}")

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.depth * self.d)

    def l1(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    @classmethod
    def from_balls(cls, family: BallFamily, depth: int) -> "GridFunction":
        _check_count("depth", depth, 0)
        return cls._summed(_render(family, depth), family.weights, family.d, depth)

    @classmethod
    def _summed(cls, rendered, weights, d: int, depth: int) -> "GridFunction":
        """Sum of weight times indicator over rendered balls, added in the given order."""
        g = cls(np.zeros((2**depth,) * d), depth)
        for cells, w in zip(rendered, weights):
            if cells is not None:
                window, inside = cells
                g.values[window][inside] += w
        return g


def _cells_in_ball(center, radius, depth, d):
    """The ball's bounding window of grid cells and the mask of the cells in
    that window whose centres lie in the ball, or None when there are none."""
    h = 2.0**-depth
    size = 2**depth
    window = []
    for j in range(d):
        lo = max(0, int(math.ceil((center[j] - radius) / h - 0.5)))
        hi = min(size - 1, int(math.floor((center[j] + radius) / h - 0.5)))
        if lo > hi:
            return None
        window.append(slice(lo, hi + 1))
    # the outer sum adds the per-axis squared offsets in axis order, so it
    # rounds as sum_j (x_j - c_j)^2 does
    sq = [((np.arange(sl.start, sl.stop) + 0.5) * h - center[j]) ** 2 for j, sl in enumerate(window)]
    inside = functools.reduce(np.add.outer, sq) <= radius**2
    if not inside.any():
        return None
    return tuple(window), inside


def _render(family: BallFamily, depth: int) -> list:
    """``_cells_in_ball`` of every ball, in index order."""
    return [_cells_in_ball(c, r, depth, family.d) for c, r in zip(family.centers, family.radii)]


def grid_ball_volume(center, radius, depth, d) -> float:
    cells = _cells_in_ball(center, radius, depth, d)
    return 0.0 if cells is None else float(cells[1].sum()) * 2.0 ** (-depth * d)


def _cell_window(lo, hi, depth):
    """Slices of the grid cells whose centres lie in the box [lo, hi), or None."""
    size = 2**depth
    h = 2.0**-depth
    window = []
    for a_j, b_j in zip(lo, hi):
        a = max(0, int(math.ceil(a_j / h - 0.5)))
        b = min(size - 1, int(math.floor(b_j / h - 0.5 - 1e-12)))
        if a > b:
            return None
        window.append(slice(a, b + 1))
    return tuple(window)


# -- adjacent dyadic systems ------------------------------------------------


@dataclass(frozen=True)
class SystemCube:
    system: int
    level: int
    cell: tuple[int, ...]

    @property
    def side(self) -> float:
        return 2.0**-self.level

    def volume(self, d: int) -> float:
        return self.side**d


class AdjacentSystems:
    """2^d dyadic systems shifted by one-third offsets per coordinate.

    Grid points of the shifted and unshifted systems at scale 2^-k stay
    2^-k/3 apart, so every ball is contained in a cube of one of the systems
    with volume at most ``covering_constant`` times the ball volume.
    """

    def __init__(self, d: int):
        if not isinstance(d, (int, np.integer)) or not 1 <= d <= 4:
            raise ValueError(f"d must be an integer in 1..4, the supported ambient dimensions; got {d!r}")
        self.d = int(d)
        self.shifts = [
            np.array([(1.0 / 3.0) * ((i >> j) & 1) for j in range(d)]) for i in range(2**d)
        ]
        # side <= 24 r  =>  |R| <= (24 r)^d = covering_constant * |B|
        self.covering_constant = 24.0**d / unit_ball_volume(d)

    def __len__(self):
        return len(self.shifts)

    def bounds(self, cube: SystemCube):
        shift = self.shifts[cube.system]
        lo = shift + np.array(cube.cell, dtype=float) * cube.side
        return lo, lo + cube.side

    def locate_all(self, centers, radii):
        """The smallest system cube R of each of B balls: integer arrays of the
        levels, systems and (B, d) cells of the cubes, and the ratios |R| / |B|.
        Each R contains its ball B and has |R| <= covering_constant * |B|. Levels
        run from the largest k_max down to 0 with all 2^d systems side by side,
        so each ball keeps its first fitting (level, system); the ancestor k
        levels up has the cell ``cell >> k``. Radii below 2^-60 would overflow
        the cells."""
        centers, radii = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != self.d or radii.shape != centers.shape[:1]:
            raise ValueError(f"need centers (B, {self.d}) and radii (B,), got shapes {centers.shape}, {radii.shape}")
        if not np.all(radii >= 2.0**-60):  # NaN fails too
            raise ValueError(f"every radius must be at least 2^-60, got {radii[~(radii >= 2.0**-60)][0]}")
        low, high = centers - radii[:, None], centers + radii[:, None]
        if not np.all((low >= -1e-12) & (high <= 1.0 + 1e-12)):  # NaN fails too
            raise ValueError("every ball must lie inside the unit cube, with a finite center")
        # per ball, as scalars: numpy's array power rounds unlike the scalar one
        k_max = np.array([max(0, math.floor(-math.log2(2.0 * r))) for r in radii], dtype=int)
        ball_volume = np.array([unit_ball_volume(self.d) * r**self.d for r in radii])
        shifts, levels = np.array(self.shifts), np.full(len(radii), -1)
        owners, cells, ratios = np.zeros(len(radii), int), np.zeros(centers.shape, int), np.zeros(len(radii))
        for level in range(k_max.max(initial=0), -1, -1):
            rows = np.flatnonzero((levels < 0) & (k_max >= level))
            side = 2.0**-level
            ratio = side**self.d / ball_volume[rows]
            floors = np.floor((centers[rows, None] - shifts) * 2.0**level)  # (rows, systems, d)
            lo = shifts + floors * side
            fits = np.all((low[rows, None] >= lo - 1e-15) & (high[rows, None] <= lo + side + 1e-15), axis=2)
            fits &= (ratio <= self.covering_constant + 1e-9)[:, None]
            hit = np.flatnonzero(fits.any(axis=1))
            system = fits[hit].argmax(axis=1)  # the first system that fits
            levels[rows[hit]], owners[rows[hit]] = level, system
            cells[rows[hit]], ratios[rows[hit]] = floors[hit, system], ratio[hit]
        if np.any(levels < 0):
            raise AssertionError("one-third-shift covering failed; unreachable for admissible balls")
        return levels, owners, cells, ratios


def weight_profile(family: BallFamily, systems: AdjacentSystems) -> dict[SystemCube, float]:
    """Cube weights: each ball contributes to the comparable-volume cubes of
    its assigned system, by ``_cube_weights`` on the rows of one ``locate_all``."""
    return _cube_weights(family.radii, family.weights, *systems.locate_all(family.centers, family.radii)[:3], systems)


def _cube_weights(radii, weights, levels, owners, cells, systems: AdjacentSystems) -> dict[SystemCube, float]:
    """Each ball's weight added, in ball order, to its located cube (level, system, cell) and
    to the ancestors ``cell >> k`` up the chain while the cube volume stays at most
    covering_constant |B|: all the cubes of that system that contain B with comparable volume."""
    d, out = systems.d, {}
    for r, w, level, system, cell in zip(radii, weights, levels.tolist(), owners.tolist(), cells.tolist()):
        bound = systems.covering_constant * (unit_ball_volume(d) * r**d) + 1e-15
        for k in range(level + 1):
            if (2.0 ** (k - level)) ** d > bound:
                break
            cube = SystemCube(system, level - k, tuple(c >> k for c in cell))
            out[cube] = out.get(cube, 0.0) + float(w)
    return out


# -- maximal function --------------------------------------------------------

def _ball_kernel(d: int, depth: int, radius: float):
    h = 2.0**-depth
    reach = int(math.floor(radius / h + 0.5))
    sq = (np.arange(-reach, reach + 1) * h) ** 2
    return (functools.reduce(np.add.outer, [sq] * d) <= radius**2).astype(float)


def _padded(n: int, m: int, d: int) -> tuple[int, ...]:
    """Shape of the transforms for the linear convolution of an n^d grid and an m^d kernel."""
    from scipy import fft
    return (fft.next_fast_len(n + m - 1, real=True),) * d


def _average(f: GridFunction, kernel: np.ndarray) -> np.ndarray:
    """Average of f over the kernel's cells around every cell centre, cells
    beyond the unit cube counting as zeros: the "same" part of the linear
    convolution, padded to a fast length, from one new transform of each."""
    from scipy import fft
    n, m = f.values.shape[0], kernel.shape[0]
    shape = _padded(n, m, f.d)
    spec = fft.rfftn(kernel, shape)
    # numpy's complex product can round differently into a fresh array;
    # written into an rfftn output, it equals the product of two rfftn
    # temporaries bit for bit
    full = fft.irfftn(np.multiply(fft.rfftn(f.values, shape), spec, out=spec), shape)
    return full[(slice((m - 1) // 2, (m - 1) // 2 + n),) * f.d] / kernel.sum()


def _check_nonnegative(f: GridFunction):
    if np.any(f.values < 0):
        raise ValueError("the maximal function is defined for nonnegative grids")


def maximal_function(f: GridFunction) -> GridFunction:
    """Centred Hardy-Littlewood maximal function with dyadic radii.

    At each cell centre, the max over radii r in {2^-k : k = 0..depth+1} of
    the average of f over the grid cells within distance r (cells beyond the
    unit cube count as zeros). The smallest radius reproduces the cell value,
    so the result dominates f pointwise. Every other radius is one FFT
    convolution (``_average``); this is the reference that ``_level_set``
    equals.
    """
    _check_nonnegative(f)
    best = f.values.copy()  # radius 2^-(depth+1): the cell itself
    for k in range(f.depth, -1, -1):
        # best >= 0, so negative FFT round-off never wins
        np.maximum(best, _average(f, _ball_kernel(f.d, f.depth, 2.0**-k)), out=best)
    return GridFunction(best, f.depth)


def _halve(a: np.ndarray) -> np.ndarray:
    """Sums of ``a`` over its blocks of 2^d entries."""
    for axis in range(a.ndim):
        even, odd = ((slice(None),) * axis + (slice(start, None, 2),) for start in (0, 1))
        a = a[even] + a[odd]
    return a


def _box3(a: np.ndarray) -> np.ndarray:
    """Sum of ``a`` over the 3^d entries around each entry, with zeros beyond its edges."""
    for axis in range(a.ndim):
        head, tail = ((slice(None),) * axis + (cut,) for cut in (slice(1, None), slice(None, -1)))
        s = a.copy()
        s[head] += a[tail]
        s[tail] += a[head]
        a = s
    return a


def _disk_sums(prefix: np.ndarray, cells: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Sums of f over the kernel's cells around the given flat cell indices.

    ``prefix`` holds the prefix sums of f along the last axis, one row of
    n + 1 entries per grid row; each nonempty kernel row adds one run's
    difference of two prefix sums, and rows beyond the grid add nothing.
    """
    n, d, m = prefix.shape[1] - 1, kernel.ndim, kernel.shape[0]
    reach = (m - 1) // 2
    widths = kernel.reshape(-1, m).sum(axis=1)
    rows = np.flatnonzero(widths)
    row, col = np.divmod(cells, n)
    target = np.zeros((cells.size, rows.size), dtype=np.int64)  # grid row of each run
    valid = np.ones(target.shape, dtype=bool)
    for axis in range(d - 1):
        t = (row // n ** (d - 2 - axis) % n)[:, None] + (rows // m ** (d - 2 - axis) % m - reach)
        valid &= (t >= 0) & (t < n)
        target = target * n + t
    half = (widths[rows].astype(np.int64) - 1) // 2
    base = np.where(valid, target, 0) * (n + 1)
    flat = prefix.ravel()
    runs = flat[base + np.clip(col[:, None] + half + 1, 0, n)] - flat[base + np.clip(col[:, None] - half, 0, n)]
    return np.where(valid, runs, 0.0).sum(axis=1)


def _dilated(cells: tuple, kernel: np.ndarray, n: int) -> np.ndarray:
    """Mask of the cells of the n^d grid within the kernel's offsets of any of ``cells``, a tuple
    of index arrays, one per axis. It is marked on the grid padded by the kernel's reach, where
    a cell's flat index plus an offset's never wraps past an edge."""
    m, d = kernel.shape[0], kernel.ndim
    shape = (n + m - 1,) * d
    mask = np.zeros(shape, dtype=bool)
    mask.flat[np.ravel_multi_index(cells, shape)[:, None] + np.ravel_multi_index(np.nonzero(kernel), shape)] = True
    return mask[(slice((m - 1) // 2, (m - 1) // 2 + n),) * d]


def _level_set(f: GridFunction, level: float) -> np.ndarray:
    """The cells where ``maximal_function(f) >= level``, deciding most radii without a transform.

    An average of f never exceeds max f, so when max f < level (1 - 1e-9)
    the set is empty; and no radius from the first with sum f < level sum K
    (1 - 1e-9) on reaches ``level``, for sum K grows with r. The radii run
    smallest first, and each takes its undecided cells from one of two
    bounds. An average over a disk never exceeds the largest cell in it, and
    an average that reaches ``level`` in the transform is at least level -
    band exactly, so such a cell has a cell of H = {f >= level - band} in
    its disk (H is taken with a relative slack of 1e-12, so that rounding
    level - band drops none of its cells). While |H| sum K is below a
    sixteenth of the grid's cells, the cells outside the set within the
    kernel's offsets of H (``_dilated``) are undecided. Past that, at reach
    R = 2^(depth - k) cells, the sums of f over dyadic blocks of side R
    bound each cell's disk sum by the sum over the 3^d blocks around its
    block, and the cells outside the set whose bound reaches (level - band)
    sum K are undecided. Either bound leaves every cell whose average
    reaches ``level`` undecided or in the set, so both lead to the set of
    the reference, and they differ at most in the choice between direct sums
    and the transform below. On the benchmark's d = 2 families (depth 9)
    the reach-1 block bound scans all 262,144 cells to leave 10-56
    undecided, where H holds 85-977 cells: ``_level_set`` took 32.9 ms over
    the seven with the block bound alone, and 21.2, 20.9, 22.5, 25.1 and
    29.5 ms with the dilation below 1/8, 1/16, 1/32, 1/64 and 1/128 of the
    cells (medians of 15 rounds, one thread); the seven d = 1 families
    (depth 14) took 2.4 and 2.7 ms with the block bound alone and at 1/16.
    A radius without undecided cells makes no transform. Otherwise
    ``_disk_sums`` gives their exact disk sums from prefix sums along the
    last axis, one run per kernel row, and a cell joins the set when its
    average clears ``level`` by more than the band. If an average lies
    within the band, or the runs outnumber the cells of the radius' padded
    transform, the radius takes ``maximal_function``'s FFT average instead,
    so the set equals ``maximal_function(f).values >= level`` bit for bit.

    The band is 1e-12 max f + eps P, with eps the double epsilon and P the
    largest row sum of f. The first term covers the transform's error (about
    1e-15 max f, measured against exact sums on grids of up to 2^18 cells;
    the convolution oracle test allows 1e-12 max f) and the rounding of the
    block sums. The second covers the prefix sums: a run's difference keeps
    the rounding of each addition inside the run, at most eps/2 P each, so a
    disk sum is off by at most eps/2 P sum K and its average by eps/2 P.
    """
    _check_nonnegative(f)
    out = f.values >= level  # radius 2^-(depth+1): the cell itself
    top = f.values.max()
    if top < level * (1 - 1e-9):
        return out
    n, d = f.values.shape[0], f.d
    total = f.values.sum()
    prefix = np.zeros((n ** (d - 1), n + 1))
    np.cumsum(f.values.reshape(-1, n), axis=1, out=prefix[:, 1:])
    band = 1e-12 * top + np.finfo(float).eps * prefix[:, -1].max()
    hot = np.unravel_index(np.flatnonzero(f.values >= (level - band) * (1 - 1e-12)), f.values.shape)
    blocks = f.values
    for k in range(f.depth, -1, -1):
        kernel = _ball_kernel(d, f.depth, 2.0**-k)
        ksum = kernel.sum()
        if total < level * ksum * (1 - 1e-9):
            break
        reach = 2 ** (f.depth - k)
        if hot[0].size * ksum < out.size / 16:
            undecided = np.flatnonzero(_dilated(hot, kernel, n) & ~out)
        else:
            nb = n // reach
            while blocks.shape[0] > nb:
                blocks = _halve(blocks)
            # a cell's disk lies in the 3^d blocks of side reach around its own
            near = _box3(blocks) >= (level - band) * ksum
            undecided = np.flatnonzero(near.reshape((nb, 1) * d) & ~out.reshape((nb, reach) * d))
        if not undecided.size:
            continue
        runs = undecided.size * int(kernel[..., reach].sum())  # one per nonempty kernel row
        if runs <= math.prod(_padded(n, kernel.shape[0], d)):
            avg = _disk_sums(prefix, undecided, kernel) / ksum
            if not np.any(np.abs(avg - level) <= band):
                out.flat[undecided[avg > level]] = True
                continue
        out |= _average(f, kernel) >= level
    return out


# -- the stopping algorithm ---------------------------------------------------


@dataclass(frozen=True)
class StoppingConfig:
    """Parameter block: threshold N, density target M, exponent gamma >= 1,
    mass constant c, dimensional constant A, and the guarantee switch."""

    N: float
    M: float
    gamma: int = 1
    c: float = 1.0
    A: float = 1.0
    guarantee: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.N, self.M, self.gamma, self.c, self.A))):
            raise ConfigurationError(f"N, M, gamma, c and A must be finite, got {self}")
        if self.gamma < 1 or self.M < 1 or self.N <= 0 or self.c <= 0 or self.A < 1:
            raise ConfigurationError("need gamma >= 1, M >= 1, N > 0, c > 0, A >= 1")
        if self.guarantee:
            bound = self.A ** ((self.gamma + 1) ** 2) * self.M ** (self.gamma + 2) / self.c
            if not self.N > bound:
                raise ConfigurationError(
                    f"guarantee mode needs N > A^(gamma+1)^2 M^(gamma+2) / c = {bound:.6g}"
                )


def relation_constant(d: int) -> float:
    """Upper bound for sum of related-cube volumes over the ball volume."""
    systems = AdjacentSystems(d)
    return systems.covering_constant / (1.0 - 2.0**-d)


def recommended_A(d: int, gamma: int) -> float:
    """Dimensional constant sufficient for guarantee-mode termination.

    Derived from the generation mass bound with 2^d systems and the declared
    relation constant; valid when every ball covers enough grid cells that
    its grid volume is at least half its true volume.
    """
    s = 2**d
    aw = 2.0 * relation_constant(d)
    return float(math.ceil(3.0 * (2.0 * s * aw) ** (1.0 / (gamma + 1))))


# the keys of ``HeavyCubesResult.checks`` on every status, in report order: the
# hypotheses, the generation loop's checks and the returned cubes' checks
CHECK_KEYS = (
    "hypothesis_mf_mass", "hypothesis_mf_ok", "hypothesis_working_ok",
    "mass_law_violations", "coverage_ok", "empirical_mass_constant", "generations_run",
    "mass_retention", "mass_retention_ok", "density_ok", "disjoint_ok",
)


@dataclass
class HeavyCubesResult:
    """Outcome of ``heavy_cubes``. ``checks`` has the keys ``CHECK_KEYS`` whatever
    the status; a key whose check the run did not reach holds None: the
    generation loop's keys and ``hypothesis_working_ok`` on ``early_exit``
    runs, the loop's keys on ``vacuous`` runs, and the returned cubes' keys on
    ``vacuous`` and ``exhausted`` runs."""

    status: str                         # early_exit | heavy_found | vacuous | exhausted
    heavy: list[SystemCube]
    f_masses: dict[SystemCube, float]   # L1 norms of the full sub-functions
    trace: dict
    checks: dict
    config: StoppingConfig
    grid_depth: int


def _generation_cubes(starts, weights, threshold):
    """Weighted cubes where the chain sum from their start first reaches ``threshold``.

    A cube's chain climbs its ancestors, the cell shifted right one bit per
    level, to its start: its level-0 ancestor in generation 1 (``starts``
    None), else its ancestor-or-self in ``starts`` (the previous generation's
    light cubes), whose own weight is then left out: it already reached the
    previous, larger threshold, so returned cubes lie strictly inside their
    starts. A cube under no start is never returned. Sorted by (level, cell).
    """
    out = []
    for cube in weights:
        chain = [cube]
        while chain[-1].level > 0 and (starts is None or chain[-1] not in starts):
            top = chain[-1]
            chain.append(SystemCube(top.system, top.level - 1, tuple(c >> 1 for c in top.cell)))
        if starts is not None and chain.pop() not in starts:
            continue
        before = acc = 0.0
        for node in reversed(chain):
            before, acc = acc, acc + weights.get(node, 0.0)
        if before < threshold <= acc:
            out.append(cube)
    return sorted(out, key=lambda c: (c.level, c.cell))


def _contained_mass(centers, radii, masses, lo, hi) -> float:
    """Total of ``masses`` over the balls that lie inside the box [lo, hi]."""
    inside = np.all(centers - radii[:, None] >= lo - 1e-15, axis=1) & np.all(
        centers + radii[:, None] <= hi + 1e-15, axis=1
    )
    return float(masses[inside].sum())


def _high_mass(fi: GridFunction, lo, hi) -> float:
    """Mass of ``fi`` on the cells of the box [lo, hi) where it is positive. ``heavy_cubes``
    stores f_i only where f_i >= N_w > 0, so these are the box's cells of {f_i >= N_w}."""
    window = _cell_window(lo, hi, fi.depth)
    if window is None:
        return 0.0
    values = fi.values[window]
    return float(values[values > 0].sum() * fi.cell_volume)


def _select_system(family: BallFamily, systems: AdjacentSystems, rendered, f, n_working):
    """Locate the visible balls (``rendered`` not None) in one pass and take theta_i,
    the mass of f_i on {f_i >= n_working}, for each system i. Adding nonnegative
    weights is monotone in every rounding, so f_i <= f: f_i is summed in ball order
    on {f >= n_working} alone. Returns the first i of largest theta_i, all theta_i,
    the flat cells of {f_i >= n_working} with f_i there, i's ball indices and the
    weight map of i's balls, built from their ``locate_all`` rows."""
    balls = np.flatnonzero([cells is not None for cells in rendered])
    levels, owners, cells, _ = systems.locate_all(family.centers[balls], family.radii[balls])
    high = np.flatnonzero(f.values >= n_working)
    sums = np.zeros((len(systems), high.size))
    if high.size:
        slot = np.full(f.values.shape, -1)  # each high cell's place in ``high``
        slot.flat[high] = np.arange(high.size)
        for j, system in zip(balls, owners):
            at = slot[rendered[j][0]][rendered[j][1]]
            sums[system, at[at >= 0]] += family.weights[j]
    kept = sums >= n_working
    thetas = [float(row[keep].sum() * f.cell_volume) for row, keep in zip(sums, kept)]
    i = int(np.argmax(thetas))
    mine = owners == i
    rows = balls[mine]
    wmap = _cube_weights(family.radii[rows], family.weights[rows], levels[mine], owners[mine], cells[mine], systems)
    return i, thetas, high[kept[i]], sums[i, kept[i]], rows, wmap


def _generations(systems, balls, wmap, ball_masses, fi, theta, n_working, config):
    """Threshold loop over the selected system's balls, weight map and grid masses;
    ``fi`` is f_i on {f_i >= n_working} and zero elsewhere.

    Generation k stops at N_k = floor(n_working / 2^k) below the previous
    generation's light cubes; a cube is heavy when the balls inside it have
    mass above M |R|. Returns the heavy cubes of the first generation that
    carries 2^-k theta of high-level mass (None when none does), the
    generation records and the loop's checks.
    """
    d, m_target = balls.d, config.M
    mass_constant = relation_constant(d)
    records: list[dict] = []
    checks: dict = {"mass_law_violations": [], "coverage_ok": True}
    threshold_product = 1.0
    prior_light_high = None
    starts = None
    heavy_result: list[SystemCube] | None = None
    empirical_a = 0.0
    for generation in range(1, MAX_GENERATIONS + 1):
        n_k = math.floor(n_working / 2.0**generation)
        if n_k < 1:
            break
        cubes = _generation_cubes(starts, wmap, n_k)
        if not cubes:
            break
        threshold_product *= n_k
        total_side_volume = sum(cb.volume(d) for cb in cubes)
        mass_law_bound = (mass_constant * m_target) ** generation / threshold_product
        empirical_a = max(
            empirical_a,
            (total_side_volume * threshold_product / m_target**generation) ** (1.0 / generation),
        )
        heavy, light = [], []
        heavy_mass = light_mass = 0.0
        for cube in cubes:
            lo, hi = systems.bounds(cube)
            hm = _high_mass(fi, lo, hi)
            if _contained_mass(balls.centers, balls.radii, ball_masses, lo, hi) > m_target * cube.volume(d):
                heavy.append(cube)
                heavy_mass += hm
            else:
                light.append(cube)
                light_mass += hm
        records.append(
            {
                "k": generation,
                "threshold": n_k,
                "heavy": heavy,
                "light": light,
                "heavy_high_mass": heavy_mass,
                "light_high_mass": light_mass,
                "volume_bound": mass_law_bound,
                "total_volume": total_side_volume,
            }
        )
        if total_side_volume > mass_law_bound * (1.0 + 1e-9):
            checks["mass_law_violations"].append(generation)
        if prior_light_high is not None and (
            heavy_mass + light_mass < prior_light_high - 1e-9 * max(1.0, prior_light_high)
        ):
            checks["coverage_ok"] = False
        if heavy_mass >= 2.0**-generation * theta:
            heavy_result = heavy
            break
        prior_light_high = light_mass
        starts = set(light)
        if config.guarantee and generation >= config.gamma + 1:
            raise ConfigurationError(
                "guarantee-mode run passed the promised generation bound; "
                "this indicates an inadmissible family (balls below grid scale)"
            )

    checks["empirical_mass_constant"] = empirical_a
    checks["generations_run"] = len(records)
    return heavy_result, records, checks


def heavy_cubes(family: BallFamily, config: StoppingConfig, grid_depth: int) -> HeavyCubesResult:
    """Extract disjoint dyadic cubes carrying dense, substantial mass.

    Grid rendering of the stopping-time argument: if the total mass exceeds
    M the unit cube alone is the answer; otherwise ``_select_system`` locates
    the visible balls in one batched pass, assigns them to shifted dyadic
    systems and selects the one of largest high-level mass theta, read on the
    cells of {f >= N_w} alone, and ``_generations`` peels off generations of
    maximal cubes at thresholds N_k = floor(N_w / 2^k) until the heavy cubes
    of some generation carry a 2^-k fraction of the high-level mass. A
    ``heavy_found`` run returns a family that satisfies, exactly as grid sums,

        sum_R ||f_R||_1  >=  c 2^(-2(gamma+1)) N^-gamma   and
        ||f_R||_1        >   M |R|  for every returned R.

    Outside guarantee mode a run whose hypotheses hold can still end
    ``exhausted``, with no cubes. The working high-level set is
    {f_i >= N / #systems} on the selected system's function; the maximal
    function version reads only {Mf >= N}, from ``_level_set``, and is
    reported alongside as ``hypothesis_mf_mass``. ``checks`` carries the keys
    ``CHECK_KEYS`` on every status.
    """
    _check_count("grid_depth", grid_depth, 0)
    d = family.d
    n, m_target, gamma, c = config.N, config.M, config.gamma, config.c
    if config.guarantee:
        needed = recommended_A(d, gamma)
        if config.A < needed:
            raise ConfigurationError(
                f"guarantee mode needs A >= {needed:.0f} in dimension {d} (got {config.A})"
            )

    systems = AdjacentSystems(d)
    rendered = _render(family, grid_depth)
    f = GridFunction._summed(rendered, family.weights, d, grid_depth)
    conclusion_floor = c * 2.0 ** (-2 * (gamma + 1)) * n**-gamma

    cell_counts = np.array([0.0 if cells is None else float(cells[1].sum()) for cells in rendered])
    ball_masses = family.weights * (cell_counts * f.cell_volume)

    hyp_mf_mass = float(f.values[_level_set(f, n)].sum() * f.cell_volume)

    checks = dict.fromkeys(CHECK_KEYS)
    checks.update(hypothesis_mf_mass=hyp_mf_mass, hypothesis_mf_ok=hyp_mf_mass >= c * n**-gamma)
    trace: dict = {
        "systems": len(systems),
        "grid_depth": grid_depth,
        "invisible_balls": rendered.count(None),
        "generations": [],
    }

    # early exit: the unit cube already has density above M
    if f.l1() > m_target:
        cube = SystemCube(0, 0, (0,) * d)
        masses = {cube: f.l1()}
        checks["density_ok"] = masses[cube] > m_target * cube.volume(d)
        checks["mass_retention"] = masses[cube]
        checks["mass_retention_ok"] = masses[cube] >= conclusion_floor
        trace["early_exit"] = True
        return HeavyCubesResult("early_exit", [cube], masses, trace, checks, config, grid_depth)

    n_working = n / len(systems)
    istar, thetas, cells, vals, idx, wmap = _select_system(family, systems, rendered, f, n_working)
    trace["selected_system"] = istar
    trace["theta"] = theta = thetas[istar]
    checks["hypothesis_working_ok"] = theta >= c * n**-gamma
    if not checks["hypothesis_working_ok"]:
        return HeavyCubesResult("vacuous", [], {}, trace, checks, config, grid_depth)

    fi = GridFunction(np.zeros_like(f.values), grid_depth)  # f_i on {f_i >= N_w}, zero elsewhere
    fi.values.flat[cells] = vals
    balls = BallFamily(family.centers[idx], family.radii[idx], family.weights[idx])
    heavy, trace["generations"], loop_checks = _generations(
        systems, balls, wmap, ball_masses[idx], fi, theta, n_working, config
    )
    checks.update(loop_checks)
    if heavy is None:
        return HeavyCubesResult("exhausted", [], {}, trace, checks, config, grid_depth)

    masses = {
        cube: _contained_mass(family.centers, family.radii, ball_masses, *systems.bounds(cube))
        for cube in heavy
    }
    retention = sum(masses.values())
    checks["mass_retention"] = retention
    checks["mass_retention_ok"] = retention >= conclusion_floor
    checks["density_ok"] = all(masses[cube] > m_target * cube.volume(d) for cube in heavy)
    checks["disjoint_ok"] = _pairwise_disjoint(heavy, systems)
    return HeavyCubesResult("heavy_found", heavy, masses, trace, checks, config, grid_depth)


def _pairwise_disjoint(cubes: list[SystemCube], systems: AdjacentSystems) -> bool:
    for i, a in enumerate(cubes):
        lo_a, hi_a = systems.bounds(a)
        for b in cubes[i + 1 :]:
            lo_b, hi_b = systems.bounds(b)
            if np.all(np.maximum(lo_a, lo_b) < np.minimum(hi_a, hi_b) - 1e-15):
                return False
    return True


def _integer_disjoint(cubes: list[SystemCube]) -> bool:
    """Whether no two cubes share an interior point, on exact integers: the system shifts are
    thirds, so the bounds times 3 2^L, L the deepest level, are integers, and cubes whose faces
    touch are disjoint."""
    top = max((cube.level for cube in cubes), default=0)
    boxes = []
    for cube in cubes:
        side = 3 << (top - cube.level)
        boxes.append(([(((cube.system >> j) & 1) << top) + c * side for j, c in enumerate(cube.cell)], side))
    return not any(
        all(max(x, y) < min(x + side_a, y + side_b) for x, y in zip(lo_a, lo_b))
        for (lo_a, side_a), (lo_b, side_b) in itertools.combinations(boxes, 2)
    )


def _ball_cell_counts(centers: np.ndarray, radii: np.ndarray, depth: int) -> np.ndarray:
    """The number of grid cells whose centres lie in each ball, by the rule of ``_cells_in_ball``
    but counted apart from it: cell i is in when sum_j ((i_j + 1/2) h - c_j)^2 <= r^2, summed in
    axis order, inside the window ceil((c - r)/h - 1/2) .. floor((c + r)/h - 1/2) clipped to the
    grid. The count runs one row of the last axis at a time, over all balls at once: a square root
    estimates each row's interval, whose ends then move cell by cell until the rule holds at them
    and fails just past them (the cells of a row that pass form one interval)."""
    h, (count, d) = 2.0**-depth, centers.shape
    lo = np.maximum(np.ceil((centers - radii[:, None]) / h - 0.5), 0).astype(np.int64)
    hi = np.minimum(np.floor((centers + radii[:, None]) / h - 0.5), 2**depth - 1).astype(np.int64)
    ball, s = np.arange(count), np.zeros(count)  # each row's ball and sum over the leading axes
    for j in range(d - 1):
        k = np.maximum(hi[ball, j] - lo[ball, j] + 1, 0)
        ball, s = np.repeat(ball, k), np.repeat(s, k)
        i = lo[ball, j] + np.arange(ball.size) - np.repeat(np.cumsum(k) - k, k)
        s = s + ((i + 0.5) * h - centers[ball, j]) ** 2
    # r^2 by the scalar power, as ``radius**2`` rounds; numpy's array square can round otherwise
    c, r2 = centers[ball, -1], np.array([r**2 for r in radii.tolist()])[ball]
    first, last = lo[ball, -1], hi[ball, -1]
    half = np.sqrt(np.maximum(r2 - s, 0.0))
    a = np.clip(np.ceil((c - half) / h - 0.5), first, last + 1).astype(np.int64)
    z = np.clip(np.floor((c + half) / h - 0.5), first - 1, last).astype(np.int64)

    def inside(i):
        return s + ((i + 0.5) * h - c) ** 2 <= r2

    while (step := (a <= z) & ~inside(a)).any():
        a += step
    while (step := (z >= a) & ~inside(z)).any():
        z -= step
    while (step := (a > first) & inside(a - 1)).any():
        a -= step
    while (step := (z < last) & inside(z + 1)).any():
        z += step
    return np.bincount(ball, np.maximum(z - a + 1, 0), count)


def exhaustive_verify(family: BallFamily, config: StoppingConfig, result: HeavyCubesResult) -> dict:
    """Independent re-check of a stopping run against brute-force enumeration.

    Every ball's grid volume comes from the oracle's own cell count
    (``_ball_cell_counts``), not from the renderer ``heavy_cubes`` uses, and a
    cube's norm adds w_B |B|_grid over the balls inside it in ball order, one
    addition after another. Returned cubes: recomputes each norm and confirms
    the density and retention inequalities, pairwise disjointness on exact
    integer bounds (``_integer_disjoint``, where cubes whose faces touch are
    disjoint), and that each cube belongs to one of the 2^d systems (else
    "identity", and no other check).
    ``exhausted`` runs return no cubes; each generation record k must have the
    threshold floor(N / 2^d / 2^k) ("threshold"), heavy high-level mass below
    2^-k theta, so no reason to stop there ("stop"), and heavy cubes whose balls
    have mass above M |R| ("heavy"). ``vacuous`` runs pass unchecked.
    """
    out = {"status": result.status, "ok": True, "failures": []}
    if result.status == "vacuous":
        return out
    systems = AdjacentSystems(family.d)
    masses = family.weights * (
        _ball_cell_counts(family.centers, family.radii, result.grid_depth) * 2.0 ** (-result.grid_depth * family.d)
    )
    low, high = family.centers - family.radii[:, None], family.centers + family.radii[:, None]

    def norm_of(cube):
        lo, hi = systems.bounds(cube)
        inside = np.all(low >= lo - 1e-15, axis=1) & np.all(high <= hi + 1e-15, axis=1)
        return float(np.cumsum(np.r_[0.0, masses[inside]])[-1])  # added in ball order

    if result.status == "exhausted":
        n_working = config.N / len(systems)
        for record in result.trace["generations"]:
            k = record["k"]
            if record["threshold"] != math.floor(n_working / 2.0**k):
                out["failures"].append(("threshold", k, record["threshold"]))
            if not record["heavy_high_mass"] < 2.0**-k * result.trace["theta"]:
                out["failures"].append(("stop", k, record["heavy_high_mass"]))
            for cube in record["heavy"]:
                norm = norm_of(cube)
                if not norm > config.M * cube.volume(family.d):
                    out["failures"].append(("heavy", k, cube, norm))
    else:
        conclusion_floor = config.c * 2.0 ** (-2 * (config.gamma + 1)) * config.N**-config.gamma
        total, genuine = 0.0, []
        for cube in result.heavy:
            if not 0 <= cube.system < len(systems):
                out["failures"].append(("identity", cube))
                continue
            genuine.append(cube)
            norm = norm_of(cube)
            if abs(norm - result.f_masses[cube]) > 1e-9 * max(1.0, norm):
                out["failures"].append(("norm", cube, norm, result.f_masses[cube]))
            if not norm > config.M * cube.volume(family.d):
                out["failures"].append(("density", cube, norm))
            total += norm
        if total < conclusion_floor:
            out["failures"].append(("retention", total, conclusion_floor))
        if not _integer_disjoint(genuine):
            out["failures"].append(("disjoint",))
    out["ok"] = not out["failures"]
    return out


def random_family(
    d: int,
    rng: np.random.Generator,
    max_balls: int = 64,
    profile: str = "mixed",
    config: StoppingConfig | None = None,
    grid_depth: int = 8,
) -> BallFamily:
    """Seeded random ball families for demos and randomized verification.

    Profiles: ``bulk`` (generic balls, typically early-exit), ``peaked``
    (low total mass with a few hot small balls, exercising the generation
    recursion), ``mixed`` (either, by coin flip).

    Radii are drawn from [4 * 2^-grid_depth, 0.2], so ``grid_depth`` must be
    an integer of at least 5. A bad ``d``, ``max_balls`` (an integer >= 2),
    ``grid_depth`` or ``profile`` raises ``ValueError`` before any draw.
    """
    _check_count("d", d, 1)
    _check_count("max_balls", max_balls, 2)
    _check_count("grid_depth", grid_depth)
    if profile not in ("bulk", "peaked", "mixed"):
        raise ValueError(f"profile must be 'bulk', 'peaked' or 'mixed', got {profile!r}")
    if grid_depth < 5:
        raise ValueError(
            f"grid_depth must be >= 5, got {grid_depth}: the smallest radius 4 * 2^-grid_depth "
            "would exceed the 0.2 cap of the radius draw"
        )
    if profile == "mixed":
        profile = "bulk" if rng.random() < 0.5 else "peaked"
    count = int(rng.integers(2, max_balls + 1))
    h = 2.0**-grid_depth
    radii = np.exp(rng.uniform(math.log(4 * h), math.log(0.2), size=count))
    centers = np.column_stack(
        [rng.uniform(radii, 1.0 - radii) for _ in range(d)]
    ).reshape(count, d)
    if profile == "bulk":
        weights = rng.uniform(0.0, 3.0, size=count)
        n_hot = int(rng.integers(0, 3))
    else:
        weights = rng.uniform(0.0, 0.1, size=count)
        n_hot = int(rng.integers(1, 4))
    if config is not None and n_hot:
        hot = rng.choice(count, size=min(n_hot, count), replace=False)
        for i in hot:
            radii[i] = float(np.exp(rng.uniform(math.log(4 * h), math.log(16 * h))))
            centers[i] = rng.uniform(radii[i], 1.0 - radii[i], size=d)
            weights[i] = config.N * rng.uniform(1.05, 2.0)
    return BallFamily(centers, radii, weights)
