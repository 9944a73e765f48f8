"""Grid rendering, adjacent systems, maximal function and the heavy-cube stopping run."""

import dataclasses
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as hs

from rectilab import stopping as st

CONFIG = st.StoppingConfig(N=40, M=2)


def brute_cells(center, radius, depth):
    """Mask over the whole grid of the cells whose centres lie in the ball, cell by cell."""
    d = len(center)
    size = 2**depth
    h = 2.0**-depth
    mask = np.zeros((size,) * d, dtype=bool)
    for cell in np.ndindex(*mask.shape):
        x = (np.array(cell) + 0.5) * h
        mask[cell] = sum((x[j] - center[j]) ** 2 for j in range(d)) <= radius * radius
    return mask


def sample_family(d, rng, count):
    radii = rng.uniform(0.02, 0.3, size=count)
    centers = np.column_stack([rng.uniform(radii, 1.0 - radii) for _ in range(d)])
    # a ball that reaches the cube's faces, and one too small to hold a cell centre
    centers = np.vstack([centers, np.full(d, 0.5), np.full(d, 0.25)])
    radii = np.concatenate([radii, [0.5], [1e-3]])
    return st.BallFamily(centers, radii, rng.uniform(0.0, 2.0, size=count + 2))


def cube_bounds(cube, d):
    """Bounds of a system cube from its definition: one-third shift per set bit."""
    shift = np.array([((cube.system >> j) & 1) / 3.0 for j in range(d)])
    lo = shift + np.array(cube.cell, dtype=float) * 2.0**-cube.level
    return lo, lo + 2.0**-cube.level


def brute_locate(center, radius):
    """The first cube, levels from floor(-log2 2r) down to 0 and systems in
    order, that contains the ball with |R| / |B| within 24^d / |unit ball|,
    tried one candidate at a time."""
    d = len(center)
    unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    ball_volume = unit * radius**d
    for level in range(max(0, math.floor(-math.log2(2.0 * radius))), -1, -1):
        for system in range(2**d):
            shift = np.array([((system >> j) & 1) / 3.0 for j in range(d)])
            cube = st.SystemCube(system, level, tuple(int(x) for x in np.floor((center - shift) * 2.0**level)))
            lo, hi = cube_bounds(cube, d)
            ratio = 2.0 ** (-level * d) / ball_volume
            inside = np.all(center - radius >= lo - 1e-15) and np.all(center + radius <= hi + 1e-15)
            if inside and ratio <= 24.0**d / unit + 1e-9:
                return cube, ratio
    raise AssertionError("no system cube holds the ball")


def located(systems, centers, radii):
    """``locate_all``'s rows as (SystemCube, ratio) pairs, in ``brute_locate``'s form."""
    levels, owners, cells, ratios = systems.locate_all(np.atleast_2d(centers), np.atleast_1d(radii))
    return [
        (st.SystemCube(system, level, tuple(cell)), ratio)
        for level, system, cell, ratio in zip(levels.tolist(), owners.tolist(), cells.tolist(), ratios.tolist())
    ]


def oracle_balls(d, rng, count):
    """Seeded balls in the unit cube; a quarter with radii at exact powers of two,
    a fifth of the coordinates tangent to a face (c - r = 0 or c + r = 1), a
    tenth of the centres on the dyadic grid of side 2^-12, and a tenth of the
    balls filling a cube of the all-shifted system, c - r = 1/3 + m 2^-k and
    r = 2^-(k+1), where the rounding of c - r and c + r can fall past its faces."""
    radii = np.exp(rng.uniform(math.log(1e-4), math.log(0.5), size=count))
    radii[: count // 4] = 2.0 ** -rng.integers(1, 15, size=count // 4).astype(float)
    centers = rng.uniform(radii[:, None], 1.0 - radii[:, None], size=(count, d))
    dyadic = rng.random(count) < 0.1
    centers[dyadic] = np.clip(np.round(centers[dyadic] * 4096) / 4096, radii[dyadic, None], 1 - radii[dyadic, None])
    face = rng.integers(0, 2, size=(count, d)).astype(bool)
    tangent = np.where(face, 1.0 - radii[:, None], radii[:, None])
    centers = np.where(rng.random((count, d)) < 0.2, tangent, centers)
    filling = rng.random(count) < 0.1
    side = 2.0 ** -rng.integers(1, 12, size=count).astype(float)[filling, None]
    lines = 1.0 / 3.0 + np.floor(rng.random((filling.sum(), d)) * ((2.0 / 3.0) / side - 1.0)) * side
    radii[filling], centers[filling] = side[:, 0] / 2, lines + side / 2
    return centers, radii


def families(d, depth, count, profile, config=CONFIG):
    return [
        st.random_family(d, np.random.default_rng(seed), profile=profile, config=config, grid_depth=depth)
        for seed in range(count)
    ]


class TestGridRendering:
    @pytest.mark.parametrize("depth", [-1, 2.5, True])
    def test_depth_is_a_count(self, depth):
        fam = sample_family(2, np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="^depth must be an integer >= 0"):
            st.GridFunction.from_balls(fam, depth)
        with pytest.raises(ValueError, match="^grid_depth must be an integer >= 0"):
            st.heavy_cubes(fam, CONFIG, depth)
        with pytest.raises(ValueError, match="^depth must be an integer >= 0"):
            st.GridFunction(np.zeros((2, 2)), depth)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 4), (9,)])
    def test_values_fill_the_grid(self, shape):
        with pytest.raises(ValueError, match="do not fill a grid of depth 3"):
            st.GridFunction(np.ones(shape), 3)

    @pytest.mark.parametrize("d,depth", [(1, 6), (2, 5), (3, 3)])
    def test_from_balls_and_volume_match_brute_force(self, d, depth):
        fam = sample_family(d, np.random.default_rng(d), 6)
        expected = np.zeros((2**depth,) * d)
        for i in range(len(fam)):
            cells = brute_cells(fam.centers[i], fam.radii[i], depth)
            expected[cells] += fam.weights[i]
            volume = st.grid_ball_volume(fam.centers[i], fam.radii[i], depth, d)
            assert volume == cells.sum() * 2.0 ** (-depth * d)
        np.testing.assert_array_equal(st.GridFunction.from_balls(fam, depth).values, expected)

    def test_ball_without_cell_centre_has_no_volume(self):
        assert st.grid_ball_volume(np.array([0.25, 0.25]), 1e-3, 5, 2) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cells_in_ball_match_meshgrid(self, d):
        """Window and mask equal a meshgrid sum of squared offsets, on random
        balls and on balls centred at cell centres with radii of whole cells,
        whose spheres pass through cell centres; a ball that holds no cell
        centre gets an empty window or an all-False mask."""
        rng = np.random.default_rng(50 + d)
        balls = []
        for _ in range(100):
            depth = int(rng.integers(1, {1: 9, 2: 6, 3: 4}[d]))
            balls.append((rng.random(d), float(rng.uniform(0.0, 0.6)), depth))
            cell = (rng.integers(0, 2**depth, d) + 0.5) * 2.0**-depth
            balls.append((cell, float(rng.integers(1, 6)) * 2.0**-depth, depth))
        on_sphere = 0
        for center, radius, depth in balls:
            h = 2.0**-depth
            lo = np.clip(np.ceil((center - radius) / h - 0.5), 0, 2**depth - 1).astype(int)
            hi = np.clip(np.floor((center + radius) / h - 0.5), 0, 2**depth - 1).astype(int)
            mesh = np.meshgrid(*[(np.arange(a, b + 1) + 0.5) * h for a, b in zip(lo, hi)], indexing="ij")
            dist2 = sum((m - center[j]) ** 2 for j, m in enumerate(mesh))
            on_sphere += int(np.count_nonzero(dist2 == radius * radius))
            window, inside = st._cells_in_ball(center, radius, depth, d)
            if not inside.any():
                assert not (np.all(lo <= hi) and np.any(dist2 <= radius * radius))
                continue
            assert window == tuple(slice(a, b + 1) for a, b in zip(lo, hi))
            assert np.array_equal(inside, dist2 <= radius * radius)
        assert on_sphere > 0


class TestBallFamily:
    @pytest.mark.parametrize("field", ["centers", "radii", "weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        args = {
            "centers": np.array([[0.5, 0.5], [0.3, 0.3]]),
            "radii": np.array([0.1, 0.2]),
            "weights": np.ones(2),
        }
        args[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            st.BallFamily(**args)


class TestAdjacentSystems:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_locate_contains_ball_with_bounded_ratio(self, d):
        systems = st.AdjacentSystems(d)
        rng = np.random.default_rng(10 + d)
        for _ in range(200):
            radius = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
            center = rng.uniform(radius, 1.0 - radius, size=d)
            [(cube, ratio)] = located(systems, center, radius)
            lo, hi = cube_bounds(cube, d)
            assert np.all(center - radius >= lo - 1e-15) and np.all(center + radius <= hi + 1e-15)
            ball_volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d
            assert ratio == pytest.approx(2.0 ** (-cube.level * d) / ball_volume, rel=1e-12)
            assert ratio <= systems.covering_constant + 1e-9

    def test_locate_rejects_ball_outside_unit_cube(self):
        with pytest.raises(ValueError):
            located(st.AdjacentSystems(2), [0.05, 0.5], 0.1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batched_locate_matches_brute_force(self, d):
        """2,600 balls per dimension, 10,400 in all: every batched cube and ratio equals the oracle's."""
        systems = st.AdjacentSystems(d)
        centers, radii = oracle_balls(d, np.random.default_rng(50 + d), 2600)
        assert np.any(centers - radii[:, None] == 0.0) and np.any(centers + radii[:, None] == 1.0)
        levels, owners, cells, ratios = systems.locate_all(centers, radii)
        for b in range(len(radii)):
            cube, ratio = brute_locate(centers[b], radii[b])
            assert (owners[b], levels[b], tuple(cells[b])) == (cube.system, cube.level, cube.cell)
            assert ratios[b] == ratio
        assert set(owners.tolist()) == set(range(2**d))
        for b in range(0, len(radii), 97):  # one ball at a time
            assert located(systems, centers[b], radii[b]) == [brute_locate(centers[b], radii[b])]

    def test_locate_all_of_no_balls(self):
        levels, owners, cells, ratios = st.AdjacentSystems(2).locate_all(np.zeros((0, 2)), np.zeros(0))
        assert levels.size == owners.size == ratios.size == 0 and cells.shape == (0, 2)

    @pytest.mark.parametrize("d", [0, -1, 5, 2.0, "2", None])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError, match="d must be an integer in 1..4"):
            st.AdjacentSystems(d)

    @pytest.mark.parametrize(
        "center,radius,match",
        [
            ([0.5], 0.1, "centers"),
            ([0.5, 0.5, 0.5], 0.1, "centers"),
            ([[0.5, 0.5], [0.5, 0.5]], 0.1, "radii"),
            ([0.5, 0.5], 0.0, "radius"),
            ([0.5, 0.5], -0.1, "radius"),
            ([0.5, 0.5], float("nan"), "radius"),
            ([0.5, 0.5], 2.0**-61, "radius"),
            ([float("nan"), 0.5], 0.1, "center"),
            ([0.5, float("inf")], 0.1, "center"),
        ],
    )
    def test_locate_names_bad_ball(self, center, radius, match):
        with pytest.raises(ValueError, match=match):
            located(st.AdjacentSystems(2), center, radius)

    def test_weight_profile_rejects_family_of_other_dimension(self):
        fam = st.BallFamily(np.full((2, 3), 0.5), np.array([0.1, 0.2]), np.ones(2))
        with pytest.raises(ValueError, match=r"centers \(B, 2\)"):
            st.weight_profile(fam, st.AdjacentSystems(2))

    @given(d=hs.integers(1, 4), count=hs.integers(1, 24), seed=hs.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weight_profile_equals_the_definition(self, d, count, seed):
        """On ``oracle_balls`` families, the weight map equals the one built from
        ``brute_locate``, cell arithmetic and the volume bound, float for float and
        in the same key order."""
        rng = np.random.default_rng(seed)
        centers, radii = oracle_balls(d, rng, count)
        fam = st.BallFamily(centers, radii, rng.uniform(0.0, 2.0, size=count))
        wmap = st.weight_profile(fam, st.AdjacentSystems(d))
        expected = brute_weights(fam.centers, fam.radii, fam.weights)
        assert wmap == expected and list(wmap) == list(expected)


def kernel_cells(d, depth, k):
    """Number of grid offsets within distance 2^-k of a cell centre, counted directly."""
    reach = int(math.floor(2.0 ** (depth - k) + 0.5))
    offsets = itertools.product(range(-reach, reach + 1), repeat=d)
    return sum(sum(x * x for x in cell) <= 4.0 ** (depth - k) for cell in offsets)


def planted_band(f, k, centre, scale=1.0):
    """Write a disk of reach 2^(depth - k) around the cell ``centre`` into the
    grid ``f``: the centre empty and the other cells sum K scale each, so the
    centre's average at that radius is (sum K - 1) scale exactly, the level
    returned, and below it at every smaller radius."""
    d, depth = f.ndim, int(math.log2(f.shape[0]))
    reach = 2 ** (depth - k)
    offsets = np.indices((2 * reach + 1,) * d).reshape(d, -1).T - reach
    disk = offsets[(offsets**2).sum(axis=1) <= reach**2]
    f[tuple((np.asarray(centre) + disk).T)] = len(disk) * scale
    f[tuple(centre)] = 0.0
    return (len(disk) - 1) * scale


@hs.composite
def grids_and_levels(draw):
    """Small grids in d = 1..3 with levels at the edges of the prune: a level
    where sum f = level sum K exactly for one radius, max f, a constant grid,
    a level drawn between 0 and max f, one in (max f, 2 max f], and a
    planted cell whose average equals the level at one radius, so that
    radius falls back to the transform."""
    d = draw(hs.integers(1, 3))
    kind = draw(hs.sampled_from(["exact", "max", "constant", "between", "above", "band"]))
    # a planted disk inside the grid needs depth >= 2
    depth = draw(hs.integers(2 if kind == "band" else 1, {1: 6, 2: 4, 3: 3}[d]))
    shape = (2**depth,) * d
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    if kind == "constant":
        f = np.full(shape, draw(hs.floats(0.0, 10.0)))
        return st.GridFunction(f, depth), float(f.max())
    # integer values make sum f and level sum K exact
    f = (rng.integers(0, 6, shape) * (rng.random(shape) < draw(hs.floats(0.05, 1.0)))).astype(float)
    if kind == "exact":
        cells = kernel_cells(d, depth, draw(hs.integers(0, depth)))
        level = max(1.0, math.ceil(f.sum() / cells))
        f[tuple(rng.integers(0, 2**depth, d))] += level * cells - f.sum()
        assert f.sum() == level * cells
        return st.GridFunction(f, depth), level
    if kind == "max":
        return st.GridFunction(f, depth), float(f.max())
    if kind == "above":
        return st.GridFunction(f, depth), (1.0 + draw(hs.floats(0.0, 1.0, exclude_min=True))) * float(f.max())
    if kind == "band":
        k = draw(hs.integers(2, depth))
        reach = 2 ** (depth - k)
        centre = rng.integers(reach, 2**depth - reach, d)
        level = planted_band(f, k, centre, float(draw(hs.integers(1, 3))))
        return st.GridFunction(f, depth), level
    return st.GridFunction(f, depth), draw(hs.floats(0.0, 1.0)) * float(f.max())


class TestMaximalFunction:
    @given(grid_level=grids_and_levels())
    @settings(max_examples=100, deadline=None)
    def test_dominates_f(self, grid_level):
        f, _ = grid_level
        assert np.all(st.maximal_function(f).values >= f.values)

    @pytest.mark.parametrize("d,depth", [(1, 8), (2, 5), (3, 3)])
    def test_monotone_in_f(self, d, depth):
        rng = np.random.default_rng(30 + d)
        shape = (2**depth,) * d
        for _ in range(5):
            f = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.3)
            g = f + rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
            mf = st.maximal_function(st.GridFunction(f, depth)).values
            mg = st.maximal_function(st.GridFunction(g, depth)).values
            # the averages come from FFTs, hence the rounding allowance
            assert np.all(mf <= mg + 1e-12 * g.max())

    def test_rejects_negative_grid(self):
        values = np.zeros((8, 8))
        values[3, 4] = -1e-9
        with pytest.raises(ValueError):
            st.maximal_function(st.GridFunction(values, 3))


def convolution_maximal(f):
    """The maximal function from each radius' full linear convolution,
    irfftn(rfftn(f) rfftn(K)) at length n + m - 1 with numpy's FFT, with the
    kernel K counted in integer offsets."""
    n, depth = f.values.shape[0], f.depth
    best = f.values.copy()
    for k in range(depth, -1, -1):
        reach = int(math.floor(2.0 ** (depth - k) + 0.5))
        offsets = np.indices((2 * reach + 1,) * f.d) - reach
        kernel = ((offsets**2).sum(axis=0) <= 4 ** (depth - k)).astype(float)
        length, axes = (n + 2 * reach,) * f.d, range(f.d)
        spectrum = np.fft.rfftn(f.values, length, axes) * np.fft.rfftn(kernel, length, axes)
        full = np.fft.irfftn(spectrum, length, axes)
        best = np.maximum(best, full[(slice(reach, reach + n),) * f.d] / kernel.sum())
    return best


class TestPrunedMaximal:
    @given(grid_level=grids_and_levels())
    @settings(max_examples=200, deadline=None)
    def test_level_set_equals_maximal_function(self, grid_level):
        f, level = grid_level
        assert np.array_equal(st._level_set(f, level), st.maximal_function(f).values >= level)

    @given(grid_level=grids_and_levels())
    @settings(max_examples=100, deadline=None)
    def test_maximal_function_matches_convolution_oracle(self, grid_level):
        f, _ = grid_level
        expected = convolution_maximal(f)
        assert np.all(np.abs(st.maximal_function(f).values - expected) <= 1e-12 * f.values.max())

    @staticmethod
    def counted_transforms(f, level, monkeypatch):
        """The forward transforms ``_level_set(f, level)`` makes, in order: ("f",
        shape) for a transform of f, (sum K, shape) for one of a kernel."""
        calls = []
        rfftn = scipy.fft.rfftn

        def counted(x, shape, *args, **kwargs):
            calls.append(("f" if x is f.values else int(x.sum()), tuple(shape)))
            return rfftn(x, shape, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "rfftn", counted)
        st._level_set(f, level)
        return calls

    @pytest.mark.parametrize(
        "d,depth,level,peaked",
        [(1, 10, 0.0, False), (1, 10, 3.0, False), (1, 10, 40.0, True), (2, 6, 0.0, False), (2, 7, 40.0, True)],
    )
    def test_clear_levels_make_no_transform(self, d, depth, level, peaked, monkeypatch):
        """With no average near the level, block bounds and direct sums decide
        every kept radius: no transform, and the set of the reference. In
        d = 1 the runs never outnumber a transform's cells; in d = 2 the hot
        balls of a peaked family leave few cells undecided (broad balls at a
        low level leave so many that the transform is the cheaper way)."""
        rng = np.random.default_rng(40 + d)
        if peaked:
            fam = st.random_family(d, rng, profile="peaked", config=CONFIG, grid_depth=depth)
        else:
            fam = sample_family(d, rng, 4)
        f = st.GridFunction.from_balls(fam, depth)
        assert level <= f.values.max()  # so the max f skip does not decide it
        assert self.counted_transforms(f, level, monkeypatch) == []
        assert np.array_equal(st._level_set(f, level), st.maximal_function(f).values >= level)

    @pytest.mark.parametrize("d,depth", [(1, 8), (2, 6)])
    def test_transforms_only_at_fallback_radii(self, d, depth, monkeypatch):
        """Cells planted at reach 1 and 2 whose averages equal the level there,
        over a background whose averages stay far below it: those two radii
        take the transform, one of the kernel and one of f each, though they
        pad alike; the kept radii after them decide directly, and none is
        transformed at or past the first radius whose sum f / sum K is below
        the level."""
        rng = np.random.default_rng(60 + d)
        n = 2**depth
        f = rng.uniform(0.0, 1.0, (n,) * d)
        # both plants sit at the level 2d (sum K(reach 2) - 1), as sum K(reach 1) = 2d + 1
        level = planted_band(f, depth, [n // 4] * d, kernel_cells(d, depth, depth - 1) - 1)
        assert planted_band(f, depth - 1, [3 * n // 4] * d, 2 * d) == level
        f = st.GridFunction(f, depth)
        expected = []
        for k in (depth, depth - 1):
            width = 2 ** (depth - k + 1) + 1
            shape = (scipy.fft.next_fast_len(n + width - 1, real=True),) * d
            expected += [(kernel_cells(d, depth, k), shape), ("f", shape)]
        assert expected[1][1] == expected[3][1]  # the two radii pad alike
        kept = [k for k in range(depth, -1, -1) if f.values.sum() >= level * kernel_cells(d, depth, k)]
        assert len(kept) > 2  # radii past the fallbacks are kept, and decided without a transform
        assert self.counted_transforms(f, level, monkeypatch) == expected
        assert np.array_equal(st._level_set(f, level), st.maximal_function(f).values >= level)

    @pytest.mark.parametrize(
        "d,depth,seed,dilated,blocks",
        [(1, 12, 2, 3, 2), (2, 7, 3, 2, 1), (2, 8, 0, 2, 2), (3, 6, 3, 1, 2), (3, 5, 3, 0, 3)],
    )
    def test_small_radii_bound_from_the_cells_near_the_level(self, d, depth, seed, dilated, blocks, monkeypatch):
        """On peaked families at level N, the smallest kept radii take their undecided
        cells from H = {f >= N - band} dilated by the kernel, while |H| sum K stays below a
        sixteenth of the grid's cells, and the larger ones from the 3^d block bound (all of
        them on the last, depth-5 grid): each path's count of radii, and the set of the
        reference either way."""
        fam = st.random_family(d, np.random.default_rng(seed), profile="peaked", config=CONFIG, grid_depth=depth)
        f = st.GridFunction.from_balls(fam, depth)
        calls = []
        for name in ("_dilated", "_box3"):
            run = getattr(st, name)
            monkeypatch.setattr(st, name, lambda *args, name=name, run=run: calls.append(name) or run(*args))
        assert np.array_equal(st._level_set(f, CONFIG.N), st.maximal_function(f).values >= CONFIG.N)
        assert calls == ["_dilated"] * dilated + ["_box3"] * blocks

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 6), (3, 4)])
    def test_no_transform_above_max_f(self, d, depth, monkeypatch):
        """A level above max f makes no transform, though sum f alone would keep radii."""
        f = st.GridFunction.from_balls(sample_family(d, np.random.default_rng(40 + d), 4), depth)
        level = 1.01 * f.values.max()
        assert f.values.sum() >= level * kernel_cells(d, depth, depth)
        assert self.counted_transforms(f, level, monkeypatch) == []
        assert not st._level_set(f, level).any()

    def test_prefix_rounding_is_inside_the_band(self):
        """A 2^17-cell d = 1 grid whose row prefix sum reaches about 8e4, with
        cells near its end whose reach-1 averages equal dyadic levels exactly.
        Past 2^16 each addition to the prefix rounds by up to 7e-12, so such
        an average can be off by several times the transform term 1e-12 max f
        (max f is about 1.05), and a band without the prefix term decides
        some of these cells against the transform."""
        depth = 17
        n = 2**depth
        rng = np.random.default_rng(0)
        values = rng.uniform(0.6, 0.65, n)
        levels = 1.0 + np.arange(1, 17) / 1024
        for level, p in zip(levels, np.linspace(n - n // 8, n - 8, len(levels)).astype(int)):
            while True:
                a, b = rng.uniform(level, level + 0.02), rng.uniform(level - 0.02, level)
                c = 3 * level - a - b
                if Fraction(a) + Fraction(b) + Fraction(c) == 3 * Fraction(level):
                    break
            values[p - 1 : p + 2] = a, b, c  # b < level, so the cell is outside until reach 1
        f = st.GridFunction(values, depth)
        mf = st.maximal_function(f).values
        for level in levels:
            assert np.array_equal(st._level_set(f, level), mf >= level)


IMPORT_STAGES = """
import dataclasses, json, pathlib, sys, tempfile
import numpy as np
import rectilab
from rectilab import beta, cubes, grassmann, pointset, stopping as st

def loaded():
    return [m for m in ("scipy.spatial", "scipy.optimize", "scipy.fft", "scipy.signal", "scipy.stats") if m in sys.modules]

stages = [loaded()]
config = st.StoppingConfig(N=40, M=2)
fam = st.random_family(2, np.random.default_rng(0), config=config, grid_depth=6)
assert st.exhaustive_verify(fam, config, st.heavy_cubes(fam, config, 6))["ok"]
stages.append(loaded())
corners = pointset.four_corners(4)
curve = pointset.lipschitz_graph_cloud(lambda t: [0.2 * np.sin(4.0 * t[0])], grassmann.Subspace.axis(2, 0), 1.5, 2.0**-5)
jittered = dataclasses.replace(corners, points=corners.points + corners.resolution / 16)
with tempfile.TemporaryDirectory() as tmp:
    pointset.save_cloud(jittered, pathlib.Path(tmp) / "cloud.csv")
    back = pointset.load_cloud(pathlib.Path(tmp) / "cloud.csv")
lattice = cubes.CubeLattice(back, 0, 4)
flags = {cube.key: len(cube.members) % 3 == 0 for cube in lattice.all_cubes()}
top = lattice.tops()[0]
assert sum(len(tree.cubes) for tree in cubes.decompose_trees(lattice, flags, 2, top).trees) == len(lattice)
assert cubes.packing_check(lattice, flags, 2, top)["ok"]
stages.append(loaded() + ["tree"] * any("tree" in vars(c) for c in (corners, curve, jittered, back)))
cloud, ball = pointset.four_corners(2), pointset.Ball(np.full(2, 0.5), 0.5)
beta.beta1(cloud, ball)
stages.append(loaded())
assert not beta.beta_inf(cloud, ball).degenerate
stages.append(loaded())
space = pointset.lipschitz_graph_cloud(lambda t: [0.2 * np.sin(4.0 * t[0]), 0.1 * np.cos(3.0 * t[0])], grassmann.Subspace.axis(3, 0), 1.5, 2.0**-4)
assert not beta.beta1(space, pointset.Ball(space.points.mean(axis=0), 0.5)).degenerate
stages.append(loaded())
print(json.dumps(stages))
"""


def test_import_leaves_out_scipy_signal_and_stats():
    """Each scipy submodule loads in the code that uses it: ``import rectilab``
    loads none of them (``maximal_function`` calls scipy.fft itself, so never
    scipy.signal or the scipy.stats it pulls in), a stopping run and its check
    leave out scipy.spatial and scipy.optimize, building, checking, jittering,
    saving and loading clouds and running the lattice, tree and packing code of
    ``cubes`` on them build no k-d tree and leave out scipy.spatial, the first
    ball query (beta1's) builds a tree and loads scipy.spatial, planar beta1 and
    beta_inf are exact without scipy.optimize, and scipy.optimize waits for
    Brent's path, codimension >= 2 (d = 3, n = 1)."""
    src = Path(__file__).resolve().parents[1] / "src"
    # ``python -c`` puts its working directory first on sys.path
    out = subprocess.run([sys.executable, "-c", IMPORT_STAGES], cwd=src, capture_output=True, text=True, check=True)
    imported, stopped, clouds, beta1, beta_inf, codim2 = map(set, json.loads(out.stdout))
    assert imported == set()
    assert not {"scipy.spatial", "scipy.optimize"} & stopped
    assert not {"scipy.spatial", "tree"} & clouds
    assert "scipy.spatial" in beta1 and "scipy.optimize" not in beta1
    assert "scipy.optimize" not in beta_inf
    assert "scipy.optimize" in codim2


class TestHeavyCubes:
    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 6)])
    def test_early_exit_exactly_above_M(self, d, depth):
        seen = set()
        for fam in families(d, depth, 12, "mixed"):
            f = st.GridFunction.from_balls(fam, depth)
            result = st.heavy_cubes(fam, CONFIG, depth)
            assert (result.status == "early_exit") == (f.l1() > CONFIG.M)
            seen.add(result.status == "early_exit")
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "d,depth,config,seeds",
        [
            (1, 10, CONFIG, range(12)),
            (2, 7, st.StoppingConfig(N=100, M=2), [0, 1, 2, 3]),
        ],
    )
    def test_heavy_found_passes_oracle(self, d, depth, config, seeds):
        found = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fam = st.random_family(d, rng, profile="peaked", config=config, grid_depth=depth)
            result = st.heavy_cubes(fam, config, depth)
            if result.status != "heavy_found":
                continue
            found += 1
            assert st.exhaustive_verify(fam, config, result)["ok"]
            assert result.checks["density_ok"] and result.checks["disjoint_ok"]
            for cube in result.heavy:
                lo, hi = cube_bounds(cube, d)
                assert result.f_masses[cube] > config.M * np.prod(hi - lo)
        assert found >= 2

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_generations_run_counts_generation_records(self, d, depth):
        statuses = set()
        for fam in families(d, depth, 8, "peaked"):
            result = st.heavy_cubes(fam, CONFIG, depth)
            if result.status in ("heavy_found", "exhausted"):
                statuses.add(result.status)
                assert result.checks["generations_run"] == len(result.trace["generations"])
        assert statuses

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_loop_checks_have_fixed_keys(self, d, depth):
        """Every status reports the keys ``CHECK_KEYS``, in that order, and
        None exactly for the checks its run did not reach: the generation
        loop's keys on ``early_exit`` and ``vacuous`` runs, and the returned
        cubes' keys on ``vacuous`` and ``exhausted`` runs. The d = 2 runs end
        in all four statuses; no d = 1 family of this depth was found to end
        ``exhausted``."""
        loop = {"mass_law_violations", "coverage_ok", "empirical_mass_constant", "generations_run"}
        cubes = {"mass_retention", "mass_retention_ok", "density_ok", "disjoint_ok"}
        unreached = {
            "early_exit": loop | {"hypothesis_working_ok", "disjoint_ok"},
            "vacuous": loop | cubes,
            "exhausted": cubes,
            "heavy_found": set(),
        }
        runs = [("mixed", seed) for seed in range(4)] + [("peaked", 30)] * (d == 2)  # peaked 30: exhausted
        statuses = set()
        for profile, seed in runs:
            fam = st.random_family(d, np.random.default_rng(seed), profile=profile, config=CONFIG, grid_depth=depth)
            result = st.heavy_cubes(fam, CONFIG, depth)
            statuses.add(result.status)
            assert tuple(result.checks) == st.CHECK_KEYS
            assert {key for key, value in result.checks.items() if value is None} == unreached[result.status]
            if result.status in ("heavy_found", "exhausted"):
                assert isinstance(result.checks["mass_law_violations"], list)
                assert isinstance(result.checks["coverage_ok"], bool)
        assert statuses == set(unreached) - ({"exhausted"} if d == 1 else set())

    @pytest.mark.parametrize(
        "d,depth,config,max_balls,seeds",
        [
            (1, 10, CONFIG, 64, range(6)),
            (2, 6, st.StoppingConfig(N=10, M=2), 6, range(12)),
            (3, 5, st.StoppingConfig(N=10, M=2), 4, range(5)),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_selected_system_matches_brute_force(self, d, depth, config, max_balls, seeds):
        """Group the balls by located system, build each whole grid f_i cell by
        cell and pick the system with the most mass on {f_i >= N / 2^d}. Every
        system's theta_i, read on {f >= N / 2^d} alone, equals its whole-grid
        mass bit for bit, and so do the selected f_i's high cells and values."""
        systems = st.AdjacentSystems(d)
        n_working = config.N / len(systems)
        compared = several = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fam = st.random_family(d, rng, max_balls, profile="peaked", config=config, grid_depth=depth)
            grids = np.zeros((len(systems),) + (2**depth,) * d)
            for i in range(len(fam)):
                cube, _ = brute_locate(fam.centers[i], fam.radii[i])
                grids[cube.system][brute_cells(fam.centers[i], fam.radii[i], depth)] += fam.weights[i]
            thetas = [float(g[g >= n_working].sum() * 2.0 ** (-depth * d)) for g in grids]
            selected, restricted, cells, values, *_ = self.selection(fam, config, depth)
            assert restricted == thetas and selected == thetas.index(max(thetas))
            assert np.array_equal(cells, np.flatnonzero(grids[selected] >= n_working))
            assert np.array_equal(values, grids[selected].ravel()[cells])
            several += sum(theta > 0 for theta in thetas) >= 2
            result = st.heavy_cubes(fam, config, depth)
            if result.status == "early_exit":
                continue
            assert result.trace["selected_system"] == int(np.argmax(thetas))
            assert result.trace["theta"] == max(thetas)
            compared += 1
        assert compared >= 2 and several >= 1

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7)])
    def test_renders_each_ball_once_and_locates_no_ball_twice(self, d, depth, monkeypatch):
        """Every ball is rendered once; the visible ones, and only they, reach
        ``locate_all``, each once, in one call."""
        fam = st.random_family(d, np.random.default_rng(1), profile="peaked", config=CONFIG, grid_depth=depth)
        # and a ball around a cell corner that holds no cell centre
        corner, h = np.full((1, d), 0.5), 2.0**-depth
        fam = st.BallFamily(np.vstack([fam.centers, corner]), np.append(fam.radii, h / 4), np.append(fam.weights, 1.0))
        balls = [(tuple(c), float(r)) for c, r in zip(fam.centers, fam.radii)]
        visible = [b for b in balls if st.grid_ball_volume(np.array(b[0]), b[1], depth, d) > 0]
        assert len(visible) < len(balls)
        rendered, located, calls = [], [], []
        cells_in_ball, locate_all = st._cells_in_ball, st.AdjacentSystems.locate_all

        def counted_cells(center, radius, *args):
            rendered.append((tuple(center), float(radius)))
            return cells_in_ball(center, radius, *args)

        def counted_locate_all(self, centers, radii):
            calls.append(len(radii))
            located.extend((tuple(c), float(r)) for c, r in zip(centers, radii))
            return locate_all(self, centers, radii)

        monkeypatch.setattr(st, "_cells_in_ball", counted_cells)
        monkeypatch.setattr(st.AdjacentSystems, "locate_all", counted_locate_all)
        result = st.heavy_cubes(fam, CONFIG, depth)
        assert result.status in ("heavy_found", "exhausted")
        assert sorted(rendered) == sorted(balls)
        assert sorted(located) == sorted(visible) and calls == [len(visible)]

    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7), (3, 5)])
    def test_invisible_balls_hold_no_cell_centre(self, d, depth):
        """``trace["invisible_balls"]`` is the number of balls that hold no cell
        centre, counted over every centre of the grid: here the two balls added
        around cell corners, as every drawn radius is at least 4 cells. The
        family renders bit for bit as its visible balls alone."""
        fam = st.random_family(d, np.random.default_rng(3), profile="peaked", config=CONFIG, grid_depth=depth)
        h = 2.0**-depth
        fam = st.BallFamily(
            np.vstack([fam.centers, np.full((1, d), 0.5), np.full((1, d), 0.25)]),
            np.append(fam.radii, [h / 4, h / 3]),
            np.append(fam.weights, [1.0, 50.0]),
        )
        centres = (np.indices((2**depth,) * d).reshape(d, -1).T + 0.5) * h
        holds = np.array([np.any(((centres - c) ** 2).sum(axis=1) <= r * r) for c, r in zip(fam.centers, fam.radii)])
        assert np.count_nonzero(~holds) == 2
        assert st.heavy_cubes(fam, CONFIG, depth).trace["invisible_balls"] == 2
        visible = st.BallFamily(fam.centers[holds], fam.radii[holds], fam.weights[holds])
        rendered = st.GridFunction.from_balls(fam, depth).values
        assert np.array_equal(rendered, st.GridFunction.from_balls(visible, depth).values)

    @staticmethod
    def selection(fam, config, depth):
        """``_select_system`` on the family as ``heavy_cubes`` calls it."""
        systems = st.AdjacentSystems(fam.d)
        rendered = st._render(fam, depth)
        f = st.GridFunction._summed(rendered, fam.weights, fam.d, depth)
        return st._select_system(fam, systems, rendered, f, config.N / len(systems))

    def test_tie_goes_to_the_first_system(self):
        """Two equal disjoint balls located in systems 1 and 0, the system-1 ball first in
        index order: both systems carry the same theta and system 0 is selected."""
        h, depth = 2.0**-10, 10
        by_system = {}
        for j in range(4, 2**depth - 4):  # centre on a cell edge: 8 cells of weight 30 >= N_w = 20
            by_system.setdefault(brute_locate(np.array([j * h]), 4 * h)[0].system, j)
        assert abs(by_system[0] - by_system[1]) > 8
        fam = st.BallFamily(np.array([[by_system[1] * h], [by_system[0] * h]]), np.full(2, 4 * h), np.full(2, 30.0))
        i, thetas, *_ = self.selection(fam, CONFIG, depth)
        assert thetas[0] == thetas[1] == 30.0 * 8 * h and i == 0
        result = st.heavy_cubes(fam, CONFIG, depth)
        assert result.trace["selected_system"] == 0 and result.trace["theta"] == thetas[0]

    def test_vacuous_without_high_mass(self):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([1.0]))
        result = st.heavy_cubes(fam, CONFIG, 6)
        assert result.status == "vacuous" and result.heavy == [] and result.trace["theta"] == 0.0
        assert result.trace["selected_system"] == 0
        i, thetas, cells, values, balls, wmap = self.selection(fam, CONFIG, 6)
        assert (i, thetas, cells.size, values.size) == (0, [0.0] * 4, 0, 0)
        assert balls.tolist() == [0] and wmap == brute_weights(fam.centers, fam.radii, fam.weights)


def ancestors(cube):
    """The cube's ancestors from level 0 down to the cube itself, by cell arithmetic."""
    return [
        st.SystemCube(cube.system, level, tuple(c >> (cube.level - level) for c in cube.cell))
        for level in range(cube.level + 1)
    ]


def brute_weights(centers, radii, weights):
    """The weight map from its definition: each ball's weight, in ball order, on
    its ``brute_locate`` cube and on every ancestor of volume at most 24^d /
    |unit ball| times the ball's volume."""
    out = {}
    for center, radius, weight in zip(centers, radii, weights):
        d = len(center)
        unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        for cube in reversed(ancestors(brute_locate(center, radius)[0])):
            if 2.0 ** (-cube.level * d) > 24.0**d / unit * (unit * radius**d) + 1e-15:
                break
            out[cube] = out.get(cube, 0.0) + float(weight)
    return out


def stopping_rule(wmap, starts, threshold):
    """Weighted cubes whose chain sum from their start reaches the threshold at
    the cube and at no coarser cube; ``starts`` None means every level-0 cube,
    whose weight counts, and otherwise a start's own weight is left out."""
    out = []
    for cube in wmap:
        chain = ancestors(cube)
        at = [i for i, q in enumerate(chain) if (q in starts if starts is not None else q.level == 0)]
        if not at:
            continue
        sums = np.cumsum([wmap.get(q, 0.0) for q in chain[at[0] + (starts is not None):]])
        if sums.size and sums[-1] >= threshold and np.all(sums[:-1] < threshold):
            out.append(cube)
    return sorted(out, key=lambda c: (c.level, c.cell))


class TestGenerations:
    def test_records_match_brute_force_rule(self):
        """Rebuild the selected system's weight map ball by ball and check each
        generation's cubes, and that each lies strictly inside a light cube of the one before."""
        records = multi_generation_runs = 0
        for d, depth in [(1, 10), (2, 7), (3, 5)]:
            for fam in families(d, depth, 12, "peaked"):
                result = st.heavy_cubes(fam, CONFIG, depth)
                gens = result.trace["generations"]
                if not gens:
                    continue
                mine = [
                    b for b, (c, r) in enumerate(zip(fam.centers, fam.radii))
                    if st.grid_ball_volume(c, r, depth, d) > 0.0
                    and brute_locate(c, r)[0].system == result.trace["selected_system"]
                ]
                wmap = brute_weights(fam.centers[mine], fam.radii[mine], fam.weights[mine])
                starts = None
                for record in gens:
                    cubes = sorted(record["heavy"] + record["light"], key=lambda c: (c.level, c.cell))
                    assert cubes == stopping_rule(wmap, starts, record["threshold"])
                    if starts is not None:
                        assert all(set(ancestors(cube)[:-1]) & starts for cube in cubes)
                    starts = set(record["light"])
                records += len(gens)
                multi_generation_runs += len(gens) > 1
        assert records >= 20 and multi_generation_runs >= 5

    def test_generation_cubes_on_hand_built_weights(self):
        """Generation 1: a reaches the threshold by itself, so its weighted
        descendants are not returned; b's grandchild reaches it through b's
        unweighted child. Below the starts a and b their own weights are left
        out: a's grandchild is the first to reach 3 (1 + 4), b's descendants
        reach at most 2, and neither start is returned again. c lies under no
        start of the last two calls."""
        cube = lambda system, level, x: st.SystemCube(system, level, (x,))
        a, b, c = cube(0, 1, 0), cube(0, 1, 1), cube(1, 2, 0)
        wmap = {
            a: 5.0, cube(0, 2, 0): 1.0, cube(0, 3, 0): 4.0,
            b: 1.0, cube(0, 3, 4): 2.0, cube(0, 3, 5): 1.0,
            c: 10.0,
        }
        assert cube(0, 2, 2) not in wmap
        assert st._generation_cubes(None, wmap, 3.0) == [a, c, cube(0, 3, 4)]
        assert st._generation_cubes({a, b}, wmap, 3.0) == [cube(0, 3, 0)]
        assert st._generation_cubes({b}, wmap, 3.5) == []

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_recursion_descends_to_heavy_cubes(self, seed):
        """Seeded d = 2 families whose first generation has only light cubes:
        the later generations must descend below them to find heavy cubes."""
        fam = st.random_family(2, np.random.default_rng(seed), profile="mixed", config=CONFIG, grid_depth=9)
        result = st.heavy_cubes(fam, CONFIG, 9)
        assert result.status == "heavy_found"
        assert result.trace["generations"][0]["heavy"] == []
        assert st.exhaustive_verify(fam, CONFIG, result)["ok"]

    @pytest.mark.parametrize("guarantee", [False, True])
    def test_guarantee_mode_past_gamma_plus_one_generations(self, guarantee):
        """Hand-built inputs that reach a second generation without heavy mass:
        guarantee mode names the broken promise with ``ConfigurationError``. The
        balls' rows, level 0 cell 0 and level 3 cell 3 of system 0, are set by hand."""
        systems = st.AdjacentSystems(1)
        balls = st.BallFamily(np.array([[0.5], [0.5]]), np.array([0.2, 0.01]), np.array([5.0, 3.0]))
        wmap = st._cube_weights(balls.radii, balls.weights, np.array([0, 3]), np.zeros(2, int), np.array([[0], [3]]), systems)
        assert wmap == {st.SystemCube(0, 0, (0,)): 5.0, st.SystemCube(0, 3, (3,)): 3.0}
        fi = st.GridFunction(np.zeros(16), 4)
        config = st.StoppingConfig(N=2.0, M=1.0, guarantee=guarantee)
        args = (systems, balls, wmap, np.zeros(2), fi, 1.0, 8.0, config)
        if guarantee:
            with pytest.raises(st.ConfigurationError, match="promised generation bound"):
                st._generations(*args)
        else:
            heavy, records, _ = st._generations(*args)
            assert heavy is None and [r["threshold"] for r in records] == [4, 2]


class TestGuaranteeMode:
    @pytest.mark.parametrize("d,depth,c", [(1, 14, 1000.0), (2, 10, 1e4)])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_hot_ball_is_found(self, d, depth, c, seed):
        """One ball of weight just above N / 2^d and true mass 0.6 M, with
        N = 1.05 times the guarantee bound: the run finds heavy cubes within
        gamma + 1 generations and passes the oracle."""
        gamma, m = 1, 1.0
        a = st.recommended_A(d, gamma)
        n = 1.05 * a ** ((gamma + 1) ** 2) * m ** (gamma + 2) / c
        config = st.StoppingConfig(N=n, M=m, gamma=gamma, c=c, A=a, guarantee=True)
        weight = 1.01 * n / 2**d
        radius = (0.6 * m / (weight * st.unit_ball_volume(d))) ** (1.0 / d)
        center = np.random.default_rng(seed).uniform(radius, 1.0 - radius, size=d)
        fam = st.BallFamily(center[None, :], np.array([radius]), np.array([weight]))
        result = st.heavy_cubes(fam, config, depth)
        assert result.status == "heavy_found"
        assert len(result.trace["generations"]) <= gamma + 1
        assert st.exhaustive_verify(fam, config, result)["ok"]


class TestExhaustiveVerify:
    def test_vacuous_run_renders_nothing(self, monkeypatch):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([1.0]))
        result = st.heavy_cubes(fam, CONFIG, 6)
        assert result.status == "vacuous"
        rendered = []
        cells_in_ball = st._cells_in_ball

        def counted_cells(*args):
            rendered.append(args)
            return cells_in_ball(*args)

        monkeypatch.setattr(st, "_cells_in_ball", counted_cells)
        verdict = st.exhaustive_verify(fam, CONFIG, result)
        assert verdict == {"status": "vacuous", "ok": True, "failures": []}
        assert rendered == []

    @pytest.fixture(scope="class")
    def found(self):
        """A seeded ``heavy_found`` run with two heavy cubes, which the oracle passes."""
        fam = st.random_family(1, np.random.default_rng(6), profile="peaked", config=CONFIG, grid_depth=10)
        result = st.heavy_cubes(fam, CONFIG, 10)
        assert result.status == "heavy_found" and len(result.heavy) == 2
        assert st.exhaustive_verify(fam, CONFIG, result)["ok"]
        return fam, result

    @staticmethod
    def names(verdict):
        assert verdict["failures"] and verdict["ok"] is False
        return [failure[0] for failure in verdict["failures"]]

    @pytest.mark.parametrize("system", [-1, 2])
    def test_cube_of_no_system(self, found, system):
        fam, result = found
        bad = dataclasses.replace(result.heavy[0], system=system)
        tampered = dataclasses.replace(result, heavy=[bad, result.heavy[1]])
        verdict = st.exhaustive_verify(fam, CONFIG, tampered)
        assert ("identity", bad) in verdict["failures"]
        assert set(self.names(verdict)) <= {"identity", "retention"}

    def test_doubled_norm(self, found):
        fam, result = found
        cube = result.heavy[1]
        f_masses = {**result.f_masses, cube: 2.0 * result.f_masses[cube]}
        verdict = st.exhaustive_verify(fam, CONFIG, dataclasses.replace(result, f_masses=f_masses))
        assert self.names(verdict) == ["norm"]
        assert verdict["failures"][0][1] == cube and verdict["failures"][0][3] == f_masses[cube]

    def test_larger_density_target(self, found):
        fam, result = found
        verdict = st.exhaustive_verify(fam, dataclasses.replace(CONFIG, M=1e9), result)
        assert self.names(verdict) == ["density", "density"]
        assert [failure[1] for failure in verdict["failures"]] == result.heavy

    def test_larger_mass_constant(self, found):
        fam, result = found
        verdict = st.exhaustive_verify(fam, dataclasses.replace(CONFIG, c=1e6), result)
        assert self.names(verdict) == ["retention"]

    def test_repeated_cube(self, found):
        fam, result = found
        tampered = dataclasses.replace(result, heavy=result.heavy + [result.heavy[0]])
        assert self.names(st.exhaustive_verify(fam, CONFIG, tampered)) == ["disjoint"]

    @pytest.mark.parametrize("seed,status", [(6, "heavy_found"), (0, "early_exit")])
    def test_renderer_one_cell_short_fails(self, seed, status, monkeypatch):
        """A renderer that drops one cell of every ball moves each run's masses; the
        oracle counts its own cells, so it names the moved norms."""
        cells_in_ball = st._cells_in_ball

        def one_short(*args):
            window, inside = cells_in_ball(*args)
            inside = inside.copy()
            inside.flat[np.flatnonzero(inside)[:1]] = False
            return window, inside

        monkeypatch.setattr(st, "_cells_in_ball", one_short)
        fam = st.random_family(1, np.random.default_rng(seed), profile="peaked", config=CONFIG, grid_depth=10)
        result = st.heavy_cubes(fam, CONFIG, 10)
        assert result.status == status
        assert "norm" in self.names(st.exhaustive_verify(fam, CONFIG, result))

    @staticmethod
    @hs.composite
    def balls_on_grid(draw):
        """A grid of depth 0..10 in d = 1..4 and up to five balls: coordinates on cell
        faces or centres (multiples of h/2) or drawn past the grid's edges; radii below a
        cell, at multiples of h/2, at sqrt(k) h/2 (cell centres on the sphere when the
        centre is on the half grid) or drawn up to 1.5."""
        d = draw(hs.integers(1, 4))
        depth = draw(hs.integers(0, {1: 10, 2: 6, 3: 4, 4: 3}[d]))
        h = 2.0**-depth
        coordinate = hs.one_of(hs.integers(0, 2 ** (depth + 1)).map(lambda k: k * h / 2), hs.floats(-0.25, 1.25))
        radius = hs.one_of(
            hs.floats(1e-6 * h, h, exclude_max=True),
            hs.integers(1, 2 ** (depth + 2)).map(lambda k: k * h / 2),
            hs.integers(1, 4 ** (depth + 2)).map(lambda k: math.sqrt(k) * h / 2),
            hs.floats(1e-3, 1.5),
        )
        count = draw(hs.integers(1, 5))
        centers = np.array([[draw(coordinate) for _ in range(d)] for _ in range(count)])
        return centers, np.array([draw(radius) for _ in range(count)]), depth

    @given(balls=balls_on_grid())
    @settings(max_examples=300, deadline=None)
    def test_own_cell_counts_equal_grid_ball_volume(self, balls):
        centers, radii, depth = balls
        d = centers.shape[1]
        expected = [st.grid_ball_volume(c, r, depth, d) for c, r in zip(centers, radii)]
        assert np.array_equal(st._ball_cell_counts(centers, radii, depth) * 2.0 ** (-depth * d), expected)

    @pytest.mark.parametrize(
        "other,disjoint",
        [
            (st.SystemCube(3, 1, (1, 0)), True),  # [5/6, 4/3] x [1/3, 5/6]: the face x = 5/6
            (st.SystemCube(3, 2, (2, -1)), True),  # [5/6, 13/12] x [1/12, 1/3]: the face x = 5/6
            (st.SystemCube(1, 1, (1, 1)), True),  # [5/6, 4/3] x [1/2, 1]: the corner (5/6, 1/2)
            (st.SystemCube(3, 1, (0, 0)), False),
            (st.SystemCube(2, 2, (3, 0)), False),
        ],
    )
    def test_integer_disjointness_of_two_systems(self, other, disjoint):
        """Cube (1, 1, (0, 0)) of the x-shifted system is [1/3, 5/6] x [0, 1/2]; faces and
        corners that touch leave cubes disjoint, overlaps do not, as the float test says."""
        cubes = [st.SystemCube(1, 1, (0, 0)), other]
        assert st._integer_disjoint(cubes) is disjoint
        assert st._pairwise_disjoint(cubes, st.AdjacentSystems(2)) is disjoint

    @given(
        d=hs.integers(1, 3),
        cubes=hs.lists(
            hs.tuples(hs.integers(0, 7), hs.integers(0, 5), hs.tuples(*[hs.integers(0, 63)] * 3)), max_size=6
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_disjointness_agrees_with_float_test(self, d, cubes):
        """Cubes of every system at levels 0..5 with cells -1 .. 2^(level+1) - 2, near one
        another: the exact test and ``_pairwise_disjoint`` agree (an overlap here is at
        least 2^-5 / 3 wide, far above the float test's 1e-15 allowance)."""
        cubes = [
            st.SystemCube(system % 2**d, level, tuple(c % 2 ** (level + 1) - 1 for c in cell[:d]))
            for system, level, cell in cubes
        ]
        assert st._integer_disjoint(cubes) == st._pairwise_disjoint(cubes, st.AdjacentSystems(d))

    @pytest.fixture(scope="class")
    def exhausted(self):
        """A seeded ``exhausted`` run of two generations, which the oracle passes."""
        fam = st.random_family(2, np.random.default_rng(30), profile="peaked", config=CONFIG, grid_depth=7)
        result = st.heavy_cubes(fam, CONFIG, 7)
        assert result.status == "exhausted" and [r["k"] for r in result.trace["generations"]] == [1, 2]
        assert st.exhaustive_verify(fam, CONFIG, result) == {"status": "exhausted", "ok": True, "failures": []}
        return fam, result

    @staticmethod
    def with_record(result, k, **changes):
        """``result`` with the entries of its generation-k record replaced by ``changes``."""
        gens = [dict(r, **changes) if r["k"] == k else r for r in result.trace["generations"]]
        return dataclasses.replace(result, trace={**result.trace, "generations": gens})

    def test_wrong_threshold(self, exhausted):
        fam, result = exhausted
        wrong = result.trace["generations"][1]["threshold"] + 1
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 2, threshold=wrong))
        assert self.names(verdict) == ["threshold"] and verdict["failures"][0] == ("threshold", 2, wrong)

    def test_generation_that_reached_the_stop(self, exhausted):
        fam, result = exhausted
        mass = result.trace["theta"] / 2.0  # exactly 2^-1 theta stops generation 1
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 1, heavy_high_mass=mass))
        assert self.names(verdict) == ["stop"] and verdict["failures"][0] == ("stop", 1, mass)

    def test_light_cube_labeled_heavy(self, exhausted):
        fam, result = exhausted
        cube = result.trace["generations"][0]["light"][0]
        verdict = st.exhaustive_verify(fam, CONFIG, self.with_record(result, 1, heavy=[cube], light=[]))
        assert self.names(verdict) == ["heavy"] and verdict["failures"][0][:3] == ("heavy", 1, cube)
        assert verdict["failures"][0][3] <= CONFIG.M * cube.volume(2)


class TestRandomPeakedFamilies:
    @pytest.mark.parametrize("d,depth", [(1, 10), (2, 7), (3, 5)])
    @given(seed=hs.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generations_nest_and_oracle_passes(self, d, depth, seed):
        """Each generation's cubes lie strictly inside the light cubes of the one
        before, and the oracle passes every ``heavy_found`` and ``exhausted`` run."""
        fam = st.random_family(d, np.random.default_rng(seed), profile="peaked", config=CONFIG, grid_depth=depth)
        result = st.heavy_cubes(fam, CONFIG, depth)
        assert_nested(result.trace["generations"])
        if result.status in ("heavy_found", "exhausted"):
            assert st.exhaustive_verify(fam, CONFIG, result)["ok"]

    @pytest.mark.parametrize("seed", [26, 48, 53, 59, 83, 86, 99])
    def test_second_generation_nests_in_d1(self, seed):
        """Seeds whose d = 1 run reaches a second generation, so the nesting
        check above has records to compare in d = 1 as well."""
        config = st.StoppingConfig(N=12, M=1.5)
        fam = st.random_family(1, np.random.default_rng(seed), profile="peaked", config=config, grid_depth=10)
        result = st.heavy_cubes(fam, config, 10)
        assert len(result.trace["generations"]) >= 2
        assert_nested(result.trace["generations"])
        assert st.exhaustive_verify(fam, config, result)["ok"]


def assert_nested(gens):
    """Each generation's cubes lie strictly inside a light cube of the one before."""
    for before, record in zip(gens, gens[1:]):
        starts = set(before["light"])
        assert all(set(ancestors(cube)[:-1]) & starts for cube in record["heavy"] + record["light"])


class TestRandomFamily:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rejects_depth_below_five(self, d):
        with pytest.raises(ValueError, match="grid_depth must be >= 5"):
            st.random_family(d, np.random.default_rng(0), config=CONFIG, grid_depth=4)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"profile": "hot"}, "^profile must be 'bulk', 'peaked' or 'mixed', got 'hot'"),
            ({"grid_depth": 7.5}, "^grid_depth must be an integer, got 7.5"),
            ({"max_balls": 2.5}, "^max_balls must be an integer >= 2, got 2.5"),
            ({"max_balls": 1}, "^max_balls must be an integer >= 2, got 1"),
            ({"d": 0}, "^d must be an integer >= 1, got 0"),
        ],
        ids=["profile", "grid_depth", "max_balls-float", "max_balls-1", "d-0"],
    )
    def test_bad_argument_is_named_before_any_draw(self, kwargs, match):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            st.random_family(**{"d": 2, "rng": rng, "config": CONFIG, **kwargs})
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_depth_five_works(self, d):
        for seed in range(5):
            fam = st.random_family(d, np.random.default_rng(seed), config=CONFIG, grid_depth=5)
            assert fam.d == d and np.all(fam.radii >= 4.0 * 2.0**-5)


class TestStoppingConfig:
    @pytest.mark.parametrize("param", ["N", "M", "gamma", "c", "A"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, param, bad):
        with pytest.raises(st.ConfigurationError, match="finite"):
            st.StoppingConfig(**{"N": 40.0, "M": 2.0, param: bad})

    @pytest.mark.parametrize("gamma,M,c,A", [(1, 2.0, 1.0, 1.0), (2, 1.5, 0.5, 1.2)])
    def test_guarantee_bound(self, gamma, M, c, A):
        bound = A ** ((gamma + 1) ** 2) * M ** (gamma + 2) / c
        with pytest.raises(st.ConfigurationError):
            st.StoppingConfig(N=bound, M=M, gamma=gamma, c=c, A=A, guarantee=True)
        with pytest.raises(st.ConfigurationError):
            st.StoppingConfig(N=0.5 * bound, M=M, gamma=gamma, c=c, A=A, guarantee=True)
        st.StoppingConfig(N=bound * (1 + 1e-9), M=M, gamma=gamma, c=c, A=A, guarantee=True)
        st.StoppingConfig(N=0.5 * bound, M=M, gamma=gamma, c=c, A=A)

    @pytest.mark.parametrize("weight", [1.0, 1000.0])  # 1000 would take the early exit
    def test_guarantee_run_needs_recommended_A(self, weight):
        fam = st.BallFamily(np.array([[0.5, 0.5]]), np.array([0.2]), np.array([weight]))
        config = st.StoppingConfig(N=1e6, M=2, A=2.0, guarantee=True)
        assert config.A < st.recommended_A(2, config.gamma)
        with pytest.raises(st.ConfigurationError):
            st.heavy_cubes(fam, config, 5)
