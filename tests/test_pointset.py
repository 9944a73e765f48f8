"""Cloud generators, regularity scans, projection measures, overlap queries."""

import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectilab import beta as bt
from rectilab import cubes as cb
from rectilab import pointset as ps
from rectilab.grassmann import GrassmannBall, Subspace, metric, sample_haar, sample_in_ball

from helpers import exact_regularity, random_rotation

X_AXIS = Subspace.axis(2, 0)
Y_AXIS = Subspace.axis(2, 1)
# holds the unit square, so all of a four-corners cloud
UNIT_SQUARE_BALL = ps.Ball(np.full(2, 0.5), 1.0)


def direction(theta: float) -> Subspace:
    return Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))


class TestFourCorners:
    def test_generation_one(self):
        c = ps.four_corners(1)
        assert len(c.points) == 4
        assert c.total_weight == pytest.approx(1.0, abs=1e-15)

    def test_generation_two_separation(self):
        c = ps.four_corners(2)
        assert len(c.points) == 16
        d = np.linalg.norm(c.points[:, None, :] - c.points[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.5 * 4.0**-2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_x_shadow_is_half_power(self, k):
        c = ps.four_corners(k)
        # independent oracle: occupied columns counted in integer arithmetic
        cols = {int(round(x * 4**k - 0.5)) for x in c.points[:, 0]}
        assert len(cols) == 2**k
        measured = ps.projection_measure(c, X_AXIS, UNIT_SQUARE_BALL, 4.0**-k)
        assert measured == 2**k * 4.0**-k == 0.5**k

    def test_mass_conserved_across_generations(self):
        assert ps.four_corners(3).total_weight == ps.four_corners(4).total_weight == 1.0

    def test_deterministic(self):
        a, b = ps.four_corners(3), ps.four_corners(3)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("k", [True, 3.0])
    def test_generation_is_an_integer(self, k):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}"):
            ps.four_corners(k)


class TestHrycak:
    def test_m2_four_segments(self):
        c = ps.hrycak(2)
        assert len(c.points) == 4
        assert c.resolution == pytest.approx(0.25)
        assert c.total_weight == pytest.approx(1.0)

    def test_m3_twenty_seven_segments(self):
        c = ps.hrycak(3)
        assert len(c.points) == 27
        assert c.resolution == pytest.approx(3.0**-3)

    def test_max_projection_decreases(self):
        def max_shadow(cloud):
            ball = ps.Ball(np.zeros(2), 1.0)  # the cloud is a path of length 1 from the origin
            return max(
                ps.projection_measure(cloud, direction((i + 0.5) * math.pi / 180), ball, cloud.resolution)
                for i in range(180)
            )

        assert max_shadow(ps.hrycak(4)) < max_shadow(ps.hrycak(2))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_m_to_the_m_points_of_weight_m_to_the_minus_m(self, m):
        c = ps.hrycak(m)
        assert c.points.shape == (m**m, 2)
        assert np.array_equal(c.weights, np.full(m**m, float(m) ** -m))

    def test_range_check(self):
        with pytest.raises(ValueError):
            ps.hrycak(1)
        with pytest.raises(ValueError):
            ps.hrycak(6)

    def test_m_is_an_integer(self):
        with pytest.raises(ValueError, match="^m must be an integer, got "):
            ps.hrycak(np.float64(3))


class TestLipschitzGraph:
    def test_flat_graph_unit_mass(self):
        c = ps.lipschitz_graph_cloud(lambda t: [0.0], X_AXIS, 0.5, 1e-3)
        assert abs(c.total_weight - 1.0) <= 1e-3
        assert np.allclose(c.points[:, 1], 0.0)

    def test_tent_arclength(self):
        c = ps.lipschitz_graph_cloud(lambda t: [abs(t[0] - 0.5)], X_AXIS, 1.0, 1e-3)
        assert abs(c.total_weight - math.sqrt(2.0)) <= 2e-3

    def test_sine_matches_quadrature(self):
        f = lambda t: [0.2 * math.sin(2.0 * math.pi * t[0])]
        c = ps.lipschitz_graph_cloud(f, X_AXIS, 1.3, 1e-3)
        # quadrature oracle for the arclength
        ts = np.linspace(0.0, 1.0, 20001)
        fp = 0.4 * math.pi * np.cos(2.0 * math.pi * ts)
        arclength = np.trapezoid(np.sqrt(1.0 + fp**2), ts)
        assert abs(c.total_weight - arclength) <= 0.01 * arclength

    def test_lipschitz_violation_reports_witness(self):
        with pytest.raises(ps.LipschitzViolationError) as err:
            ps.lipschitz_graph_cloud(lambda t: [2.0 * t[0]], X_AXIS, 1.0, 1e-2)
        assert err.value.observed > 1.0
        assert err.value.witness is not None

    @pytest.mark.parametrize("resolution", [0.7, 1.0, 5.0, 0.0, -0.1, math.nan])
    def test_fewer_than_two_cells_rejected_before_f(self, resolution):
        calls = []
        with pytest.raises(ValueError, match=f"resolution {resolution} leaves fewer than 2 grid cells"):
            ps.lipschitz_graph_cloud(lambda t: calls.append(t) or 0.3, X_AXIS, 0.5, resolution)
        assert calls == []

    def test_two_cells_per_axis_suffice(self):
        cloud = ps.lipschitz_graph_cloud(lambda t: [0.3], Subspace.axis(3, 0, 1), 0.5, 0.6)
        assert len(cloud.points) == 4 and cloud.total_weight == pytest.approx(1.0)

    @pytest.mark.parametrize("v, value", [(X_AXIS, [0.0, 0.0]), (Subspace.axis(3, 0), [0.0])])
    def test_wrong_number_of_coordinates_is_named(self, v, value):
        with pytest.raises(ValueError, match=f"f must return d - n = {v.d - v.n} coordinates per point"):
            ps.lipschitz_graph_cloud(lambda t: value, v, 0.5, 0.1)


class TestGeneratorResolution:
    @pytest.mark.parametrize("make", [ps.segment, ps.circle])
    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.inf, math.nan])
    def test_bad_resolution_is_named(self, make, resolution):
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            make(resolution)


class TestEstimateRegularity:
    def test_segment_closed_form_bound(self):
        # oracle: mass of B(x, r) on a cell-centred segment is h*(odd count),
        # bounded by 2r + h, and at least r for interior-touching balls, so
        # the worst ratio over r >= 4h is 2 + h/(4h) = 2.25.
        cloud = ps.segment(1e-3)
        rep = ps.estimate_regularity(cloud, 3000, np.random.default_rng(2))
        assert rep.C0_estimate <= 2.25 + 1e-9
        assert rep.C0_estimate >= 1.5

    def test_four_corners_brute_force(self):
        cloud = ps.four_corners(4)
        rep = ps.estimate_regularity(cloud, 2000, np.random.default_rng(3))
        # exhaustive oracle: mass is a step function of the radius, so the
        # exact sup over all (center, radius in [4h, diam]) is attained at the
        # jump radii (for mass/r) and approached at piece right-ends (r/mass)
        r_lo, r_hi = 4.0 * cloud.resolution, cloud.diameter
        w = cloud.weights[0]
        dists = np.sort(
            np.linalg.norm(cloud.points[:, None, :] - cloud.points[None, :, :], axis=-1), axis=1
        )
        worst = 1.0
        for row in dists:
            masses = w * np.arange(1, len(row) + 1)
            for i in range(len(row)):
                r = max(row[i], r_lo)
                if r > r_hi:
                    break
                worst = max(worst, masses[i] / r)
                nxt = min(row[i + 1] if i + 1 < len(row) else r_hi, r_hi)
                if nxt >= r_lo and masses[i] > 0:
                    worst = max(worst, nxt / masses[i])
        assert worst <= 10.0
        assert rep.C0_estimate <= worst + 1e-9

    @pytest.mark.parametrize(
        "make, exact",
        [
            (lambda: ps.segment(1e-2), 2.25),
            (lambda: ps.four_corners(3), 3.0),
            (lambda: ps.circle(0.05), math.pi),
            (lambda: ps.hrycak(3), 2.4247),
            (lambda: ps.lipschitz_graph_cloud(lambda t: 0.25 * np.sin(2.0 * np.pi * t[0]), X_AXIS, 1.6, 2.0**-7), 2.9400),
            (lambda: ps.lipschitz_graph_cloud(
                lambda t: 0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1]), Subspace.axis(3, 0, 1), 1.8, 2.0**-4
            ), 4.1058),
        ],
        ids=["segment", "four-corners", "circle", "hrycak", "curve", "surface"],
    )
    def test_bounded_by_the_exact_supremum(self, make, exact):
        """No estimate exceeds the supremum over every ball it can draw, whose
        value on each cloud is pinned to 4 decimals here."""
        cloud = make()
        sup = exact_regularity(cloud)
        assert sup == pytest.approx(exact, rel=1e-4)
        for seed in range(5):
            assert ps.estimate_regularity(cloud, 2000, np.random.default_rng(seed)).C0_estimate <= sup * (1 + 1e-12)

    def test_planar_disc_interior_density(self):
        v = Subspace.axis(3, 0, 1)
        sheet = ps.lipschitz_graph_cloud(lambda t: [0.0], v, 0.5, 0.01)
        r = 0.2
        mass = sheet.ball_mass(ps.Ball(np.array([0.5, 0.5, 0.0]), r))
        assert mass / r**2 == pytest.approx(math.pi, rel=0.05)


def _regularity_scan(cloud, trials, rng):
    """``estimate_regularity`` without bounds: every drawn ball summed over the points that
    ``Ball.contains`` accepts, then the first ball of the largest ratio. Returns
    (C0, centre, radius) and every ball's ratio, mass and centre index."""
    r_lo = 4.0 * cloud.resolution
    r_hi = max(cloud.diameter, r_lo * (1.0 + 1e-9))
    idx = rng.choice(len(cloud.points), size=trials, p=cloud.weights / cloud.total_weight)
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=trials))
    balls = [ps.Ball(cloud.points[i], r) for i, r in zip(idx, radii)]
    masses = np.array([cloud.weights[ball.contains(cloud.points)].sum() for ball in balls])
    rn = radii**cloud.n
    ratios = np.maximum(masses / rn, rn / masses)
    k = int(np.argmax(ratios))
    worst, k = (float(ratios[k]), k) if ratios[k] > 1.0 else (1.0, 0)
    return (worst, cloud.points[idx[k]], float(radii[k])), ratios, masses, idx


class _OneRadius:
    """A generator stand-in that draws centres as ``np.random.Generator`` does and gives every
    ball one radius, so balls at equally placed centres tie exactly."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def uniform(self, low, high, size):
        return np.full(size, self.rng.uniform(low, high))


def _zero_weight_segment():
    seg = ps.segment(1e-2)
    w = seg.weights.copy()
    w[::3] = 0.0
    return ps.RegularCloud(seg.points, w, 1, seg.resolution, generator="segment-with-gaps")


REGULARITY_CLOUDS = {
    "segment": lambda: ps.segment(1e-2),
    "whole_cloud": lambda: ps.four_corners(2),  # r_lo = 0.25, diameter 1.33: about 6 % of the balls hold all 16
    "zero_weight": _zero_weight_segment,
    "curve": lambda: ps.lipschitz_graph_cloud(lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], X_AXIS, 1.6, 2.0**-7),
    "surface": lambda: ps.lipschitz_graph_cloud(
        lambda t: [0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])],
        Subspace.axis(3, 0, 1),
        1.8,
        2.0**-4,
    ),
}


class TestRegularityBounds:
    """The bounded scan reports what summing every ball reports, bit for bit."""

    @staticmethod
    def _same(cloud, trials, make_rng):
        rep = ps.estimate_regularity(cloud, trials, make_rng())
        (worst, center, radius), *scan = _regularity_scan(cloud, trials, make_rng())
        assert rep.C0_estimate == worst and rep.worst_ball.radius == radius
        assert rep.worst_ball.center.tobytes() == center.tobytes()
        assert rep.samples == trials
        return scan

    @pytest.mark.parametrize("name", sorted(REGULARITY_CLOUDS))
    @pytest.mark.parametrize("trials", [1, 7, 2000])
    def test_equals_the_full_scan(self, name, trials, monkeypatch):
        cloud = REGULARITY_CLOUDS[name]()
        summed, batches = [], ps._ball_batches

        def counted(c, centers, radii, *counts):
            summed.append(len(radii))
            return batches(c, centers, radii, *counts)

        monkeypatch.setattr(ps, "_ball_batches", counted)
        whole = 0
        for seed in range(3):
            _, masses, _ = self._same(cloud, trials, lambda: np.random.default_rng([seed, trials]))
            whole += int((masses == cloud.total_weight).sum())
        if trials == 2000 and name in ("segment", "curve", "surface"):
            assert sum(summed) < 3 * trials  # the bounds leave balls unsummed
        if trials == 2000 and name == "whole_cloud":
            assert whole > 300

    @pytest.mark.parametrize("name", ["segment", "curve", "surface", "zero_weight"])
    def test_best_bound_first_sums_fewer_balls_than_the_bounds_keep(self, name, monkeypatch):
        # summed balls are the ones the selection runs yield; the scan stops once a run's leading
        # upper bound is below the worst ratio summed, and with zero weights the lower bound counts
        # only the inner points that can weigh
        cloud = REGULARITY_CLOUDS[name]()
        kept, summed, batches = [], [], ps._ball_batches

        def counted(c, centers, radii, *counts):
            kept.append(len(radii))
            summed.append(0)
            for run in batches(c, centers, radii, *counts):
                summed[-1] += len(run[1]) - 1
                yield run

        monkeypatch.setattr(ps, "_ball_batches", counted)
        for seed in range(3):
            self._same(cloud, 2000, lambda: np.random.default_rng([seed, 2000]))
        if name == "segment":  # the bounds alone keep one ball, the worst
            assert kept == summed == [1, 1, 1]
        else:
            assert len(summed) == 3 and all(s < k for s, k in zip(summed, kept))
        if name == "zero_weight":
            assert max(summed) < 2000

    @pytest.mark.parametrize("trials", [7, 2000])
    def test_first_of_equal_ratios(self, trials):
        cloud = ps.segment(1e-2)
        ties = 0
        for seed in range(5):
            ratios, _, idx = self._same(cloud, trials, lambda: _OneRadius(seed))
            ties += len(np.unique(idx[ratios == ratios.max()])) > 1
        assert ties >= 3  # several centres share the worst ratio, and the first is reported

    def test_first_of_equal_ratios_with_unequal_bounds(self):
        # ball 0 holds one point of weight 1, ball 1 two of weight 0.5 at the same radius: equal
        # ratios, but ball 1's upper bound is twice ball 0's, so it is summed first; ball 0 is reported
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.5, 0.0]])
        cloud = ps.RegularCloud(pts, np.array([1.0, 0.5, 0.5]), 1, 0.1, validate=False)

        class Draws:
            def choice(self, *args, **kwargs):
                return np.array([0, 1])

            def uniform(self, low, high, size):
                return np.full(size, math.log(0.6))

        ratios, _, _ = self._same(cloud, 2, Draws)
        assert ratios[0] == ratios[1]

    @pytest.mark.parametrize("name", ["segment", "zero_weight", "curve"])
    def test_two_count_queries(self, name):
        # the mass bounds' outer counts also plan the summing runs: no third count query
        cloud = REGULARITY_CLOUDS[name]()
        tree, counted = cloud.tree, []

        class CountingTree:
            def query_ball_point(self, *args, **kwargs):
                counted.append(bool(kwargs.get("return_length")))
                return tree.query_ball_point(*args, **kwargs)

            def __getattr__(self, attr):
                return getattr(tree, attr)

        cloud.__dict__["tree"] = CountingTree()
        rep = ps.estimate_regularity(cloud, 2000, np.random.default_rng(1))
        cloud.__dict__["tree"] = tree
        again = ps.estimate_regularity(cloud, 2000, np.random.default_rng(1))
        assert (rep.C0_estimate, rep.worst_ball.radius) == (again.C0_estimate, again.worst_ball.radius)
        assert sum(counted) == 2 and len(counted) >= 3  # two count-only queries, then the selections

    def test_zero_weight_points_stay_out(self):
        cloud = _zero_weight_segment()
        assert cloud.weights.min() == 0.0
        rep = ps.estimate_regularity(cloud, 2000, np.random.default_rng(4))
        i = np.flatnonzero((cloud.points == rep.worst_ball.center).all(axis=1))
        assert cloud.weights[i[0]] > 0.0


class TestCountArguments:
    @pytest.mark.parametrize("trials", [2.5, True, 0, -3, "7", None])
    def test_estimate_regularity_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            ps.estimate_regularity(ps.segment(1e-2), trials, np.random.default_rng(0))

    def test_estimate_regularity_numpy_integer(self):
        rep = ps.estimate_regularity(ps.segment(1e-2), np.int64(5), np.random.default_rng(0))
        assert rep.samples == 5

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_candidates": 0}, "n_candidates"),
            ({"n_candidates": -1}, "n_candidates"),
            ({"n_candidates": 2.0}, "n_candidates"),
            ({"n_candidates": True}, "n_candidates"),
            ({"n_directions": 16.5}, "n_directions"),
            ({"n_directions": 15}, "n_directions"),
            ({"n_directions": True}, "n_directions"),
        ],
    )
    def test_pbp_margin_counts(self, kwargs, name):
        args = {"n_directions": 16, **kwargs}
        n_dir = args.pop("n_directions")
        cloud = ps.segment(1e-2)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
            ps.pbp_margin(cloud, ps.Ball(np.array([0.5, 0.0]), 0.3), 0.1, n_dir, np.random.default_rng(0), **args)


class TestProjectionMeasure:
    def test_segment_shadow_on_its_axis(self):
        cloud = ps.segment(1e-3)
        ball = ps.Ball(np.zeros(2), 2.0)
        m = ps.projection_measure(cloud, X_AXIS, ball, 1e-2)
        assert abs(m - 1.0) <= 1e-2

    def test_segment_shadow_transverse(self):
        cloud = ps.segment(1e-3)
        ball = ps.Ball(np.zeros(2), 2.0)
        assert ps.projection_measure(cloud, Y_AXIS, ball, 1e-2) <= 1e-2

    def test_zero_weight_points_cast_no_shadow(self):
        # zero-weight points lie outside the measure's support: counted, the ones along x = 0.5
        # would stretch the segment's y-axis shadow in B((0.5, 0), 0.3) from 0.01 to 0.29
        seg = ps.segment(1e-2)
        ys = np.linspace(-0.29, 0.29, 30)
        pts = np.vstack([seg.points, np.c_[np.full(len(ys), 0.5), ys]])
        cloud = ps.RegularCloud(pts, np.r_[seg.weights, np.zeros(len(ys))], 1, seg.resolution, validate=False)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.3)
        assert ps.projection_measure(cloud, Y_AXIS, ball, 1e-2) == pytest.approx(1e-2)
        for v in (X_AXIS, Y_AXIS):
            assert ps.projection_measure(cloud, v, ball, 1e-2) == ps.projection_measure(seg, v, ball, 1e-2)
        v0, margin = ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(5))
        ref_v0, ref = ps.pbp_margin(seg, ball, 0.2, 16, np.random.default_rng(5))
        assert v0.basis.tobytes() == ref_v0.basis.tobytes() and margin == ref

    def test_four_corners_tiling_direction(self):
        cloud = ps.four_corners(4)
        v = Subspace(np.array([[2.0], [1.0]]) / math.sqrt(5.0))  # slope-1/2 shadow tiles
        shadow = ps.projection_measure(cloud, v, UNIT_SQUARE_BALL, cloud.resolution)
        square_shadow = 3.0 / math.sqrt(5.0)
        assert shadow >= 0.4 * square_shadow

    def test_monotone_in_ball_and_subadditive(self):
        cloud = ps.four_corners(3)
        v = direction(0.3)
        small = ps.Ball(np.array([0.4, 0.4]), 0.3)
        big = ps.Ball(np.array([0.4, 0.4]), 0.9)
        g = cloud.resolution
        assert ps.projection_measure(cloud, v, small, g) <= ps.projection_measure(cloud, v, big, g)
        # splitting a ball into two half-radius balls can only lose points,
        # and cell counting is subadditive over unions
        left = ps.Ball(np.array([0.25, 0.4]), 0.45)
        right = ps.Ball(np.array([0.55, 0.4]), 0.45)
        total = ps.projection_measure(cloud, v, big, g)
        assert total <= (
            ps.projection_measure(cloud, v, left, g)
            + ps.projection_measure(cloud, v, right, g)
            + ps.projection_measure(cloud, v, big, g)
        )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_counts_distinct_cells(self, dim):
        # oracle: distinct rows by np.unique over the brute-force ball mask
        v = Subspace.axis(dim, *range(dim - 1))
        f = lambda t: [0.2 * np.sin(5.0 * t.sum())]  # noqa: E731
        cloud = ps.lipschitz_graph_cloud(f, v, 2.0, 2.0**-6)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            w = Subspace(np.linalg.qr(rng.standard_normal((dim, dim - 1)))[0])
            ball = ps.Ball(rng.uniform(0.0, 1.0, dim), rng.uniform(0.05, 0.8))
            g = cloud.resolution * rng.uniform(1.0, 4.0)
            coords = cloud.points[_brute_ball(cloud.points, ball)] @ w.basis
            expected = len(np.unique(np.floor(coords / g).astype(np.int64), axis=0)) * g ** (dim - 1)
            assert ps.projection_measure(cloud, w, ball, g) == expected

    def test_empty_intersection(self):
        cloud = ps.segment(1e-2)
        assert ps.projection_measure(cloud, X_AXIS, ps.Ball(np.array([5.0, 5.0]), 0.1), 1e-2) == 0.0


class TestCheckPBP:
    def test_segment_witness_near_x_axis(self):
        cloud = ps.segment(1e-3)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.5)
        v0, margin = ps.pbp_margin(cloud, ball, 0.1, 32, np.random.default_rng(5), grid_resolution=5e-3)
        assert margin > 0.0
        assert abs(float(v0.basis[0, 0])) > 0.99  # close to the x-axis

    def test_four_corners_margin_decays(self):
        # a margin is a sampled minimum, and one seed's sequence need not fall at every
        # generation (seeds 0, 6 and 7 of 0..9 rise somewhere), so compare means over ten seeds
        ball = ps.Ball(np.array([0.5, 0.5]), 0.75)
        margins = [
            np.mean([ps.pbp_margin(ps.four_corners(k), ball, 0.3, 24, np.random.default_rng(seed), n_candidates=5)[1]
                     for seed in range(10)])
            for k in range(2, 6)
        ]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_graph_witness(self):
        cloud = ps.lipschitz_graph_cloud(lambda t: [abs(t[0] - 0.5)], X_AXIS, 1.0, 2e-3)
        ball = ps.Ball(np.array([0.5, 0.25]), 0.67)  # about 1.2 times the half-diameter
        _, margin = ps.pbp_margin(cloud, ball, 0.2, 32, np.random.default_rng(8), grid_resolution=8e-3)
        assert margin >= 0.0

    def test_delta_monotonicity(self):
        cloud = ps.segment(1e-3)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.5)
        for seed in (1, 2, 3):
            _, big = ps.pbp_margin(cloud, ball, 0.2, 24, np.random.default_rng(seed), grid_resolution=5e-3)
            _, small = ps.pbp_margin(cloud, ball, 0.09, 24, np.random.default_rng(seed), grid_resolution=5e-3)
            assert big >= 0.0 and small >= 0.0


def pbp_reference(cloud, ball, delta, n_directions, rng, n_candidates=8, g=None):
    """The per-direction loop on ``projection_measure``: one ball selection per shadow, on the
    same draws (one ``sample_in_ball`` batch per candidate)."""
    g = cloud.resolution if g is None else g
    n = cloud.n
    idx = _brute_ball(cloud.points, ball)
    idx = idx[cloud.weights[idx] > 0]
    if len(idx) <= n:
        v0 = Subspace.axis(cloud.d, *range(n))
    else:
        v0 = Subspace(ps._pca_frame(cloud.points[idx], cloud.weights[idx], n)[0])
    candidates = [v0] + [sample_haar(cloud.d, n, rng) for _ in range(n_candidates - 1)]
    best_v0, best = candidates[0], -math.inf
    for v0 in candidates:
        margin = math.inf
        for basis in sample_in_ball(GrassmannBall(v0, delta), rng, n_directions):
            v = Subspace(basis)
            margin = min(margin, ps.projection_measure(cloud, v, ball, g) / ball.radius**n - delta)
            if margin < best:
                break
        if margin > best:
            best_v0, best = v0, margin
    return best_v0, best


class TestPBPMarginReference:
    CASES = {
        "segment": lambda: (ps.segment(1e-3), ps.Ball(np.array([0.5, 0.0]), 0.5), 5e-3),
        "four_corners": lambda: (ps.four_corners(4), ps.Ball(np.array([0.5, 0.5]), 0.75), None),
        "surface": lambda: (
            ps.lipschitz_graph_cloud(
                lambda t: [0.15 * np.sin(3.0 * t[0]) * np.cos(2.0 * t[1])], Subspace.axis(3, 0, 1), 1.0, 2.0**-4
            ),
            ps.Ball(np.array([0.5, 0.5, 0.0]), 0.4),
            None,
        ),
        # at most n points in the ball: the axis plane is the first candidate
        "tiny_ball": lambda: (ps.four_corners(3), ps.Ball(np.array([1.0 / 128, 1.0 / 128]), 1e-3), None),
        # only zero-weight points in the ball: no PCA plane, so the axis plane again
        "zero_weight": lambda: (
            ps.RegularCloud(
                np.array([[0.1, 0.1], [0.2, 0.15], [0.3, 0.1], [0.4, 0.2], [0.9, 0.9]]),
                np.array([0.0, 0.0, 0.0, 0.0, 0.1]),
                1,
                0.05,
            ),
            ps.Ball(np.array([0.25, 0.12]), 0.2),
            None,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_per_direction_loop(self, case):
        cloud, ball, g = self.CASES[case]()
        for seed in (3, 4):
            v0, margin = ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(seed), grid_resolution=g)
            ref_v0, ref = pbp_reference(cloud, ball, 0.2, 16, np.random.default_rng(seed), g=g)
            assert v0.basis.tobytes() == ref_v0.basis.tobytes()
            assert margin == ref

    def test_tiny_ball_takes_axis_candidate(self):
        cloud, ball, _ = self.CASES["tiny_ball"]()
        assert len(cloud.ball_indices(ball)) <= cloud.n
        v0, _ = ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(3))
        assert np.array_equal(v0.basis, Subspace.axis(2, 0).basis)

    def test_zero_weight_ball_takes_axis_candidate(self):
        cloud, ball, _ = self.CASES["zero_weight"]()
        idx = cloud.ball_indices(ball)
        assert len(idx) > cloud.n and not cloud.weights[idx].any()
        v0, margin = ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(3), n_candidates=1)
        assert np.array_equal(v0.basis, Subspace.axis(2, 0).basis)
        assert math.isfinite(margin)

    def test_selects_the_ball_once(self, monkeypatch):
        cloud, ball, _ = self.CASES["four_corners"]()
        calls = []
        ball_indices = ps.RegularCloud.ball_indices

        def counted(self, b):
            calls.append(b)
            return ball_indices(self, b)

        monkeypatch.setattr(ps.RegularCloud, "ball_indices", counted)
        ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(3))
        assert calls == [ball]

    def test_rejects_grid_below_resolution(self):
        cloud, ball, _ = self.CASES["four_corners"]()
        with pytest.raises(ValueError, match="grid_resolution"):
            ps.pbp_margin(cloud, ball, 0.2, 16, np.random.default_rng(3), grid_resolution=cloud.resolution / 2)


class TestPBPMarginPlaneOnly:
    """The margin depends on the candidate planes alone, not on the bases they are given in."""

    # the graph-refine benchmark's clouds: (function, domain, Lipschitz bound, resolution, top level of
    # the lattice, level of the PBP balls)
    GRAPH_REFINE = {
        "curve": (lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 1.6, 2.0**-11, 7, 3),
        "surface": (
            lambda t: [0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])],
            Subspace.axis(3, 0, 1), 1.8, 2.0**-5, 3, 2,
        ),
    }
    # a turn of the PCA frame inside its own plane: a sign flip of a line, a rotation of a plane
    TURNS = {1: -np.eye(1), 2: np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])}

    @pytest.mark.parametrize("name", sorted(GRAPH_REFINE))
    def test_turning_the_pca_frame_keeps_every_margin(self, monkeypatch, name):
        f, domain, lipschitz, resolution, j_max, level = self.GRAPH_REFINE[name]
        cloud = ps.lipschitz_graph_cloud(f, domain, lipschitz, resolution)
        lat = cb.CubeLattice(cloud, 0, j_max)
        balls = [lat.ball(q) for q in lat.cubes[level].values()]

        def margins():
            out = []
            for seed in range(3):
                rng = np.random.default_rng(seed)
                out += [ps.pbp_margin(cloud, ball, 0.1, 16, rng) for ball in balls]
            return out

        plain = margins()
        pca_frame, turn = ps._pca_frame, self.TURNS[cloud.n]

        def turned_frame(pts, w, n):
            frame, normals, mean = pca_frame(pts, w, n)
            return frame @ turn, normals, mean

        monkeypatch.setattr(ps, "_pca_frame", turned_frame)
        turned = margins()
        assert len(balls) == {"curve": 12, "surface": 16}[name]
        for (v0, margin), (t0, t_margin) in zip(plain, turned):
            assert t_margin == margin
            assert metric(v0, t0) <= 1e-12  # the same best plane
        # the turn reached the sampler: some best candidates are PCA planes, now in another basis
        assert any(np.abs(v0.basis - t0.basis).max() > 0.1 for (v0, _), (t0, _) in zip(plain, turned))


class TestGraphOverlap:
    def test_cloud_against_itself(self):
        cloud = ps.segment(1e-2)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.25)
        assert ps.graph_overlap(cloud, cloud, ball) == pytest.approx(cloud.ball_mass(ball))

    def test_cantor_against_axis_graph(self):
        cloud = ps.four_corners(3)
        graph = ps.segment(cloud.resolution)
        ball = UNIT_SQUARE_BALL
        # distance-histogram oracle: points within matching tolerance of y=0
        tol = 2.0 * max(cloud.resolution, graph.resolution)
        expected = cloud.weights[np.abs(cloud.points[:, 1]) <= tol].sum()
        got = ps.graph_overlap(cloud, graph, ball)
        assert got <= expected + 1e-12
        assert got <= 0.3 * cloud.ball_mass(ball)

    def test_segment_against_its_rotation(self):
        h = 1e-3
        seg = ps.segment(h)
        shifted = seg.points - np.array([0.5, 0.0])
        base = ps.RegularCloud(shifted, seg.weights, 1, h, generator="seg0")
        theta = math.pi / 4
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        rotated = base.rotated(rot)
        ball = ps.Ball(np.zeros(2), 0.5)
        overlap = ps.graph_overlap(base, rotated, ball)
        # only the crossing neighbourhood at the origin matches: a handful of
        # points within the 2h tolerance of the diagonal line
        assert overlap <= 20.0 * h
        assert overlap > 0.0


class TestBallValidation:
    @pytest.mark.parametrize("radius", [-1e-9, -1.0, math.inf, math.nan])
    def test_bad_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            ps.Ball(np.zeros(2), radius)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bad_center(self, bad):
        with pytest.raises(ValueError, match="center"):
            ps.Ball(np.array([0.5, bad]), 1.0)

    @pytest.mark.parametrize("center", [np.zeros((2, 2)), np.zeros((1, 2)), 0.5])
    def test_center_must_be_one_point(self, center):
        with pytest.raises(ValueError, match="ball center must be one finite point, a 1-D array"):
            ps.Ball(center, 1.0)

    @pytest.mark.parametrize(
        "query",
        [
            bt.beta1,
            ps.RegularCloud.ball_mass,
            lambda cloud, ball: ps.pbp_margin(cloud, ball, 0.1, 16, np.random.default_rng(0)),
        ],
        ids=["beta1", "ball_mass", "pbp_margin"],
    )
    def test_wrong_dimension_raises_before_the_tree(self, query):
        corners = ps.four_corners(3)
        cloud = ps.RegularCloud(corners.points, corners.weights, corners.n, corners.resolution, validate=False)
        with pytest.raises(ValueError, match="ball centres of dimension 3 in a cloud of dimension 2"):
            query(cloud, ps.Ball(np.array([0.5, 0.5, 0.5]), 0.5))
        assert "tree" not in vars(cloud)  # rejected before the k-d tree was built

    def test_zero_radius_holds_its_centre(self):
        cloud = ps.segment(0.1)
        ball = ps.Ball(cloud.points[3], 0.0)
        assert list(cloud.ball_indices(ball)) == [3]


def _brute_ball(points, ball):
    return np.flatnonzero(np.linalg.norm(points - ball.center, axis=1) <= ball.radius)


class TestBallIndices:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["plain", "dilated", "rotated"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_brute_force_mask(self, seed, size, d, kind):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1.0, 1.0, d)
        radius = float(rng.uniform(0.0, 1.5))
        # a third of the points sit on the sphere, up to rounding either way
        on_sphere = rng.standard_normal((size // 3, d))
        on_sphere = center + radius * on_sphere / np.linalg.norm(on_sphere, axis=1, keepdims=True)
        pts = np.vstack([rng.uniform(-2.0, 2.0, (size - len(on_sphere), d)), on_sphere])
        cloud = ps.RegularCloud(pts, np.ones(size), 1, 1e-3, validate=False)
        ball = ps.Ball(center, radius)
        if kind == "dilated":
            cloud, ball = cloud.dilated(3.0), ps.Ball(3.0 * center, 3.0 * radius)
        elif kind == "rotated":
            g = random_rotation(d, rng)
            cloud, ball = cloud.rotated(g), ps.Ball(g @ center, radius)
        got = cloud.ball_indices(ball)
        assert np.array_equal(got, _brute_ball(cloud.points, ball))
        assert cloud.ball_mass(ball) == float(cloud.weights[_brute_ball(cloud.points, ball)].sum())

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_selection_equals_per_ball_selection(self, seed, d, size, count):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1.0, 1.0, (count, d))
        radii = rng.uniform(0.0, 1.0, count)
        # one point exactly on the first sphere: dyadic offsets whose squares sum exactly
        centers[0], radii[0] = np.round(centers[0] * 64.0) / 64.0, 0.625 if d == 2 else 0.375
        offset = np.array([0.375, 0.5]) if d == 2 else np.array([0.125, 0.25, 0.25])
        pts = np.vstack([rng.uniform(-2.0, 2.0, (size, d)), centers[0] + offset, centers[1:]])
        cloud = ps.RegularCloud(pts, np.ones(len(pts)), 1, 1e-3, validate=False)
        indptr, idx = cloud.balls_indices(centers, radii)
        assert len(indptr) == count + 1 and indptr[0] == 0 and indptr[-1] == len(idx)
        for b in range(count):
            ball = ps.Ball(centers[b], radii[b])
            assert np.array_equal(idx[indptr[b] : indptr[b + 1]], cloud.ball_indices(ball))
            assert np.array_equal(idx[indptr[b] : indptr[b + 1]], _brute_ball(cloud.points, ball))
        assert size in idx[: indptr[1]]  # the point on the sphere

    def test_new_cloud_gets_its_own_tree(self):
        cloud = ps.four_corners(3)
        assert cloud.dilated(2.0).tree is not cloud.tree
        assert cloud.rotated(np.eye(2)).tree is not cloud.tree
        assert cloud.tree is cloud.tree


class TestParentValues:
    """Values of the full-scan implementation, which the tree queries must reproduce."""

    @pytest.fixture(scope="class")
    def curve(self):
        f = lambda t: 0.25 * np.sin(2.0 * np.pi * t[0])  # noqa: E731
        return ps.lipschitz_graph_cloud(f, X_AXIS, 1.6, 2.0**-9)

    def test_estimate_regularity(self, curve):
        rep = ps.estimate_regularity(curve, 400, np.random.default_rng(3))
        assert rep.C0_estimate == 2.9109724772566783
        assert rep.worst_ball.radius == 0.4940757326987849
        # brute-force oracle over the same draws
        rng = np.random.default_rng(3)
        idx = rng.choice(len(curve.points), size=400, p=curve.weights / curve.total_weight)
        r_lo, r_hi = 4.0 * curve.resolution, curve.diameter
        radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=400))
        worst = 1.0
        for i, r in zip(idx, radii):
            mass = curve.weights[_brute_ball(curve.points, ps.Ball(curve.points[i], r))].sum()
            worst = max(worst, mass / r, r / mass)
        assert rep.C0_estimate == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize(
        "center, radius, expected",
        [
            ((0.5, 0.0), 0.3, (0.6040676037673571, 0.007273584717117299, 0.0078125)),
            ((0.2, 0.1), 0.25, (0.6384107513022419, 0.0036366949243325517, 0.00390625)),
        ],
    )
    def test_graph_overlap(self, curve, center, radius, expected):
        seg = ps.segment(2.0**-9)
        ball = ps.Ball(np.array(center), radius)
        got = (
            ps.graph_overlap(curve, curve, ball),
            ps.graph_overlap(curve, seg, ball),
            ps.graph_overlap(seg, curve, ball),
        )
        assert got == expected


@st.composite
def spaced_points(draw):
    """Points in d = 2..4 and a resolution, for the spacing rule at delta = resolution/4:
    lattice points delta, 2 delta or 3 delta apart, perhaps a point below the lattice that
    moves the lattice to the far corners of the checked cells, copies of some points moved
    delta (1 + eta) along an axis or the diagonal, eta within a few ulps or 2^-30 of 0 either
    way, a second cluster offset by up to 2^36 delta, so that one integer packing all cell keys
    would pass 2^63, and the whole cloud moved by up to 2^36 delta."""
    d = draw(st.integers(2, 4))
    resolution = draw(st.sampled_from([1.0, 0.3, 2.0**-11, 1e-3]))
    delta = resolution / 4.0
    cells = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=12, unique=True))
    points = np.array(cells, dtype=float) * draw(st.sampled_from([1.0, 2.0, 3.0])) * delta
    below = draw(st.sampled_from([None, 0.75, 0.99]))  # a point below the lattice's corner, at least delta away
    if below is not None:
        points = np.vstack([points.min(axis=0) - below * delta, points])

    def shift():  # a whole number of delta, 0 or about +-2^b for b up to 36
        return draw(st.sampled_from([0, 1, -1])) * 2 ** draw(st.sampled_from([0, 12, 24, 36])) + draw(st.integers(-8, 8))

    points[len(points) // 2 :] += np.array([shift() for _ in range(d)]) * delta
    eta = st.sampled_from([0.0, 2.0**-52, -(2.0**-52), 2.0**-50, -(2.0**-50), 2.0**-30, -(2.0**-30)])
    axis = st.sampled_from([np.eye(d)[k] for k in range(d)] + [np.full(d, d**-0.5)] * d)  # half diagonal
    copies = draw(st.lists(st.tuples(st.integers(0, len(points) - 1), axis, eta), max_size=4))
    points = np.vstack([points] + [points[k] + delta * (1.0 + e) * u for k, u, e in copies])
    return points + shift() * delta, resolution  # one shift for every coordinate keeps the corners


class TestSpacing:
    """A validated cloud rejects two points at most resolution/4 apart, and names them."""

    @given(case=spaced_points())
    @settings(max_examples=500, deadline=None)
    def test_rejects_exactly_the_pairs_within_a_quarter_resolution(self, case):
        points, resolution = case
        i, j = np.triu_indices(len(points), 1)
        close = ps._row_norms(points[i] - points[j]) <= resolution / 4.0
        pairs = set(zip(i[close].tolist(), j[close].tolist()))
        try:
            ps.RegularCloud(points, np.full(len(points), resolution), 1, resolution)
        except ValueError as err:
            named = re.fullmatch(r"points (\d+) and (\d+) are at most resolution/4 apart", str(err))
            assert named and tuple(map(int, named.groups())) in pairs
        else:
            assert not pairs

    def test_a_quarter_apart_is_rejected_and_an_ulp_more_is_not(self):
        with pytest.raises(ValueError, match="points 0 and 1 are at most resolution/4 apart"):
            ps.RegularCloud([[0.0, 0.0], [0.25, 0.0]], [1.0, 1.0], 1, 1.0)
        ps.RegularCloud([[0.0, 0.0], [math.nextafter(0.25, 1.0), 0.0]], [1.0, 1.0], 1, 1.0)

    def test_a_full_cell_does_not_hide_a_pair_in_a_cell_of_the_same_code(self):
        """In d = 3, with cell keys up to 2^22 - 2, cell codes weigh the last key by 2^44, so keys
        0 and 2^20 there wrap to one code. Eight points at the corners of cell 0, pairwise more
        than resolution/4 apart, come first; a close pair in cell (0, 0, 2^20) comes after them."""
        side = 0.25 * (1.0 + 2.0**-8)
        corners = [[a, b, c] for a in (0.001, 0.999) for b in (0.001, 0.999) for c in (0.001, 0.999)]
        far = [[0.001, 0.001, 2.0**20 + 0.5], [0.501, 0.001, 2.0**20 + 0.5], [0.5, 0.5, 2.0**22 - 1.5]]
        points = np.array(corners + far) * side
        ps.RegularCloud(np.delete(points, 9, axis=0), np.ones(10), 1, 1.0)
        with pytest.raises(ValueError, match="points 8 and 9 are at most resolution/4 apart"):
            ps.RegularCloud(points, np.ones(11), 1, 1.0)

    def test_coincident_points_fail_fast(self):
        """20,000 coincident points hold 2 * 10^8 close pairs; the check names the first, the same
        one each time, in bounded memory."""
        points = np.zeros((20_000, 2))
        for _ in range(2):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^points 0 and 1 are at most resolution/4 apart$"):
                    ps.RegularCloud(points, np.ones(len(points)), 1, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20


# coordinate offsets that write in every form: signed zeros, subnormals and 17-digit reprs
SPECIAL_OFFSETS = [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1030, 0.1 + 0.2 - 0.3, 0.1 / 3.0, -1.0 / 9.0]


@st.composite
def valid_clouds(draw):
    """Valid clouds in d = 2 and 3: distinct integer cells offset by at most 1/8
    per coordinate (offsets of cell 0 stand alone, so -0.0 survives), so points
    are at least 3/4 apart, resolution in [1/2, 2], weights inside the density
    band and metadata that JSON holds."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, d - 1))
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=12, unique=True))
    offset = st.one_of(st.sampled_from(SPECIAL_OFFSETS), st.floats(-0.125, 0.125))
    points = np.array([[c + draw(offset) if c else draw(offset) for c in cell] for cell in cells])
    resolution = draw(st.floats(0.5, 2.0))
    density_constant = draw(st.floats(8.0, 16.0))
    scale = st.floats(1.0 / 7.9, 7.9)
    weights = np.array([draw(scale) * resolution**n for _ in cells])
    params = {"a": draw(offset), "k": draw(st.integers(-(2**60), 2**60))}
    generator = draw(st.text(max_size=8))
    return ps.RegularCloud(points, weights, n, resolution, density_constant, generator, params)


class TestIO:
    @given(cloud=valid_clouds(), seed=st.none() | st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bitwise(self, cloud, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cloud.csv"
            ps.save_cloud(cloud, path, seed=seed)
            back = ps.load_cloud(path)
            assert json.loads(path.with_suffix(".csv.json").read_text())["seed"] == seed
        assert back.points.shape == cloud.points.shape
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.weights.tobytes() == cloud.weights.tobytes()
        meta = lambda c: (c.n, c.resolution.hex(), c.density_constant.hex(), c.generator, repr(c.params))  # noqa: E731
        assert meta(back) == meta(cloud)

    def test_round_trip(self, tmp_path):
        cloud = ps.four_corners(3)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path, seed=11)
        back = ps.load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.weights, cloud.weights)
        assert back.n == cloud.n and back.resolution == cloud.resolution

    def test_save_writes_header_then_crlf_rows_of_reprs(self, tmp_path):
        big = np.finfo(float).max
        points = np.array(
            [[1e-05, -0.0], [0.1 + 0.2, 1e16], [-2.5e-300, 123456789.123], [0.0, big], [-big, 1e15]]
        )
        weights = np.array([5e-324, 0.0001234, 2.0**-11, 1e-5, 1e16])
        cloud = ps.RegularCloud(points, weights, 1, 0.1, validate=False)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path)
        rows = ["x1,x2,weight"] + [
            ",".join(repr(float(x)) for x in [*p, w]) for p, w in zip(points, cloud.weights)
        ]
        assert path.read_bytes() == "".join(row + "\r\n" for row in rows).encode()
        # the same bytes as numpy's text writer with "%s"
        np.savetxt(
            tmp_path / "numpy.csv", np.column_stack([points, weights]), fmt="%s", delimiter=",",
            header="x1,x2,weight", comments="", newline="\r\n",
        )
        assert path.read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    @pytest.mark.parametrize("case", ["lf", "one-point", "graph-3d"])
    def test_load_is_bitwise(self, tmp_path, case):
        if case == "graph-3d":
            f = lambda t: 0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])  # noqa: E731
            cloud = ps.lipschitz_graph_cloud(f, Subspace.axis(3, 0, 1), 1.8, 2.0**-4)
        elif case == "one-point":
            cloud = ps.RegularCloud(np.array([[0.1 + 0.2, 1.0 / 3.0]]), np.array([0.1]), 1, 0.1)
        else:
            cloud = ps.hrycak(3)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path)
        if case == "lf":
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        back = ps.load_cloud(path)
        assert back.points.shape == cloud.points.shape
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.weights.tobytes() == cloud.weights.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, bad):
        points = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match=r"point 2 is not finite"):
            ps.RegularCloud(points, np.full(4, 0.1), 1, 0.1)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            ps.RegularCloud(np.zeros((2, 2)), np.array([1.0, 1.0]), 1, 1.0)  # coincident points
        with pytest.raises(ValueError):
            ps.RegularCloud(np.array([[0.0, 0.0]]), np.array([0.0]), 1, 0.1)  # zero mass

    @pytest.mark.parametrize("dumps", [repr, json.dumps])
    def test_reprs_format_every_bit_pattern(self, dumps):
        a = np.array([[0.0, -0.0, 5e-324], [-0.0, 0.1, 0.0], [math.inf, -math.inf, math.nan], [1e16, 1e-5, 0.1]])
        assert ps._reprs(a, dumps) == [[dumps(x) for x in row] for row in a.tolist()]
        assert ps._reprs(a[0], dumps) == list(map(dumps, a[0].tolist()))
        assert ps._reprs(a[:0], dumps) == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "rows", [0, 1, ps._ROW_CHUNK - 1, ps._ROW_CHUNK, ps._ROW_CHUNK + 1, 2 * ps._ROW_CHUNK + 3]
    )
    def test_save_is_the_row_at_a_time_bytes(self, tmp_path, d, rows):
        rng = np.random.default_rng(10 * rows + d)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0 / 3.0, 1e16, 1e-5, np.finfo(float).max])
        points = np.where(
            rng.random((rows, d)) < 0.3,
            rng.choice(specials, (rows, d)),
            rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-300, 300, (rows, d)),
        )
        points[: rows // 2 * 2, 0] = np.resize([0.0, -0.0], rows // 2 * 2)  # both zeros in one column
        # one value repeated on both sides of every chunk boundary
        points[max(0, ps._ROW_CHUNK - 2):ps._ROW_CHUNK + 2, -1] = 0.1
        weights = np.full(rows, 4.0**-7)
        weights[::7] = 5e-324
        cloud = ps.RegularCloud(points, weights, 1, 0.1, validate=False)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path)
        header = ",".join([f"x{i + 1}" for i in range(d)] + ["weight"])
        lines = [header] + [",".join(map(repr, row)) for row in np.column_stack([points, weights]).tolist()]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("make", [ps.four_corners, ps.hrycak])
    def test_numpy_scalar_metadata_round_trips(self, tmp_path, make):
        cloud = make(np.int64(3))
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path, seed=np.int64(5))
        back = ps.load_cloud(path)
        assert back.params == cloud.params and type(back.params[next(iter(back.params))]) is int
        assert back.points.tobytes() == cloud.points.tobytes()
        assert json.loads(path.with_suffix(".csv.json").read_text())["seed"] == 5

    def test_unserialisable_metadata_writes_no_file(self, tmp_path):
        path, sidecar = tmp_path / "cloud.csv", tmp_path / "cloud.csv.json"
        cloud = ps.four_corners(2)
        bad = dataclasses.replace(cloud, params={"k": {2}})
        with pytest.raises(TypeError):
            ps.save_cloud(bad, path)
        assert not path.exists() and not sidecar.exists()
        ps.save_cloud(cloud, path, seed=3)
        pair = path.read_bytes(), sidecar.read_bytes()
        with pytest.raises(TypeError):
            ps.save_cloud(bad, path)
        assert (path.read_bytes(), sidecar.read_bytes()) == pair  # the last good pair is left whole
        assert ps.load_cloud(path).params == {"k": 2}

    @pytest.mark.parametrize(
        "rows, weights",
        [(ps._ROW_CHUNK, ps._ROW_CHUNK + 1), (ps._ROW_CHUNK, 300), (2 * ps._ROW_CHUNK, ps._ROW_CHUNK), (5, 4)],
    )
    def test_unequal_lengths_raise_without_a_sidecar(self, tmp_path, rows, weights):
        """No file at all: the weight count is checked before the CSV is opened."""
        points = np.random.default_rng(0).random((rows, 2))
        cloud = ps.RegularCloud(points, np.ones(weights), 1, 0.1, validate=False)
        with pytest.raises(ValueError, match=f"weights of shape \\({weights},\\) for {rows} points; need one per point"):
            ps.save_cloud(cloud, tmp_path / "cloud.csv")
        assert list(tmp_path.iterdir()) == []


class TestCloudParameters:
    """A validated cloud names a bad parameter; validation builds no k-d tree."""

    @pytest.fixture(autouse=True)
    def no_tree(self, monkeypatch):
        monkeypatch.setattr(ps.RegularCloud, "tree", property(lambda cloud: pytest.fail("the tree was built")))

    @pytest.mark.parametrize("resolution", [math.nan, 0.0, -1.0, math.inf])
    def test_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            ps.RegularCloud(np.zeros((1, 2)), np.ones(1), 1, resolution)

    @pytest.mark.parametrize("n", [5, 2])
    def test_n_below_d(self, n):
        with pytest.raises(ValueError, match=f"n must be below the ambient dimension d = 2, got {n}"):
            ps.RegularCloud(np.zeros((1, 2)), np.ones(1), n, 1.0)

    @pytest.mark.parametrize("n", [0, -1, 1.0, True])
    def test_n_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ps.RegularCloud(np.zeros((1, 2)), np.ones(1), n, 1.0)

    @pytest.mark.parametrize("density_constant", [0.0, -8.0, math.nan, math.inf])
    def test_density_constant(self, density_constant):
        with pytest.raises(ValueError, match="density_constant must be finite and positive"):
            ps.RegularCloud(np.zeros((1, 2)), np.ones(1), 1, 1.0, density_constant=density_constant)

    @pytest.mark.parametrize("weights", [np.ones((2, 1)), np.ones((2, 2)), 1.0, np.ones(3)])
    def test_weights_one_per_point(self, weights):
        with pytest.raises(ValueError, match="need one per point"):
            ps.RegularCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), weights, 1, 1.0)
