"""Plane-approximation coefficients: oracles, method ordering, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectilab import beta as bt
from rectilab import cubes as cb
from rectilab import pointset as ps
from rectilab.grassmann import Subspace, random_rotation


def two_segments(h: float, res: float = 5e-3) -> ps.RegularCloud:
    seg = ps.segment(res)
    pts = np.vstack([seg.points + [-0.5, h], seg.points + [-0.5, -h]])
    return ps.RegularCloud(pts, np.concatenate([seg.weights] * 2), 1, res, generator="two-seg")


def random_cloud(rng, count=40):
    pts = rng.uniform(0.0, 1.0, size=(count, 2))
    return ps.RegularCloud(pts, np.full(count, 0.02), 1, 0.02, density_constant=2.0, validate=False)


def zero_weight_cloud() -> ps.RegularCloud:
    """Four zero-weight points near (0.25, 0.12) and one weighted point far away."""
    pts = np.array([[0.1, 0.1], [0.2, 0.15], [0.3, 0.1], [0.4, 0.2], [0.9, 0.9]])
    return ps.RegularCloud(pts, np.array([0.0, 0.0, 0.0, 0.0, 0.1]), 1, 0.05)


ZERO_WEIGHT_BALL = ps.Ball(np.array([0.25, 0.12]), 0.2)


class TestBeta1:
    def test_collinear_is_zero(self):
        seg = ps.segment(1e-2)
        res = bt.beta1(seg, ps.Ball(np.array([0.5, 0.0]), 0.6))
        assert res.value <= 1e-12

    def test_two_segment_reference_from_oracle(self):
        cloud = two_segments(0.2)
        ball = ps.Ball(np.zeros(2), 1.0)
        oracle = bt.beta1(cloud, ball, "grid_oracle")
        refined = bt.beta1(cloud, ball, "pca_refined")
        pca = bt.beta1(cloud, ball, "pca")
        # the horizontal mid-line gives sum(w * h) / r^2; the exact oracle may do
        # better with a tilted line
        mask = ball.contains(cloud.points)
        midline_value = float((cloud.weights[mask] * 0.2).sum())
        assert oracle.value <= midline_value + 1e-12
        assert refined.value <= pca.value + 1e-12
        assert abs(refined.value - oracle.value) <= 0.01

    def test_four_corners_lower_bound(self):
        cloud = ps.four_corners(4)
        ball = ps.Ball(np.array([0.5, 0.5]), 0.5)
        assert bt.beta1(cloud, ball, "grid_oracle").value >= 0.05

    def test_empty_ball_raises(self):
        with pytest.raises(ValueError):
            bt.beta1(ps.segment(1e-2), ps.Ball(np.array([9.0, 9.0]), 0.1))

    @pytest.mark.parametrize("fn", [bt.beta1, bt.beta_inf])
    @pytest.mark.parametrize("method", bt.METHODS)
    def test_zero_weight_ball_raises_for_every_method(self, fn, method):
        # zero-weight points lie outside the measure's support, like points outside the ball
        with pytest.raises(ValueError, match="only zero-weight points"):
            fn(zero_weight_cloud(), ZERO_WEIGHT_BALL, method)

    def test_degenerate_flag(self):
        cloud = ps.four_corners(2)
        res = bt.beta1(cloud, ps.Ball(cloud.points[0], cloud.resolution / 3.0))
        assert res.degenerate and res.value == 0.0


class TestBetaInf:
    def test_collinear_is_zero(self):
        seg = ps.segment(1e-2)
        assert bt.beta_inf(seg, ps.Ball(np.array([0.5, 0.0]), 0.6)).value <= 1e-12

    def test_two_segment_midplane(self):
        h = 0.15
        cloud = two_segments(h)
        ball = ps.Ball(np.zeros(2), 1.0)
        refined = bt.beta_inf(cloud, ball, "pca_refined")
        oracle = bt.beta_inf(cloud, ball, "grid_oracle")
        assert refined.value == pytest.approx(h, abs=2e-3)
        assert oracle.value == pytest.approx(h, abs=2e-2)

    def test_zero_weight_points_lie_outside_the_support(self):
        # nine weighted points on y = 0 and one zero-weight point off the line: the support is a segment
        pts = np.vstack([np.c_[np.linspace(0.1, 0.9, 9), np.zeros(9)], [[0.5, 0.3]]])
        cloud = ps.RegularCloud(pts, np.r_[np.full(9, 0.1), 0.0], 1, 0.1)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.5)
        for method in bt.METHODS:
            assert bt.beta_inf(cloud, ball, method).value <= 1e-12

    def test_sup_dominates_normalized_mean(self):
        # evaluating the mean objective at the sup-optimal plane bounds it by
        # (mass / r^n) * sup value, a per-sample arithmetic identity
        rng = np.random.default_rng(0)
        for _ in range(20):
            cloud = random_cloud(rng)
            ball = ps.Ball(np.array([0.5, 0.5]), 0.7)
            sup = bt.beta_inf(cloud, ball, "pca_refined")
            mask = ball.contains(cloud.points)
            pts, w = cloud.points[mask], cloud.weights[mask]
            dist = sup.plane.distance(pts)
            l1_at_plane = float((w * dist).sum() / ball.radius**2)
            massn = float(w.sum() / ball.radius)
            assert l1_at_plane <= massn * sup.value + 1e-12


class TestBetaLattice:
    def test_segment_all_near_zero(self):
        lat = cb.CubeLattice(ps.segment(1e-3), 0, 4)
        betas = bt.beta_lattice(lat, "beta1")
        for key, res in betas.items():
            tol = 2.0 * lat.cloud.resolution / 2.0 ** -key[0]
            assert res.value <= tol

    def test_zero_weight_cube_raises(self):
        lat = cb.CubeLattice(zero_weight_cloud(), 0, 3)
        for which in ("beta1", "beta_inf"):
            with pytest.raises(ValueError, match="only zero-weight points"):
                bt.beta_lattice(lat, which)

    def test_four_corners_flagged_levels(self):
        lat = cb.CubeLattice(ps.four_corners(4), 0, 4)
        betas = bt.beta_lattice(lat, "beta1")
        by_level = {}
        for (level, _), res in betas.items():
            by_level.setdefault(level, []).append(res.value)
        # the top ball sees the whole set at radius 3*sqrt(2), which dilutes
        # the coefficient; from level 1 on the grid_oracle confirms >= 0.05
        assert max(by_level[0]) < 0.05
        for level in range(1, 5):
            assert min(by_level[level]) >= 0.05

    def test_translation_resampled_distribution(self):
        base = ps.four_corners(3)
        lat0 = cb.CubeLattice(base, 0, 4)
        shifted_pts = base.points + np.array([0.37, 0.11])
        shifted = ps.RegularCloud(shifted_pts, base.weights, 1, base.resolution, generator="fc-shift")
        lat1 = cb.CubeLattice(shifted, 0, 4)
        b0 = [r.value for r in bt.beta_lattice(lat0, "beta1").values() if not r.degenerate]
        b1 = [r.value for r in bt.beta_lattice(lat1, "beta1").values() if not r.degenerate]
        assert np.mean(b1) == pytest.approx(np.mean(b0), rel=0.5)


def _svd_oracle(pts, w, n, r):
    """(beta1, beta_inf, kappa) of the weighted PCA n-plane by an SVD, with
    kappa = lambda_n / (lambda_n - lambda_(n+1)) of the weighted covariance."""
    centered = pts - (w @ pts) / w.sum()
    _, sv, vt = np.linalg.svd(np.sqrt(w)[:, None] * centered)
    dist = np.linalg.norm(centered @ vt[n:].T, axis=1)
    lam = np.r_[sv**2, np.zeros(pts.shape[1])]
    kappa = lam[n - 1] / (lam[n - 1] - lam[n]) if lam[n - 1] > lam[n] else math.inf
    return w @ dist / r ** (n + 1), dist.max() / r, kappa


class TestBatchedPcaField:
    """beta_lattice(pca) selects and fits each level at once; it must agree with an SVD
    per ball, and its degenerate flags and zero-weight errors with per-ball calls."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(2, 1), (3, 1), (3, 2)]),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_svd_and_per_ball_calls(self, seed, dims, size, j_max):
        d, n = dims
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (size, d))
        weights = rng.uniform(0.5, 1.0, size) * (rng.random(size) > 0.25)  # about a quarter zero
        weights[0] = 1.0
        cloud = ps.RegularCloud(pts, weights, n, 1e-3, validate=False)
        lat = cb.CubeLattice(cloud, 0, j_max)
        eps = np.finfo(float).eps
        for which, sup, per_ball in (("beta1", False, bt.beta1), ("beta_inf", True, bt.beta_inf)):
            try:
                field = bt.beta_lattice(lat, which, "pca")
            except ValueError as exc:
                assert "only zero-weight points" in str(exc)
                messages = []
                for cube in lat.all_cubes():
                    try:
                        per_ball(cloud, lat.ball(cube), "pca")
                    except ValueError as per_exc:
                        messages.append(str(per_exc))
                assert messages and messages[0] == str(exc)
                continue
            for cube in lat.all_cubes():
                ball = lat.ball(cube)
                res, ref = field[cube.key], per_ball(cloud, ball, "pca")
                assert res.degenerate == ref.degenerate
                inside = (np.linalg.norm(pts - ball.center, axis=1) <= ball.radius) & (weights > 0)
                assert res.degenerate == (inside.sum() < n + 2)
                if res.degenerate:
                    assert res.value == 0.0
                    continue
                b1, binf, kappa = _svd_oracle(pts[inside], weights[inside], n, ball.radius)
                expected = binf if sup else b1
                assert res.value == pytest.approx(expected, rel=1e-9 + 1e3 * eps * kappa, abs=1e-15)

    def test_some_balls_are_degenerate_and_some_raise(self):
        # the strategy above reaches both branches: a sparse cloud has balls with fewer
        # than n + 2 live points, and a zero-weight-only cube makes the field raise
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.85, 0.1]])
        sparse = ps.RegularCloud(pts, np.ones(3), 1, 1e-3, validate=False)
        flags = [r.degenerate for r in bt.beta_lattice(cb.CubeLattice(sparse, 0, 3), method="pca").values()]
        assert any(flags) and not all(flags)
        with pytest.raises(ValueError, match="only zero-weight points"):
            bt.beta_lattice(cb.CubeLattice(zero_weight_cloud(), 0, 3), method="pca")


class TestWglSum:
    def test_segment_zero(self):
        lat = cb.CubeLattice(ps.segment(1e-3), 0, 4)
        betas = bt.beta_lattice(lat, "beta1")
        assert bt.wgl_sum(lat, betas, 0.1, (0, (0, 0))) == 0.0

    def test_nan_epsilon_raises(self):
        # every value >= nan is False, so a NaN threshold would flag nothing and return 0
        lat = cb.CubeLattice(ps.segment(1e-2), 0, 2)
        with pytest.raises(ValueError, match="epsilon must not be NaN"):
            bt.wgl_sum(lat, bt.beta_lattice(lat, "beta1"), math.nan, (0, (0, 0)))

    def test_four_corners_growth(self):
        cloud = ps.four_corners(4)
        ratios = {}
        for depth in (4, 6):
            lat = cb.CubeLattice(cloud, 0, depth)
            betas = bt.beta_lattice(lat, "beta1")
            ratios[depth] = bt.wgl_sum(lat, betas, 0.05, (0, (0, 0)))
        assert ratios[6] >= 1.5 * ratios[4]


def per_cube_comparison(lat):
    """beta_comparison with one beta1 and one beta_inf call per cube."""
    cloud = lat.cloud
    worst, used = None, 0
    for cube in lat.all_cubes():
        small, big = lat.ball(cube), lat.ball(cube, 2.0)
        b1 = bt.beta1(cloud, big)
        if b1.degenerate or b1.value < bt.FLOOR_FACTOR * cloud.resolution / big.radius:
            continue
        ratio = bt.beta_inf(cloud, small).value / b1.value ** (1.0 / (cloud.n + 1))
        used += 1
        worst = ratio if worst is None else max(worst, ratio)
    return worst, used


class TestBetaComparison:
    @pytest.mark.parametrize(
        "make,j_max", [(lambda: ps.four_corners(3), 6), (lambda: two_segments(0.05, res=1e-2), 4)]
    )
    def test_equals_per_cube_calls(self, make, j_max):
        """Two ``_fit`` calls per level give the worst ratio and the count of
        one call per cube; some cubes fall below the floor and some clear it."""
        lat = cb.CubeLattice(make(), 0, j_max)
        worst, used = bt.beta_comparison(lat)
        assert 0 < used < len(lat)
        assert (worst, used) == per_cube_comparison(lat)

    def test_segment_returns_none(self):
        lat = cb.CubeLattice(ps.segment(1e-3), 0, 3)
        worst, used = bt.beta_comparison(lat)
        assert worst is None and used == 0

    def test_four_corners_bounded(self):
        lat = cb.CubeLattice(ps.four_corners(4), 0, 4)
        worst, used = bt.beta_comparison(lat)
        assert used > 0
        assert worst <= 10.0

    def test_two_segment_sweep_stable(self):
        constants = []
        for h in (0.1, 0.15, 0.2):
            cloud = two_segments(h, res=1e-2)
            lat = cb.CubeLattice(cloud, 0, 3)
            worst, used = bt.beta_comparison(lat)
            if worst is not None:
                constants.append(worst)
        assert constants
        assert max(constants) <= 10.0


class TestMethodAndSymmetryInvariants:
    def test_refined_never_above_pca(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            cloud = random_cloud(rng)
            ball = ps.Ball(rng.uniform(0.3, 0.7, size=2), rng.uniform(0.4, 0.8))
            if not ball.contains(cloud.points).any():
                continue
            assert (
                bt.beta1(cloud, ball, "pca_refined").value
                <= bt.beta1(cloud, ball, "pca").value + 1e-12
            )

    def test_oracle_below_methods_plus_granularity(self):
        # the oracle is exact, so no granularity is left to allow for
        rng = np.random.default_rng(2)
        for _ in range(10):
            cloud = random_cloud(rng)
            ball = ps.Ball(np.array([0.5, 0.5]), 0.7)
            oracle = bt.beta1(cloud, ball, "grid_oracle").value
            assert oracle <= bt.beta1(cloud, ball, "pca").value + 1e-12
            assert oracle <= bt.beta1(cloud, ball, "pca_refined").value + 1e-12

    def test_zero_iff_coplanar(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng)
        ball = ps.Ball(np.array([0.5, 0.5]), 0.8)
        assert bt.beta1(cloud, ball).value > 1e-6  # generic points are not collinear
        seg = ps.segment(1e-2)
        assert bt.beta1(seg, ps.Ball(np.array([0.5, 0.0]), 1.0)).value <= 1e-12

    def test_dilation_invariance_exact(self):
        cloud = ps.four_corners(3)
        ball = ps.Ball(np.array([0.5, 0.5]), 0.75)
        lam = 4.0  # power of two keeps the float scaling exact
        scaled = cloud.dilated(lam)
        sball = ps.Ball(ball.center * lam, ball.radius * lam)
        for fn in (bt.beta1, bt.beta_inf):
            a = fn(cloud, ball, "pca_refined").value
            b = fn(scaled, sball, "pca_refined").value
            assert abs(a - b) <= 1e-10

    def test_rotation_invariance_within_tolerance(self):
        cloud = ps.four_corners(3)
        ball = ps.Ball(np.array([0.5, 0.5]), 0.75)
        g = random_rotation(2, np.random.default_rng(7))
        rotated = cloud.rotated(g)
        rball = ps.Ball(g @ ball.center, ball.radius)
        a = bt.beta1(cloud, ball, "pca_refined").value
        b = bt.beta1(rotated, rball, "pca_refined").value
        assert b == pytest.approx(a, rel=0.05, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_refined_never_above_pca_in_three_dimensions(self, n):
        if n == 1:
            f = lambda t: [0.2 * np.sin(4.0 * t[0]), 0.1 * np.cos(3.0 * t[0])]  # noqa: E731
            cloud = ps.lipschitz_graph_cloud(f, Subspace.axis(3, 0), 1.5, 2.0**-6)
        else:
            f = lambda t: [0.15 * np.sin(3.0 * t[0]) * np.cos(2.0 * t[1])]  # noqa: E731
            cloud = ps.lipschitz_graph_cloud(f, Subspace.axis(3, 0, 1), 1.0, 2.0**-4)
        lat = cb.CubeLattice(cloud, 0, 2)
        for which in ("beta1", "beta_inf"):
            refined = bt.beta_lattice(lat, which, "pca_refined")
            pca = bt.beta_lattice(lat, which, "pca")
            assert not any(r.degenerate for r in refined.values())
            for key, res in refined.items():
                assert res.value <= pca[key].value + 1e-12
                ball = lat.ball(lat.get(key))  # the returned plane attains the returned value
                idx = cloud.ball_indices(ball)
                dist = res.plane.distance(cloud.points[idx])
                attained = dist.max() / ball.radius if which == "beta_inf" else cloud.weights[idx] @ dist / ball.radius ** (n + 1)
                assert res.value == pytest.approx(attained, rel=1e-9, abs=1e-12)

    def test_refined_vanishes_on_a_flat_plane_in_three_dimensions(self):
        flat = ps.lipschitz_graph_cloud(lambda t: [0.0], Subspace.axis(3, 0, 1), 0.5, 2.0**-4)
        cloud = flat.rotated(random_rotation(3, np.random.default_rng(9)))
        ball = ps.Ball(cloud.points.mean(axis=0), 0.4)
        for fn in (bt.beta1, bt.beta_inf):
            assert fn(cloud, ball, "pca_refined").value <= 1e-12

    def test_export(self, tmp_path):
        lat = cb.CubeLattice(ps.four_corners(2), 0, 2)
        betas = bt.beta_lattice(lat, "beta1")
        out = tmp_path / "betas.csv"
        bt.export_betas(betas, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(betas) + 1


def _direct_planar_value(pts, w, r, theta):
    """One angle the unbatched way: a matmul projection, then a sorted weighted median."""
    s = pts @ np.array([-math.sin(theta), math.cos(theta)])
    order = np.argsort(s)
    cum = np.cumsum(w[order])
    c = float(s[order[np.searchsorted(cum, 0.5 * cum[-1])]])
    return float(np.sum(w * np.abs(s - c)) / r**2), c


class TestPlanarValues:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=3, max_value=200),
        st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_rows_are_one_objective(self, seed, m, k):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (m, 2))
        w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)  # about a fifth weigh 0
        w[rng.integers(m)] = rng.uniform(0.1, 1.0)
        r = float(rng.uniform(0.1, 2.0))
        thetas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, k)
        vals, offsets = bt._planar_values(pts, w, r, thetas)
        assert vals.shape == offsets.shape == (k,)
        scale = float(np.abs(pts).max())
        for i, theta in enumerate(thetas):
            one_val, one_offset = bt._planar_values(pts, w, r, thetas[i : i + 1])
            assert one_val.tobytes() == vals[i : i + 1].tobytes()
            assert one_offset.tobytes() == offsets[i : i + 1].tobytes()
            ref_val, ref_offset = _direct_planar_value(pts, w, r, theta)
            assert vals[i] == pytest.approx(ref_val, rel=1e-12)
            assert abs(offsets[i] - ref_offset) <= 1e-12 * scale


def _turn_objective(a, b, w, t):
    """sum_i w_i |a_i cos t - b_i sin t| at every angle of t."""
    t = np.asarray(t, dtype=float)[:, None]
    return (w * np.abs(a * np.cos(t) - b * np.sin(t))).sum(axis=1)


class TestSweep:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_minimum_over_the_turn(self, seed, m, k):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, k, m)) * rng.uniform(0.01, 10.0)
        a[rng.uniform(size=(k, m)) < 0.1] = 0.0  # zeros of atan2 at 0 and at pi
        b[rng.uniform(size=(k, m)) < 0.1] = -0.0
        w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)  # about a fifth weigh 0
        t, v = bt._sweep(a, b, w)
        assert t.shape == v.shape == (k,)
        for row in range(k):
            tol = 1e-12 * float((w * np.hypot(a[row], b[row])).sum())
            zeros = np.mod(np.arctan2(a[row], b[row]), math.pi)
            brute = float(_turn_objective(a[row], b[row], w, zeros).min())
            assert abs(v[row] - brute) <= tol
            assert _turn_objective(a[row], b[row], w, [t[row]])[0] <= v[row] + tol
            assert (v[row] <= _turn_objective(a[row], b[row], w, rng.uniform(0.0, math.pi, 50)) + tol).all()
            one_t, one_v = bt._sweep(a[row], b[row], w)
            assert one_t == t[row] and one_v == v[row]


def _turn_sup(a, b, t):
    """max_i |a_i cos t - b_i sin t| at every angle of t."""
    t = np.asarray(t, dtype=float)[:, None]
    return np.abs(a * np.cos(t) - b * np.sin(t)).max(axis=1)


class TestSupTurn:
    """The codimension-1 beta_inf turn of ``_general_refine``: half the minimum width of
    {+-(a_i, -b_i)}, against the turn objective at every pair normal of +-(a, b)."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["generic", "zeros", "collinear", "origin"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_least_over_every_pair_normal(self, seed, m, kind):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, m)) * rng.uniform(0.01, 10.0)
        if kind == "zeros":
            a[rng.uniform(size=m) < 0.3] = 0.0
            b[rng.uniform(size=m) < 0.3] = 0.0
        elif kind == "collinear":
            b = rng.normal() * a  # every (a_i, b_i) on one line through the origin
        elif kind == "origin":
            a, b = np.zeros(m), np.zeros(m)
        ab = np.c_[a, -b]
        turn, half = bt._half_width(np.r_[ab, -ab])
        sym = np.r_[np.c_[a, b], -np.c_[a, b]]
        i, j = np.triu_indices(len(sym), 1)
        d = sym[j] - sym[i]
        x, y = -d[:, 1], d[:, 0]
        # a pair normal (x, y) of +-(a, b) scores |(a, b) . (x, y)| = |a cos t - b sin t|, t = atan2(-y, x)
        scores = _turn_sup(a, b, np.arctan2(-y, x)[(d != 0).any(axis=1)])
        brute = float(scores.min()) if len(scores) else 0.0
        tol = 1e-12 * float(np.hypot(a, b).max(initial=1.0))
        assert abs(half - brute) <= tol
        assert abs(_turn_sup(a, b, [math.atan2(turn[1], turn[0])])[0] - half) <= tol
        assert (half <= _turn_sup(a, b, rng.uniform(0.0, math.pi, 50)) + tol).all()


def _unpruned_planar_refine(pts, w, r, theta0, pivots=None):
    """``_planar_refine`` with every one of the 65 start angles scored and
    every pivot swept again on each turn; ``pivots`` collects each turn's pivot indices."""
    thetas = np.r_[theta0, theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
    theta, best_val, c = bt._best_angle(pts, w, r, thetas)
    for _ in range(bt.REFINE_ITERATIONS):
        order = np.argsort(pts @ np.array([-math.sin(theta), math.cos(theta)]))
        cum = np.cumsum(w[order])
        k = int((cum < 0.5 * cum[-1]).sum())
        if pivots is not None:
            pivots.append(order[max(k - 1, 0) : k + 2].tolist())
        rel = pts - pts[order[max(k - 1, 0) : k + 2], None]
        t, val, off = bt._best_angle(pts, w, r, bt._sweep(rel[..., 1], rel[..., 0], w)[0])
        if val >= best_val:
            break
        theta, best_val, c = t, val, off
    return best_val, theta, c


def _start_grid_cloud(rng, kind, m):
    """Points and weights of one kind: uniform, collinear (on an axis or a slanted line),
    near-collinear, coincident, two sites (where the lower bound is attained), or a cluster
    with one heavy far outlier; about a fifth weigh 0."""
    t = rng.uniform(-1.0, 1.0, m)
    if kind == "uniform":
        pts = rng.uniform(-1.0, 1.0, (m, 2))
    elif kind == "axis":
        pts = np.c_[t, np.full(m, 0.3)]
    elif kind in ("slanted", "near_collinear"):
        pts = np.c_[t, 0.7 * t + 0.1]
        if kind == "near_collinear":
            pts[:, 1] += rng.normal(0.0, 1e-9, m)
    elif kind == "coincident":
        pts = np.tile(rng.uniform(-1.0, 1.0, 2), (m, 1))
    elif kind == "two_sites":
        pts = rng.uniform(-1.0, 1.0, (2, 2))[rng.integers(2, size=m)]
    else:
        pts = rng.normal(0.0, 0.05, (m, 2))
        pts[0] = rng.uniform(-1.0, 1.0, 2) * 40.0
    w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)
    w[rng.integers(m)] = rng.uniform(0.1, 1.0)
    if kind == "outlier":
        w[0] = 1e3 * w.max() + 1.0
    return pts, w


class TestStartBounds:
    KINDS = ("uniform", "axis", "slanted", "near_collinear", "coincident", "two_sites", "outlier")

    def _check(self, pts, w, r, theta0):
        thetas = np.r_[theta0, theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
        lower, upper = bt._start_bounds(pts, w, r, thetas)
        vals = bt._planar_values(pts, w, r, thetas)[0]
        assert (lower <= vals).all()
        assert vals.min() <= upper
        got = bt._planar_refine(pts, w, r, theta0)
        want = _unpruned_planar_refine(pts, w, r, theta0)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        return int((lower > upper).sum())

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(KINDS),
        st.integers(min_value=3, max_value=150),
        st.floats(min_value=-1e3, max_value=1e3),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_hold_and_pruning_keeps_the_result(self, seed, kind, m, shift, pca_start):
        rng = np.random.default_rng(seed)
        pts, w = _start_grid_cloud(rng, kind, m)
        pts += shift  # large coordinates: the projections round at the scale of max|coordinate|
        r = float(np.abs(pts - pts.mean(axis=0)).max()) * rng.uniform(1.5, 3.0) + 1e-3
        live = w > 0
        theta0 = rng.uniform(-math.pi, math.pi)
        if pca_start and live.sum() >= 2:
            frame = ps._pca_frame(pts[live], w[live], 1)[0]
            theta0 = math.atan2(frame[1, 0], frame[0, 0])
        self._check(pts[live], w[live], r, theta0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [3, 4, 40, 400])
    def test_seeded_kinds(self, kind, m):
        for seed in range(5):
            rng = np.random.default_rng([seed, m])
            pts, w = _start_grid_cloud(rng, kind, m)
            live = w > 0
            self._check(pts[live], w[live], 3.0 if kind != "outlier" else 120.0, rng.uniform(-math.pi, math.pi))

    def test_curve_balls_prune_and_match(self):
        curve = ps.lipschitz_graph_cloud(
            lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 2.0, 2.0**-8
        )
        lat = cb.CubeLattice(curve, 0, 5)
        pruned = rows = 0
        for cube in lat.all_cubes():
            ball = lat.ball(cube)
            idx = curve.ball_indices(ball)
            if len(idx) < 3:
                continue
            pts, w = curve.points[idx], curve.weights[idx]
            frame = ps._pca_frame(pts, w, 1)[0]
            pruned += self._check(pts, w, ball.radius, math.atan2(frame[1, 0], frame[0, 0]))
            rows += 65
        assert rows > 0 and pruned > rows // 2  # the bounds drop 63 % of the start angles here


def _pair_strip_oracle(pts):
    """Least half extent of the points across the normal of a line through two distinct data
    points: half the minimum width, so exact planar beta_inf times r. 0 if all coincide."""
    i, j = np.triu_indices(len(pts), 1)
    d = pts[j] - pts[i]
    d = d[(d != 0).any(axis=1)]
    if not len(d):
        return 0.0
    s = pts @ (np.c_[-d[:, 1], d[:, 0]] / np.hypot(d[:, 0], d[:, 1])[:, None]).T
    return 0.5 * float((s.max(axis=0) - s.min(axis=0)).min())


class TestPlanarBetaInfExact:
    @pytest.mark.parametrize("kind", TestStartBounds.KINDS)
    @pytest.mark.parametrize("m", [3, 4, 40, 120])
    def test_equals_the_pair_strip_oracle(self, kind, m):
        for seed in range(5):
            rng = np.random.default_rng([seed, m, 21])
            pts, w = _start_grid_cloud(rng, kind, m)
            live = pts[w > 0]
            cloud = ps.RegularCloud(pts, w, 1, 1e-3, validate=False)
            center = live.mean(axis=0)
            ball = ps.Ball(center, 1.5 * float(np.linalg.norm(live - center, axis=1).max()) + 0.1)
            exact = _pair_strip_oracle(live) / ball.radius
            for method in ("pca_refined", "grid_oracle"):
                res = bt.beta_inf(cloud, ball, method)
                assert res.degenerate == (len(live) < 3)
                if res.degenerate:
                    continue
                assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-12)
                assert res.plane.distance(live).max() / ball.radius == pytest.approx(res.value, rel=1e-9, abs=1e-12)
                assert res.value <= bt.beta_inf(cloud, ball, "pca").value + 1e-12


class TestPivotMemo:
    def test_curve_lattice_equals_the_unmemoised_descent(self, monkeypatch):
        # the descent sweeps a pivot once per ball; every ball of the lattice must score as
        # the copy above that sweeps every pivot on every turn, and some turns repeat pivots
        curve = ps.lipschitz_graph_cloud(
            lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 1.6, 2.0**-11
        )
        lat = cb.CubeLattice(curve, 0, 7)
        real, balls, repeats = bt._planar_refine, [], [0]

        def both(pts, w, r, theta0):
            got, turns = real(pts, w, r, theta0), []
            want = _unpruned_planar_refine(pts, w, r, theta0, turns)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            swept = set()
            for turn in turns:
                repeats[0] += sum(p in swept for p in turn)
                swept.update(turn)
            balls.append(len(pts))
            return got

        monkeypatch.setattr(bt, "_planar_refine", both)
        bt.beta_lattice(lat)
        assert len(balls) == len(lat) > 400 and repeats[0] > 1000


def _pair_line_oracle(pts, w, r):
    """Least weighted distance sum over the lines through two distinct data points, over r^2.
    Exact for planar beta1: an optimal L1 line passes through two data points. O(m^3)."""
    i, j = np.triu_indices(len(pts), 1)
    d = pts[j] - pts[i]
    length = np.hypot(d[:, 0], d[:, 1])
    i, d, length = i[length > 0], d[length > 0], length[length > 0]
    rel = pts[None, :, :] - pts[i][:, None, :]
    dist = np.abs(rel[..., 0] * d[:, 1, None] - rel[..., 1] * d[:, 0, None]) / length[:, None]
    return float((dist * w).sum(axis=1).min()) / r**2


def _oracle_cases(structured: bool):
    """(cloud, ball) pairs of at most 60 points. Structured: noisy sine samples and the balls
    of four_corners(3) and of a coarse graph curve. Otherwise: seeded uniform clouds."""
    cases = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 13])
        m = int(rng.integers(5, 61))
        x = rng.uniform(0.0, 1.0, m)
        sine = np.c_[x, 0.5 + 0.2 * np.sin(6.0 * x) + rng.normal(0.0, 0.03, m)]
        pts = sine if structured else rng.uniform(0.0, 1.0, (m, 2))
        cloud = ps.RegularCloud(pts, rng.uniform(0.1, 1.0, m), 1, 0.01, validate=False)
        cases.append((cloud, ps.Ball(np.array([0.5, 0.5]), 0.75)))
    if structured:
        curve = ps.lipschitz_graph_cloud(
            lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 2.0, 2.0**-6
        )
        for cloud, levels in ((ps.four_corners(3), 4), (curve, 4)):
            lat = cb.CubeLattice(cloud, 0, levels)
            balls = [lat.ball(c) for c in lat.all_cubes()]
            cases += [(cloud, b) for b in balls if len(cloud.ball_indices(b)) <= 60]
    return cases


def _refined_and_exact(cloud, ball):
    refined = bt.beta1(cloud, ball, "pca_refined")
    assert not refined.degenerate
    idx = cloud.ball_indices(ball)
    exact = _pair_line_oracle(cloud.points[idx], cloud.weights[idx], ball.radius)
    assert refined.value >= exact - 1e-12
    assert refined.value <= bt.beta1(cloud, ball, "pca").value + 1e-12
    assert bt.beta1(cloud, ball, "grid_oracle").value == pytest.approx(exact, rel=1e-9)
    return refined.value, exact


class TestPlanarBeta1Exact:
    def test_structured_clouds_reach_the_pair_line_oracle(self):
        cases = _oracle_cases(structured=True)
        assert len(cases) >= 90
        for cloud, ball in cases:
            refined, exact = _refined_and_exact(cloud, ball)
            assert refined == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_uniform_clouds_rarely_stop_above_the_pair_line_oracle(self):
        # the pivot descent is local: on a cloud with no line structure it can stop at a line
        # that no turn about the weighted-median point or its neighbours improves; one of
        # these 20 clouds does (seed 15, 1.8e-4 relative above the oracle)
        results = [_refined_and_exact(cloud, ball) for cloud, ball in _oracle_cases(structured=False)]
        assert sum(refined > exact * (1 + 1e-9) for refined, exact in results) <= 1


def _pinned_clouds():
    curve = ps.lipschitz_graph_cloud(
        lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 2.0, 2.0**-8
    )
    surface = ps.lipschitz_graph_cloud(
        lambda t: [0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])],
        Subspace.axis(3, 0, 1),
        2.0,
        2.0**-4,
    )
    space_curve = ps.lipschitz_graph_cloud(
        lambda t: [0.2 * np.sin(4.0 * t[0]), 0.1 * np.cos(3.0 * t[0])], Subspace.axis(3, 0), 1.5, 2.0**-6
    )
    return {"curve": curve, "surface": surface, "space_curve": space_curve}


# pca_refined (beta1, beta_inf) of each ball. beta1, and beta_inf of the space curve, as computed
# by scoring every start angle with its own matmul projection (planar path) and by projecting on
# freshly turned normals (coordinate descent); beta_inf of the curve and the surface from the
# exact half width (planar) and the exact codimension-1 turn
PINNED = {
    "curve": [
        ((0.1, 0.25 * math.sin(0.2 * math.pi)), 0.05, 0.017471815570772445, 0.015698792091444515),
        ((0.3, 0.2), 0.1, 0.17427918514692922, 0.15992746778699218),
        ((0.55, -0.05), 0.2, 0.023921197891005726, 0.030167785797149127),
        ((0.8, -0.2), 0.4, 0.34744108480884495, 0.33005841029533894),
    ],
    "surface": [
        ((0.25, 0.25, 0.0), 0.2, 0.12243863746957606, 0.08734113580196548),
        ((0.5, 0.5, 0.0), 0.3, 0.32413830102487207, 0.21675651776696267),
        ((0.7, 0.3, 0.05), 0.45, 0.4462432962657592, 0.42350273518243076),
    ],
    "space_curve": [
        ((0.2, 0.14, 0.08), 0.15, 0.06641794382404771, 0.058870922217910536),
        ((0.5, 0.18, 0.0), 0.3, 0.1591547539310989, 0.14769445622292054),
        ((0.8, 0.0, -0.07), 0.5, 0.04360811664306152, 0.06126698379369421),
    ],
}


class TestPinnedRefinedValues:
    @pytest.fixture(scope="class")
    def clouds(self):
        return _pinned_clouds()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_within_stated_tolerance_and_below_pca(self, clouds, name):
        cloud = clouds[name]
        for center, radius, b1, binf in PINNED[name]:
            ball = ps.Ball(np.array(center), radius)
            for fn, pinned in ((bt.beta1, b1), (bt.beta_inf, binf)):
                refined = fn(cloud, ball, "pca_refined")
                assert not refined.degenerate
                assert refined.value == pytest.approx(pinned, rel=1e-4)
                assert refined.value <= fn(cloud, ball, "pca").value + 1e-12
