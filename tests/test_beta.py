"""Plane-approximation coefficients: oracles, method ordering, invariances."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectilab import beta as bt
from rectilab import cubes as cb
from rectilab import pointset as ps
from rectilab.grassmann import AffinePlane, Subspace, _canonical_anchor

from helpers import random_rotation


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


def sparse_cloud() -> ps.RegularCloud:
    """Three points far apart: some lattice balls hold fewer than n + 2 of them."""
    pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.85, 0.1]])
    return ps.RegularCloud(pts, np.ones(3), 1, 1e-3, validate=False)


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

    @pytest.mark.parametrize(
        "make, j_max",
        [
            (lambda: ps.four_corners(4), 5),  # exact ties
            (
                lambda: ps.lipschitz_graph_cloud(
                    lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 2.0, 2.0**-9
                ),
                6,
            ),
            (lambda: ps.hrycak(3), 4),
        ],
        ids=["four_corners", "sine_curve", "hrycak"],
    )
    def test_each_cube_equals_its_ball_alone(self, make, j_max):
        # a field fits a level's balls in batches; each cube's result must not depend on the batch:
        # the per-ball call on the cube's ball gives the same value, basis and point, bit for bit
        lat = cb.CubeLattice(make(), 0, j_max)
        for which, per_ball in (("beta1", bt.beta1), ("beta_inf", bt.beta_inf)):
            for key, res in bt.beta_lattice(lat, which).items():
                alone = per_ball(lat.cloud, lat.ball(lat.get(key)))
                assert (res.method, res.degenerate) == (alone.method, alone.degenerate)
                for got, want in ((res.value, alone.value), (res.basis, alone.basis), (res.point, alone.point)):
                    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

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
                dist = res.plane.distance(pts[inside])  # the stored plane attains the value
                if res.degenerate:
                    assert res.value == 0.0 and dist[0] <= 1e-15
                    continue
                b1, binf, kappa = _svd_oracle(pts[inside], weights[inside], n, ball.radius)
                expected = binf if sup else b1
                assert res.value == pytest.approx(expected, rel=1e-9 + 1e3 * eps * kappa, abs=1e-15)
                attained = dist.max() / ball.radius if sup else weights[inside] @ dist / ball.radius ** (n + 1)
                assert res.value == pytest.approx(attained, rel=1e-9, abs=1e-12)

    def test_some_balls_are_degenerate_and_some_raise(self):
        # the strategy above reaches both branches: a sparse cloud has balls with fewer
        # than n + 2 live points, and a zero-weight-only cube makes the field raise
        flags = [r.degenerate for r in bt.beta_lattice(cb.CubeLattice(sparse_cloud(), 0, 3), method="pca").values()]
        assert any(flags) and not all(flags)
        with pytest.raises(ValueError, match="only zero-weight points"):
            bt.beta_lattice(cb.CubeLattice(zero_weight_cloud(), 0, 3), method="pca")

    @pytest.mark.parametrize("make", [lambda: ps.four_corners(2), sparse_cloud], ids=["four_corners", "sparse"])
    def test_planes_are_built_only_when_read(self, monkeypatch, tmp_path, make):
        lat = cb.CubeLattice(make(), 0, 3)
        built = []
        for cls in (Subspace, AffinePlane):
            def spy(self, _post_init=cls.__post_init__):
                built.append(type(self).__name__)
                _post_init(self)
            monkeypatch.setattr(cls, "__post_init__", spy)
        betas = bt.beta_lattice(lat, method="pca")
        bt.export_betas(betas, tmp_path / "betas.csv")
        assert built == []  # neither the field nor its export validates a plane
        for count, res in enumerate(betas.values(), start=1):
            plane = res.plane
            assert res.plane is plane  # the second read builds nothing
            assert built == ["Subspace", "AffinePlane"] * count
        with open(tmp_path / "betas.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(betas)
        for row, (_, res) in zip(rows, sorted(betas.items())):  # the export's anchor is the plane's
            assert row["plane_direction"] == " ".join(map(repr, res.plane.direction.basis.ravel().tolist()))
            assert row["plane_anchor"] == " ".join(map(repr, res.plane.anchor.tolist()))


class TestBoundaryErrors:
    def test_nan_value_raises(self):
        # NaN fails every comparison, so a test of value < 0 lets it through
        with pytest.raises(ValueError, match="nonnegative"):
            bt.BetaResult(math.nan, np.eye(2, 1), np.zeros(2), "pca")

    def test_non_orthonormal_basis_raises_when_the_plane_is_read(self):
        res = bt.BetaResult(0.1, np.array([[1.0], [1.0]]), np.zeros(2), "pca")
        with pytest.raises(ValueError, match="not orthonormal to 1e-10"):
            res.plane

    @pytest.mark.parametrize("fn", [bt.beta1, bt.beta_inf])
    def test_grid_oracle_outside_the_plane_raises_on_a_degenerate_ball(self, fn):
        # three points on a line in R^3: the ball holds one, fewer than n + 2
        pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cloud = ps.RegularCloud(pts, np.ones(3), 1, 0.5, validate=False)
        ball = ps.Ball(np.zeros(3), 0.1)
        assert fn(cloud, ball, "pca").degenerate
        with pytest.raises(ValueError, match="grid_oracle is only available"):
            fn(cloud, ball, "grid_oracle")

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method 'svd'"):
            bt.beta1(ps.segment(1e-2), ps.Ball(np.array([0.5, 0.0]), 0.6), "svd")

    def test_unknown_which_raises(self):
        with pytest.raises(ValueError, match="which must be"):
            bt.beta_lattice(cb.CubeLattice(ps.segment(1e-2), 0, 1), "beta2")

    def test_wgl_sum_missing_coefficient_raises(self):
        lat = cb.CubeLattice(ps.segment(1e-2), 0, 2)
        betas = bt.beta_lattice(lat, "beta1")
        del betas[(2, (1, 0))]
        with pytest.raises(KeyError, match="missing coefficient for cube"):
            bt.wgl_sum(lat, betas, 0.1, (0, (0, 0)))


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
        small = lat.ball(cube)
        big = ps.Ball(small.center, 2.0 * small.radius)
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

    @staticmethod
    def _against_oracle(cloud, ball):
        """beta1 and beta_inf of the ball under the exact planar oracle, and the refined values
        checked against it: planar beta_inf is exact under both, beta1 lies between the oracle and pca."""
        values = {}
        for fn in (bt.beta1, bt.beta_inf):
            exact, refined = fn(cloud, ball, "grid_oracle").value, fn(cloud, ball, "pca_refined").value
            assert exact * (1.0 - 1e-12) <= refined <= fn(cloud, ball, "pca").value + 1e-12
            if fn is bt.beta_inf:
                assert refined == exact
            values[fn.__name__] = exact
        return values

    def _assert_dilation_invariant(self, cloud, ball, k):
        # a power of two scales every coordinate, difference, product and quotient without
        # rounding, so each method's value under dilation by 2^k is the same float
        lam = 2.0**k
        scaled, sball = cloud.dilated(lam), ps.Ball(ball.center * lam, ball.radius * lam)
        assert self._against_oracle(scaled, sball) == self._against_oracle(cloud, ball)
        for fn in (bt.beta1, bt.beta_inf):
            for method in ("pca", "pca_refined"):
                assert fn(scaled, sball, method).value == fn(cloud, ball, method).value

    def _assert_rotation_invariant(self, cloud, ball, g):
        # a rotation rounds every coordinate, so the exact values agree to rounding: 1e-12
        # relative. The refined beta1 is a local descent that a rounding can send to another
        # stopping line: 11 of 43,000 drawn clouds moved, by at most 1.8e-3 relative, so it is
        # held to its own value on the other side within 1e-2
        rotated, rball = cloud.rotated(g), ps.Ball(g @ ball.center, ball.radius)
        exact_rotated = self._against_oracle(rotated, rball)
        for which, exact in self._against_oracle(cloud, ball).items():
            assert exact_rotated[which] == pytest.approx(exact, rel=1e-12)
        refined = bt.beta1(cloud, ball, "pca_refined").value
        assert bt.beta1(rotated, rball, "pca_refined").value == pytest.approx(refined, rel=1e-2)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=5, max_value=60),
        st.booleans(),
        st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_dilation_invariance_exact(self, seed, m, structured, k):
        self._assert_dilation_invariant(*_drawn_cloud(np.random.default_rng(seed), m, structured), k)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=5, max_value=60), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariance_within_tolerance(self, seed, m, structured):
        rng = np.random.default_rng(seed)
        cloud, ball = _drawn_cloud(rng, m, structured)
        self._assert_rotation_invariant(cloud, ball, random_rotation(2, rng))

    def test_four_corners_dilation_and_rotation_invariance(self):
        cloud, ball = ps.four_corners(3), ps.Ball(np.array([0.5, 0.5]), 0.75)
        self._assert_dilation_invariant(cloud, ball, 2)
        self._assert_rotation_invariant(cloud, ball, random_rotation(2, np.random.default_rng(7)))

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

    @pytest.mark.parametrize(
        "make, which",
        [
            (lambda: cb.CubeLattice(ps.segment(1e-2), 0, 1), "beta_inf"),  # planar beta_inf: half / r
            (lambda: cb.CubeLattice(ps.four_corners(3), 0, 3), "beta_inf"),
            (  # codimension-1 coordinate descent: accepted turns rescale by r^(n + 1)
                lambda: cb.CubeLattice(
                    ps.lipschitz_graph_cloud(
                        lambda t: [0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])],
                        Subspace.axis(3, 0, 1), 1.8, 2.0**-4,
                    ), 0, 2,
                ),
                "beta1",
            ),
        ],
        ids=["segment-inf", "four_corners-inf", "surface-beta1"],
    )
    def test_export_writes_plain_float_values(self, tmp_path, make, which):
        betas = bt.beta_lattice(make(), which)
        assert all(type(res.value) is float for res in betas.values())
        bt.export_betas(betas, tmp_path / "betas.csv", which)
        with open(tmp_path / "betas.csv", newline="") as fh:
            cells = [row[which] for row in csv.DictReader(fh)]
        assert len(cells) == len(betas)
        for cell, (_, res) in zip(cells, sorted(betas.items())):
            assert "np." not in cell and float(cell) == res.value


def _direct_planar_value(pts, w, r, theta):
    """One angle the unbatched way: a matmul projection, then a sorted weighted median."""
    s = pts @ np.array([-math.sin(theta), math.cos(theta)])
    order = np.argsort(s)
    cum = np.cumsum(w[order])
    c = float(s[order[np.searchsorted(cum, 0.5 * cum[-1])]])
    return float(np.sum(w * np.abs(s - c)) / r**2), c


def _one_ball_planar_values(pts, w, r, thetas):
    """Planar beta1 objective and offset of one ball at every angle, each row sorted stably and
    summed sequentially over the ball's points alone: what a padded batch must give bit for bit."""
    s = np.cos(thetas)[:, None] * pts[:, 1] - np.sin(thetas)[:, None] * pts[:, 0]
    order = s.argsort(axis=1, kind="stable")
    cum = np.cumsum(w[order], axis=1)
    rows = np.arange(len(s))
    c = s[rows, order[rows, (cum < 0.5 * cum[:, -1:]).sum(axis=1)]]
    return np.cumsum(w * np.abs(s - c[:, None]), axis=1)[:, -1] / (r * r), c


def _batch(clouds):
    """CSR (points, weights, indptr) of a list of (points, weights) balls."""
    ptr = np.r_[0, np.cumsum([len(p) for p, _ in clouds])]
    return np.concatenate([p for p, _ in clouds]), np.concatenate([w for _, w in clouds]), ptr


def _padded_batch(clouds):
    """``beta._padded`` arrays (xy, w) of a list of (points, weights) balls, and their sizes."""
    pts, w, ptr = _batch(clouds)
    return (*bt._padded(pts, w, ptr[:-1], np.diff(ptr)), np.diff(ptr))


class TestPlanarValues:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=3, max_value=200), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_rows_are_one_objective(self, seed, sizes, k):
        # rows of a padded batch of balls of several sizes: each equals a one-row call and the
        # one-ball layout bit for bit, and the direct objective to rounding
        rng = np.random.default_rng(seed)
        balls = []
        for m in sizes:
            w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)  # about a fifth weigh 0
            w[rng.integers(m)] = rng.uniform(0.1, 1.0)
            balls.append((rng.uniform(-1.0, 1.0, (m, 2)), w))
        xy, w, m = _padded_batch(balls)
        radii = rng.uniform(0.1, 2.0, len(sizes))
        r2 = radii * radii
        ball = np.sort(rng.integers(len(sizes), size=k))
        thetas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, k)
        vals, offsets, _ = bt._planar_values(xy, w, m, r2, ball, thetas)
        assert vals.shape == offsets.shape == (k,)
        for i, (b, theta) in enumerate(zip(ball, thetas)):
            pts, wb = balls[b]
            one_val, one_offset, _ = bt._planar_values(xy, w, m, r2, ball[i : i + 1], thetas[i : i + 1])
            assert one_val.tobytes() == vals[i : i + 1].tobytes()
            assert one_offset.tobytes() == offsets[i : i + 1].tobytes()
            ref_val, ref_offset = _one_ball_planar_values(pts, wb, radii[b], thetas[i : i + 1])
            assert ref_val.tobytes() == vals[i : i + 1].tobytes()
            assert ref_offset.tobytes() == offsets[i : i + 1].tobytes()
            direct_val, direct_offset = _direct_planar_value(pts, wb, radii[b], theta)
            assert vals[i] == pytest.approx(direct_val, rel=1e-12)
            assert abs(offsets[i] - direct_offset) <= 1e-12 * float(np.abs(pts).max())

    def test_tied_projections_sort_as_one_ball(self):
        # two sites of equal weight multisets: each site's projections tie, and the weighted median
        # sits where one site's running weight meets half the total, so the order of the ties
        # decides it; a stable sort keeps the ball's own order of them, whatever the padded width
        for seed in range(100):
            rng = np.random.default_rng([seed, 31])
            n = int(rng.integers(5, 60))
            weights = rng.uniform(0.1, 1.0, n)
            pts = np.repeat(rng.uniform(-1.0, 1.0, (2, 2)), n, axis=0)
            w = np.r_[weights, rng.permutation(weights)]
            shuffle = rng.permutation(2 * n)
            other = rng.uniform(-1.0, 1.0, (int(rng.integers(2 * n + 1, 300)), 2))
            xy, wp, m = _padded_batch([(pts[shuffle], w[shuffle]), (other, rng.uniform(0.1, 1.0, len(other)))])
            thetas = rng.uniform(-math.pi, math.pi, 21)
            # the wider ball's row pads the tied ball's rows in the same call
            got = bt._planar_values(xy, wp, m, np.ones(2), np.repeat([0, 1], [20, 1]), thetas)[:2]
            want = _one_ball_planar_values(pts[shuffle], w[shuffle], 1.0, thetas[:20])
            assert np.array(got)[:, :20].tobytes() == np.array(want).tobytes()


def _turn_objective(a, b, w, t):
    """sum_i w_i |a_i cos t - b_i sin t| at every angle of t."""
    t = np.asarray(t, dtype=float)[:, None]
    return (w * np.abs(a * np.cos(t) - b * np.sin(t))).sum(axis=1)


class TestSweep:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_minimum_over_the_turn(self, seed, m, k, pads):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, k, m)) * rng.uniform(0.01, 10.0)
        a[rng.uniform(size=(k, m)) < 0.1] = 0.0  # zeros of atan2 at 0 and at pi
        b[rng.uniform(size=(k, m)) < 0.1] = -0.0
        w = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)  # about a fifth weigh 0
        t, v = bt._sweep(a, b, w)
        assert t.shape == v.shape == (k,)
        # a padded row: zero-weight copies of its first term change no bit of a stable sweep
        stable = np.array(bt._sweep(a, b, w, "stable"))
        padded = (np.concatenate([x, np.repeat(x[:, :1], pads, axis=1)], axis=1) for x in (a, b))
        assert np.array(bt._sweep(*padded, np.r_[w, np.zeros(pads)], "stable")).tobytes() == stable.tobytes()
        assert np.abs(stable[1] - v).max() <= 1e-12 * float((w * np.hypot(a, b)).sum(axis=1).max())
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


class TestHalfWidthLargeHull:
    """``_half_width`` finds each edge's farthest vertex by binary search; against the extent of
    every point along every hull edge normal on hulls of hundreds of vertices."""

    @pytest.mark.parametrize("kind", ["ellipse", "regular"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_every_edge_scored_against_every_point(self, kind, seed):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng([seed, 58])
        h = int(rng.integers(300, 900))
        if kind == "ellipse":
            t = np.sort(rng.uniform(0.0, 2.0 * math.pi, h))
            rim = np.c_[rng.uniform(0.5, 2.0) * np.cos(t), rng.uniform(0.1, 1.0) * np.sin(t)]
        else:  # parallel opposite edges when h is even: the searched angle meets an edge angle exactly
            t = np.linspace(0.0, 2.0 * math.pi, h, endpoint=False)
            rim = np.c_[np.cos(t), np.sin(t)]
        pts = np.r_[rim, 0.5 * rng.uniform(-0.5, 0.5, (200, 2))] @ random_rotation(2, rng).T
        pts += rng.uniform(-1e3, 1e3, 2)
        normal, half = bt._half_width(pts)
        v = pts[ConvexHull(pts).vertices]
        e = np.roll(v, -1, axis=0) - v
        extent = np.ptp(pts @ (np.c_[-e[:, 1], e[:, 0]] / np.hypot(e[:, 0], e[:, 1])[:, None]).T, axis=0)
        tol = 1e-12 * float(np.abs(pts).max())
        assert len(v) > 200
        assert abs(half - 0.5 * float(extent.min())) <= tol
        assert abs(0.5 * float(np.ptp(pts @ normal)) - half) <= tol


def _unpruned_planar_refine(pts, w, r, theta0, pivots=None):
    """``_planar_refine`` with every start angle scored, theta0 and all 64 of the fan about it (whose
    zero step repeats theta0), and every pivot swept again on each turn; ``pivots`` collects each
    turn's pivot indices."""
    thetas = np.r_[theta0, theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
    theta, best_val, c = bt._best_angle(pts, w, r, thetas)
    for _ in range(bt.REFINE_ITERATIONS):
        order = np.argsort(pts[:, 1] * math.cos(theta) - pts[:, 0] * math.sin(theta), kind="stable")
        cum = np.cumsum(w[order])
        k = int((cum < 0.5 * cum[-1]).sum())
        if pivots is not None:
            pivots.append(order[max(k - 1, 0) : k + 2].tolist())
        rel = pts - pts[order[max(k - 1, 0) : k + 2], None]
        t, val, off = bt._best_angle(pts, w, r, bt._sweep(rel[..., 1], rel[..., 0], w, "stable")[0])
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
        xy, wp, m = _padded_batch([(pts, w)])
        thetas = np.r_[theta0, theta0 + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
        lower, upper = bt._start_bounds(xy, wp, m, np.array([r**2]), thetas[None])
        vals = bt._planar_values(xy, wp, m, np.array([r**2]), np.zeros(65, np.intp), thetas)[0]
        assert (lower[0] <= vals).all()
        assert vals.min() <= upper[0]
        got = bt._planar_refine(pts, w, np.array([0, len(pts)]), np.array([r]), np.array([theta0]))
        want = _unpruned_planar_refine(pts, w, r, theta0)
        assert np.array(got).tobytes() == np.array(want)[:, None].tobytes()
        return int((lower > upper[:, None]).sum())

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

    def test_start_grid_repeats_no_angle(self, monkeypatch):
        # the PCA angle first, then 63 others; the 64-angle fan's zero step would repeat it
        grids, start_bounds = [], bt._start_bounds

        def spy(xy, w, m, r2, thetas):
            grids.append(thetas)
            return start_bounds(xy, w, m, r2, thetas)

        monkeypatch.setattr(bt, "_start_bounds", spy)
        curve = ps.lipschitz_graph_cloud(
            lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 2.0, 2.0**-8
        )
        bt.beta_lattice(cb.CubeLattice(curve, 0, 5))
        thetas = np.concatenate(grids)
        assert thetas.shape[1] == 64 and len(thetas) > 0
        assert all(len(np.unique(row)) == 64 for row in thetas)


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


def _whole_cloud_balls(lat):
    """Per level (one radius), the keys of the cubes whose balls hold every live point of the
    cloud by ``Ball.contains``: a field fits the first and copies it to the rest."""
    live = lat.cloud.weights > 0
    return [
        [cube.key for cube in lat.cubes[j].values() if (lat.ball(cube).contains(lat.cloud.points) & live).sum() == live.sum()]
        for j in range(lat.j_min, lat.j_max + 1)
    ]


class TestPivotMemo:
    def test_curve_lattice_equals_the_unmemoised_descent(self, monkeypatch):
        # the descent sweeps a pivot once per ball; every ball of the lattice must score as
        # the copy above that sweeps every pivot on every turn, and some turns repeat pivots
        curve = ps.lipschitz_graph_cloud(
            lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 1.6, 2.0**-11
        )
        lat = cb.CubeLattice(curve, 0, 7)
        real, balls, repeats = bt._planar_refine, [], [0]

        def both(pts, w, ptr, r, theta0):
            got = real(pts, w, ptr, r, theta0)
            for b in range(len(r)):
                turns, ball = [], slice(ptr[b], ptr[b + 1])
                want = _unpruned_planar_refine(pts[ball], w[ball], r[b], theta0[b], turns)
                assert np.array(got)[:, b].tobytes() == np.array(want).tobytes()
                swept = set()
                for turn in turns:
                    repeats[0] += sum(p in swept for p in turn)
                    swept.update(turn)
                balls.append(ptr[b + 1] - ptr[b])
            return got

        monkeypatch.setattr(bt, "_planar_refine", both)
        bt.beta_lattice(lat)
        copies = sum(len(whole) - 1 for whole in _whole_cloud_balls(lat) if whole)
        assert len(balls) == len(lat) - copies > 400 and repeats[0] > 1000


class TestPlanarBatch:
    """``_planar_refine`` on one batch of balls of every start-grid kind and many sizes."""

    @staticmethod
    def _mixed(seed):
        """Live (points, weights) balls of every ``_start_grid_cloud`` kind at sizes 3-400, each
        shifted by up to 1e3, in shuffled order, with radii and start angles."""
        rng = np.random.default_rng([seed, 24])
        balls = []
        for kind in TestStartBounds.KINDS:
            for m in (3, 4, int(rng.integers(5, 150)), 400):
                pts, w = _start_grid_cloud(rng, kind, m)
                live = w > 0
                if live.sum() >= 3:
                    balls.append((pts[live] + rng.uniform(-1e3, 1e3), w[live]))
        balls = [balls[i] for i in rng.permutation(len(balls))]
        spread = np.array([np.abs(pts - pts.mean(axis=0)).max() for pts, _ in balls])
        radii = spread * rng.uniform(1.5, 3.0, len(balls)) + 1e-3
        return balls, radii, rng.uniform(-math.pi, math.pi, len(balls))

    @pytest.mark.parametrize("seed", range(3))
    def test_each_ball_equals_the_unpruned_descent(self, seed):
        balls, radii, theta0 = self._mixed(seed)
        sizes = [len(pts) for pts, _ in balls]
        assert min(sizes) == 3 and max(sizes) > 300 and len(balls) > 20
        got = np.array(bt._planar_refine(*_batch(balls), radii, theta0))
        for b, (pts, w) in enumerate(balls):
            want = _unpruned_planar_refine(pts, w, radii[b], theta0[b])
            assert got[:, b].tobytes() == np.array(want).tobytes()

    def test_a_ball_does_not_depend_on_its_batch(self):
        balls, radii, theta0 = self._mixed(7)
        got = np.array(bt._planar_refine(*_batch(balls), radii, theta0))
        for b in range(len(balls)):
            alone = bt._planar_refine(*_batch(balls[b : b + 1]), radii[b : b + 1], theta0[b : b + 1])
            assert np.array(alone).tobytes() == got[:, b : b + 1].tobytes()
        half = np.arange(len(balls))[::-2]  # another batch, in another order
        other = bt._planar_refine(*_batch([balls[b] for b in half]), radii[half], theta0[half])
        assert np.array(other).tobytes() == got[:, half].tobytes()

    def test_small_balls_and_one_large_ball_pad_to_their_own_size(self, monkeypatch):
        # a batch of 400 balls of 3-5 points and one of 5,000 (a dense cluster in one cube) pads to
        # fewer than twice its points, not 401 rows of 5,000, and each ball equals itself alone
        rng = np.random.default_rng(24)
        balls = [(rng.uniform(-1.0, 1.0, (m, 2)), rng.uniform(0.1, 1.0, m)) for m in rng.integers(3, 6, 400)]
        x = rng.uniform(-1.0, 1.0, 5000)
        balls.append((np.c_[x, 0.3 * x + rng.normal(0.0, 0.01, 5000)], rng.uniform(0.1, 1.0, 5000)))
        radii, theta0 = np.full(len(balls), 2.0), rng.uniform(-math.pi, math.pi, len(balls))
        real, padded = bt._padded, []

        def counted(pts, w, start, m):
            xy, wp = real(pts, w, start, m)
            padded.append(wp.size)
            return xy, wp

        monkeypatch.setattr(bt, "_padded", counted)
        got = np.array(bt._planar_refine(*_batch(balls), radii, theta0))
        total = sum(len(w) for _, w in balls)
        assert len(padded) == 3 and sum(padded) < 2 * total  # classes 2-3, 4-7 and 4096-8191
        for b in (*range(0, 400, 37), 400):
            alone = bt._planar_refine(*_batch(balls[b : b + 1]), radii[b : b + 1], theta0[b : b + 1])
            assert np.array(alone).tobytes() == got[:, b : b + 1].tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_hold_for_every_ball(self, seed):
        balls, radii, theta0 = self._mixed(seed + 11)
        xy, w, m = _padded_batch(balls)
        r2 = radii * radii
        thetas = np.c_[theta0, theta0[:, None] + np.linspace(-np.pi / 2, np.pi / 2, 64, endpoint=False)]
        lower, upper = bt._start_bounds(xy, w, m, r2, thetas)
        vals = bt._planar_values(xy, w, m, r2, np.repeat(np.arange(len(m)), 65), thetas.ravel())[0]
        assert (lower <= vals.reshape(len(m), 65)).all()
        assert (vals.reshape(len(m), 65).min(axis=1) <= upper).all()


def _zero_weight_tail() -> ps.RegularCloud:
    """32 weighted points along a gentle wave and a tail of 3 zero-weight points past its end:
    some level-3 balls hold every live point and not the tail."""
    x = np.r_[np.arange(32) / 64 + 1 / 128, 0.53, 0.57, 0.61]
    pts = np.c_[x, 0.3 + 0.02 * np.sin(9.0 * x)]
    return ps.RegularCloud(pts, np.r_[np.full(32, 1 / 64), np.zeros(3)], 1, 1 / 64, validate=False)


class TestWholeCloudBalls:
    """A ``_fit`` call fits each whole-cloud radius once; every other whole-cloud ball of that
    radius gets a copy, which must equal the ball's own fit and share no memory."""

    CLOUDS = {
        "four_corners": (lambda: ps.four_corners(2), 4),
        "curve": (
            lambda: ps.lipschitz_graph_cloud(
                lambda t: [0.25 * np.sin(2.0 * np.pi * t[0])], Subspace.axis(2, 0), 1.6, 2.0**-7
            ),
            4,
        ),
        "zero_weight_tail": (_zero_weight_tail, 5),
        "surface": (
            lambda: ps.lipschitz_graph_cloud(
                lambda t: [0.2 * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])],
                Subspace.axis(3, 0, 1),
                1.8,
                2.0**-4,
            ),
            3,
        ),
    }

    # the balls that each fitting path receives: the rows of a batched call, or one per call
    PATHS = {
        "_pca_frames": lambda pts, w, indptr, n: len(indptr) - 1,
        "_planar_refine": lambda pts, w, ptr, r, theta0: len(r),
        "_general_refine": lambda *args: 1,
        "_pivot_oracle": lambda *args: 1,
        "_half_width": lambda *args: 1,
    }

    @staticmethod
    def _same(res, alone):
        assert (res.method, res.degenerate) == (alone.method, alone.degenerate)
        for got, want in ((res.value, alone.value), (res.basis, alone.basis), (res.point, alone.point)):
            assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("sup", [False, True])
    @pytest.mark.parametrize("method", ["pca", "pca_refined", "grid_oracle"])
    def test_one_call_of_several_radii_copies_each_radius_fit(self, method, sup):
        # the curve's levels 0-2 hold whole-cloud balls of three radii; in one call over every
        # level's balls each ball must still equal its own fit
        lat = cb.CubeLattice(self.CLOUDS["curve"][0](), 0, 4)
        centers, radii = (np.concatenate(part) for part in zip(*map(lat.level_balls, range(5))))
        per_ball = bt.beta_inf if sup else bt.beta1
        for center, radius, res in zip(centers, radii, bt._fit(lat.cloud, centers, radii, method, sup)):
            self._same(res, per_ball(lat.cloud, ps.Ball(center, radius), method))

    @pytest.mark.parametrize(
        "name, which, method",
        [
            (name, which, method)
            for name in sorted(CLOUDS)
            for which in ("beta1", "beta_inf")
            for method in ("pca", "pca_refined", "grid_oracle")
            if not (name == "surface" and method == "grid_oracle")  # the oracle is planar
        ],
    )
    def test_fits_once_per_radius_and_copies_equal_fits(self, monkeypatch, name, which, method):
        make, j_max = self.CLOUDS[name]
        lat = cb.CubeLattice(make(), 0, j_max)
        whole = _whole_cloud_balls(lat)
        copies = [key for keys in whole for key in keys[1:]]
        assert len(copies) >= 3
        if name == "zero_weight_tail":  # a ball holding every live point and not every point
            assert any(not lat.ball(lat.get(key)).contains(lat.cloud.points).all() for keys in whole for key in keys)
        counted = {}
        for path, balls in self.PATHS.items():
            if path == "_half_width" and lat.cloud.d > 2:
                continue  # ``_general_refine`` calls it once per turn
            def spy(*args, _path=path, _balls=balls, _real=getattr(bt, path)):
                counted[_path] = counted.get(_path, 0) + _balls(*args)
                return _real(*args)
            monkeypatch.setattr(bt, path, spy)
        field = bt.beta_lattice(lat, which, method)
        monkeypatch.undo()
        assert counted and set(counted.values()) == {sum(not res.degenerate for res in field.values()) - len(copies)}

        per_ball = bt.beta1 if which == "beta1" else bt.beta_inf
        for key, res in field.items():
            self._same(res, per_ball(lat.cloud, lat.ball(lat.get(key)), method))

        results = list(field.values())
        assert len({id(res) for res in results}) == len(results)
        arrays = [a for res in results for a in (res.basis, res.point)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])
        built = []
        real = AffinePlane.__post_init__

        def spy(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(AffinePlane, "__post_init__", spy)
        for key in copies:
            res = field[key]
            assert res.plane is res.plane
        assert len(built) == len(copies)


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


def _drawn_cloud(rng, m, structured):
    """A cloud of m points in the unit square drawn from rng, noisy sine samples if structured
    else uniform, and the ball B((0.5, 0.5), 0.75) that holds all of it."""
    x = rng.uniform(0.0, 1.0, m)
    sine = np.c_[x, 0.5 + 0.2 * np.sin(6.0 * x) + rng.normal(0.0, 0.03, m)]
    pts = sine if structured else rng.uniform(0.0, 1.0, (m, 2))
    cloud = ps.RegularCloud(pts, rng.uniform(0.1, 1.0, m), 1, 0.01, validate=False)
    return cloud, ps.Ball(np.array([0.5, 0.5]), 0.75)


def _oracle_cases(structured: bool):
    """(cloud, ball) pairs of at most 60 points. Structured: noisy sine samples and the balls
    of four_corners(3) and of a coarse graph curve. Otherwise: seeded uniform clouds."""
    cases = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 13])
        cases.append(_drawn_cloud(rng, int(rng.integers(5, 61)), structured))
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


def _betas_oracle(betas, which) -> bytes:
    """export_betas' bytes the result-at-a-time way: one ``csv.writer`` row per result."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "cell_index", which, "method", "plane_direction", "plane_anchor"])
    for (level, cell), res in sorted(betas.items()):
        direction = " ".join(map(repr, res.basis.ravel().tolist()))
        anchor = " ".join(map(repr, _canonical_anchor(res.basis, res.point).tolist()))
        writer.writerow([level, " ".join(map(str, cell)), repr(res.value), res.method, direction, anchor])
    return buf.getvalue().encode()


def _made_betas(count, seed):
    """``count`` results of mixed basis shapes (d x n of 2 x 1, 3 x 1, 3 x 2) and methods, among
    them a comma and a quote; values hold -0.0, 0.0 and 5e-324, one value repeated on both sides
    of each chunk boundary, and some results are degenerate."""
    rng = np.random.default_rng(seed)
    methods = ["pca", "pca_refined", 'odd, "quoted" method', "line\nbreak"]
    out = {}
    for i in range(count):
        d, n = [(2, 1), (3, 1), (3, 2)][i % 3]
        basis = np.linalg.qr(rng.standard_normal((d, n)))[0]
        value = [0.0, -0.0, 5e-324, 0.25][i % 4] if i % 5 == 0 else float(rng.uniform(0.0, 1.0))
        if abs(i - ps._ROW_CHUNK) <= 2:
            value = 0.125
        point = rng.standard_normal(d) * 10.0 ** rng.integers(-5, 5)
        if i % 7 == 0:
            out[(i % 4, (i, -i))] = bt.BetaResult(0.0, np.eye(d, n), point, methods[i % 4], degenerate=True)
        else:
            out[(i % 4, (i, -i))] = bt.BetaResult(value, basis, point, methods[i % 4])
    return out


@pytest.mark.parametrize(
    "make, which",
    [
        (lambda: {}, "beta1"),  # the header alone
        *((lambda c=c: _made_betas(c, c), "beta1") for c in (1, ps._ROW_CHUNK - 1, ps._ROW_CHUNK, ps._ROW_CHUNK + 1)),
        (lambda: _made_betas(2 * ps._ROW_CHUNK + 9, 4), "beta_inf"),
        (lambda: bt.beta_lattice(cb.CubeLattice(sparse_cloud(), 0, 3), "beta1"), "beta1"),  # degenerate balls
        (lambda: bt.beta_lattice(cb.CubeLattice(ps.four_corners(3), 0, 3), "beta_inf"), "beta_inf"),
    ],
    ids=["empty", "made-1", "made-chunk-1", "made-chunk", "made-chunk+1", "made-beta_inf", "sparse", "four_corners"],
)
def test_export_betas_is_the_result_at_a_time_bytes(tmp_path, make, which):
    betas = make()
    path = tmp_path / "betas.csv"
    bt.export_betas(betas, path, which)
    assert path.read_bytes() == _betas_oracle(betas, which)
