"""Cloud generators, regularity scans, projection measures, overlap queries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectilab import pointset as ps
from rectilab.grassmann import GrassmannBall, Subspace, random_rotation, sample_haar, sample_in_ball

X_AXIS = Subspace.axis(2, 0)
Y_AXIS = Subspace.axis(2, 1)


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
        measured = ps.projection_measure(c, X_AXIS, c.enclosing_ball(3.0), 4.0**-k)
        assert measured == 2**k * 4.0**-k == 0.5**k

    def test_mass_conserved_across_generations(self):
        assert ps.four_corners(3).total_weight == ps.four_corners(4).total_weight == 1.0

    def test_deterministic(self):
        a, b = ps.four_corners(3), ps.four_corners(3)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)


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
            ball = cloud.enclosing_ball(2.0)
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

    def test_planar_disc_interior_density(self):
        v = Subspace.axis(3, 0, 1)
        sheet = ps.lipschitz_graph_cloud(lambda t: [0.0], v, 0.5, 0.01, box=(0.0, 1.0))
        r = 0.2
        mass = sheet.ball_mass(ps.Ball(np.array([0.5, 0.5, 0.0]), r))
        assert mass / r**2 == pytest.approx(math.pi, rel=0.05)


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

    def test_four_corners_tiling_direction(self):
        cloud = ps.four_corners(4)
        ball = cloud.enclosing_ball(3.0)
        v = Subspace.from_vectors(np.array([2.0, 1.0]))  # slope-1/2 shadow tiles
        shadow = ps.projection_measure(cloud, v, ball, cloud.resolution)
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
        margins = []
        for k in range(2, 6):
            cloud = ps.four_corners(k)
            ball = ps.Ball(np.array([0.5, 0.5]), 0.75)
            _, margin = ps.pbp_margin(cloud, ball, 0.3, 24, np.random.default_rng(7), n_candidates=5)
            margins.append(margin)
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_graph_witness(self):
        cloud = ps.lipschitz_graph_cloud(lambda t: [abs(t[0] - 0.5)], X_AXIS, 1.0, 2e-3)
        ball = cloud.enclosing_ball(1.2)
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
    """The per-direction loop on ``projection_measure``: one ball selection per shadow."""
    g = cloud.resolution if g is None else g
    n = cloud.n
    idx = _brute_ball(cloud.points, ball)
    if len(idx) <= n:
        v0 = Subspace.axis(cloud.d, *range(n))
    else:
        v0 = Subspace(ps._pca_frame(cloud.points[idx], cloud.weights[idx], n)[0])
    candidates = [v0] + [sample_haar(cloud.d, n, rng) for _ in range(n_candidates - 1)]
    best_v0, best = candidates[0], -math.inf
    for v0 in candidates:
        margin = math.inf
        for _ in range(n_directions):
            v = sample_in_ball(GrassmannBall(v0, delta), rng)
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


class TestGraphOverlap:
    def test_cloud_against_itself(self):
        cloud = ps.segment(1e-2)
        ball = ps.Ball(np.array([0.5, 0.0]), 0.25)
        assert ps.graph_overlap(cloud, cloud, ball) == pytest.approx(cloud.ball_mass(ball))

    def test_cantor_against_axis_graph(self):
        cloud = ps.four_corners(3)
        graph = ps.segment(cloud.resolution)
        ball = cloud.enclosing_ball(2.0)
        # distance-histogram oracle: points within matching tolerance of y=0
        tol = 2.0 * max(cloud.resolution, graph.resolution)
        expected = cloud.weights[np.abs(cloud.points[:, 1]) <= tol].sum()
        got = ps.graph_overlap(cloud, graph, ball)
        assert got <= expected + 1e-12
        assert got <= 0.3 * cloud.ball_mass(ball)

    def test_segment_against_its_rotation(self):
        h = 1e-3
        seg = ps.segment(h, length=1.0)
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


class TestIO:
    def test_round_trip(self, tmp_path):
        cloud = ps.four_corners(3)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path, seed=11)
        back = ps.load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.weights, cloud.weights)
        assert back.n == cloud.n and back.resolution == cloud.resolution

    def test_save_writes_header_then_crlf_rows_of_reprs(self, tmp_path):
        points = np.array([[1e-05, -0.0], [0.1 + 0.2, 1e16], [-2.5e-300, 123456789.123]])
        cloud = ps.RegularCloud(points, np.array([5e-324, 0.0001234, 2.0**-11]), 1, 0.1, validate=False)
        path = tmp_path / "cloud.csv"
        ps.save_cloud(cloud, path)
        rows = ["x1,x2,weight"] + [
            ",".join(repr(float(x)) for x in [*p, w]) for p, w in zip(points, cloud.weights)
        ]
        assert path.read_bytes() == "".join(row + "\r\n" for row in rows).encode()

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
