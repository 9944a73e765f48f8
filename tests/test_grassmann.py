"""Subspace geometry: projections, metrics, Haar sampling, plane surgery."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from rectilab import grassmann as gr


def line(theta: float) -> gr.Subspace:
    return gr.Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))


class TestProject:
    def test_coordinate_projection(self):
        v = gr.Subspace.axis(2, 0)
        assert np.allclose(gr.project(v, np.array([3.0, 4.0])), [3.0, 0.0])

    def test_rank_one_formula(self):
        v = gr.Subspace.from_vectors(np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.allclose(gr.project(v, np.array([1.0, 0.0])), [0.5, 0.5])

    def test_idempotence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            v = gr.sample_haar(d, n, rng)
            x = rng.standard_normal(d)
            px = gr.project(v, x)
            assert np.allclose(gr.project(v, px), px, atol=1e-10)
            # residual orthogonal to the subspace
            assert np.max(np.abs((x - px) @ v.basis)) < 1e-10

    def test_dimension_mismatch(self):
        v = gr.Subspace.axis(3, 0)
        with pytest.raises(gr.DimensionMismatchError):
            gr.project(v, np.array([1.0, 2.0]))


class TestMetric:
    def test_axes(self):
        assert gr.metric(gr.Subspace.axis(2, 0), gr.Subspace.axis(2, 1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("theta", [math.pi / 12, math.pi / 6, math.pi / 4])
    def test_lines_closed_form(self, theta):
        # two lines an angle theta apart: ||P1 - P2|| = sin(theta)
        base = 0.3
        assert gr.metric(line(base), line(base + theta)) == pytest.approx(math.sin(theta), abs=1e-12)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = gr.sample_haar(4, 2, rng)
            assert gr.metric(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(2)
        v = gr.sample_haar(5, 2, rng)
        mix = v.basis @ np.linalg.qr(rng.standard_normal((2, 2)))[0]
        assert gr.metric(v, gr.Subspace(mix)) < 1e-10


class TestMetricBar:
    def test_identical(self):
        v = gr.Subspace.axis(3, 0, 2)
        assert gr.metric_bar(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_line_angle(self):
        theta = 0.4
        assert gr.metric_bar(gr.Subspace.axis(2, 0), line(theta)) == pytest.approx(math.sin(theta))

    def test_two_sided_comparability(self):
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d))
            v1, v2 = gr.sample_haar(d, n, rng), gr.sample_haar(d, n, rng)
            m, mb = gr.metric(v1, v2), gr.metric_bar(v1, v2)
            if m > 1e-9:
                ratios.append(mb / m)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 2.0
        assert np.all(ratios > 0.4) and np.all(ratios < 2.5)


class TestHaar:
    def test_angle_uniform_on_lines(self):
        rng = np.random.default_rng(4)
        angles = []
        for _ in range(10_000):
            v = gr.sample_haar(2, 1, rng)
            b = v.basis[:, 0]
            angles.append(math.atan2(b[1], b[0]) % math.pi)
        stat = scipy.stats.kstest(np.array(angles) / math.pi, "uniform")
        assert stat.pvalue > 0.01

    def test_full_dimension(self):
        rng = np.random.default_rng(5)
        v = gr.sample_haar(3, 3, rng)
        assert gr.metric(v, gr.Subspace.full(3)) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance_two_sample(self):
        rng = np.random.default_rng(6)
        d, n = 3, 1
        g = gr.random_rotation(d, np.random.default_rng(99))
        v_ref = gr.Subspace.axis(d, 0)
        plain, rotated = [], []
        for _ in range(10_000):
            v = gr.sample_haar(d, n, rng)
            plain.append(gr.metric(v, v_ref))
            rotated.append(gr.metric(gr.rotate(g, v), v_ref))
        stat = scipy.stats.ks_2samp(plain, rotated)
        assert stat.pvalue > 0.01


class TestNearestSubspaceIn:
    def test_equal_planes(self):
        rng = np.random.default_rng(7)
        w = gr.sample_haar(4, 3, rng)
        v1 = gr.Subspace(w.basis[:, :2])
        v2 = gr.nearest_subspace_in(w, v1, w)
        assert gr.metric(v1, v2) < 1e-10

    def test_rotation_about_contained_axis(self):
        theta = 0.2
        w1 = gr.Subspace.axis(3, 0, 1)  # xy-plane
        rot = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(theta), -math.sin(theta)],
                [0.0, math.sin(theta), math.cos(theta)],
            ]
        )
        w2 = gr.rotate(rot, w1)
        x_axis = gr.Subspace.axis(3, 0)
        v2 = gr.nearest_subspace_in(w2, x_axis, w1)
        assert gr.metric(x_axis, v2) < 1e-10

    def test_rotation_of_y_axis_closed_form(self):
        theta = 0.2
        w1 = gr.Subspace.axis(3, 0, 1)
        rot = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(theta), -math.sin(theta)],
                [0.0, math.sin(theta), math.cos(theta)],
            ]
        )
        w2 = gr.rotate(rot, w1)
        y_axis = gr.Subspace.axis(3, 1)
        v2 = gr.nearest_subspace_in(w2, y_axis, w1)
        assert gr.metric(y_axis, v2) == pytest.approx(math.sin(theta), abs=1e-10)
        assert gr.metric(y_axis, v2) <= 2.0 * gr.metric(w1, w2) + 1e-12

    def test_constant_on_random_instances(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(3, 6))
            n = int(rng.integers(1, d - 1))
            w1, v1 = gr.fubini_sample(d, n, rng)
            w2 = gr.sample_in_ball(gr.GrassmannBall(w1, 0.3), rng)
            dist_w = gr.metric(w1, w2)
            if dist_w < 1e-6:
                continue
            v2 = gr.nearest_subspace_in(w2, v1, w1)
            assert gr.containment_residual(v2, w2) < 1e-8
            assert gr.metric(v1, v2) <= 4.0 * dist_w
            checked += 1


class TestAnnihilatingPlane:
    def test_orthogonal_input_unchanged(self):
        v = gr.Subspace.axis(3, 0)
        out = gr.annihilating_plane(np.array([0.0, 1.0, 0.5]), v, 0.5)
        assert gr.metric(v, out) == pytest.approx(0.0, abs=1e-12)

    def test_planar_closed_form(self):
        eps = 0.05
        v = gr.Subspace.axis(2, 0)
        z = np.array([eps, 1.0])
        out = gr.annihilating_plane(z, v, 4 * eps / math.sqrt(1 + eps**2) + 1e-9)
        expected = np.array([1.0, -eps]) / math.sqrt(1 + eps**2)
        b = out.basis[:, 0]
        assert min(np.linalg.norm(b - expected), np.linalg.norm(b + expected)) < 1e-10
        assert abs(float(b @ z)) < 1e-12

    def test_randomized_contract(self):
        rng = np.random.default_rng(9)
        done = 0
        while done < 1000:
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, d))
            v = gr.sample_haar(d, n, rng)
            z = rng.standard_normal(d)
            delta = float(rng.uniform(0.05, 0.8))
            ratio = np.linalg.norm(gr.project(v, z)) / np.linalg.norm(z)
            if ratio > gr.annihilation_threshold(delta):
                continue
            out = gr.annihilating_plane(z, v, delta)
            residual = np.linalg.norm(gr.project(out, z))
            assert residual <= 1e-10 * np.linalg.norm(z)
            assert gr.metric(v, out) < delta
            assert gr.metric(v, out) <= 4.0 * ratio + 1e-12
            done += 1

    def test_precondition_error_names_ratio(self):
        v = gr.Subspace.axis(2, 0)
        with pytest.raises(ValueError, match="ratio"):
            gr.annihilating_plane(np.array([1.0, 0.1]), v, 0.1)


class TestFubini:
    def test_containment_every_draw(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            w, v = gr.fubini_sample(4, 2, rng)
            assert gr.containment_residual(v, w) < 1e-10

    def test_marginal_matches_direct_haar(self):
        rng = np.random.default_rng(11)
        d, n, trials = 3, 1, 10_000
        v_ref = gr.Subspace.axis(d, 0)
        two_stage = np.array([gr.metric(gr.fubini_sample(d, n, rng)[1], v_ref) for _ in range(trials)])
        direct = np.array([gr.metric(gr.sample_haar(d, n, rng), v_ref) for _ in range(trials)])
        se = math.sqrt(two_stage.var(ddof=1) / trials + direct.var(ddof=1) / trials)
        assert abs(two_stage.mean() - direct.mean()) <= 3.0 * se

    def test_planar_case_returns_full_space(self):
        rng = np.random.default_rng(12)
        w, _ = gr.fubini_sample(2, 1, rng)
        assert gr.metric(w, gr.Subspace.full(2)) == pytest.approx(0.0, abs=1e-12)


class TestIntegrateAffine:
    def test_zero_functional(self):
        rng = np.random.default_rng(13)
        est, _ = gr.integrate_affine(lambda w: 0.0, 2, 1, 200, rng, window_radius=2.0)
        assert est == 0.0

    def test_lines_meeting_unit_disc(self):
        # every projection of B(0,1) to a line has length 2
        rng = np.random.default_rng(14)
        f = lambda w: 1.0 if w.distance(np.zeros(2)) <= 1.0 else 0.0
        est, se = gr.integrate_affine(f, 2, 1, 4000, rng, window_radius=1.5)
        assert abs(est - 2.0) <= 3.0 * se

    def test_lines_meeting_unit_ball_3d(self):
        # shadow of B(0,1) on any 2-plane is a unit disc of area pi
        rng = np.random.default_rng(15)
        f = lambda w: 1.0 if w.distance(np.zeros(3)) <= 1.0 else 0.0
        est, se = gr.integrate_affine(f, 3, 1, 4000, rng, window_radius=1.5)
        assert abs(est - math.pi) <= 3.0 * se


class TestInvariantsAndSerialization:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_projection_matrix_is_projection(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        n = int(rng.integers(0, d + 1))
        p = gr.sample_haar(d, n, rng).projection_matrix
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.T)) < 1e-10

    def test_affine_plane_canonical_anchor(self):
        d = gr.Subspace.axis(3, 2)
        p1 = gr.AffinePlane(d, np.array([1.0, 2.0, 5.0]))
        p2 = gr.AffinePlane(d, np.array([1.0, 2.0, -9.0]))
        assert p1.close_to(p2)
        assert abs(p1.anchor @ d.basis[:, 0]) < 1e-12

    def test_affine_plane_anchor_ignores_basis_layout(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            basis = gr.sample_haar(3, 2, rng).basis
            point = rng.normal(size=3)
            c_plane = gr.AffinePlane(gr.Subspace(np.ascontiguousarray(basis)), point)
            f_plane = gr.AffinePlane(gr.Subspace(np.asfortranarray(basis)), point)
            assert c_plane.anchor.tobytes() == f_plane.anchor.tobytes()

    def test_fiber_distance(self):
        v = gr.Subspace.axis(2, 0)
        fib = gr.fiber_through(v, np.array([0.5, 7.0]))  # vertical line x = 0.5
        assert fib.distance(np.array([0.5, -3.0])) == pytest.approx(0.0, abs=1e-12)
        assert fib.distance(np.array([1.5, 0.0])) == pytest.approx(1.0)

    def test_net_is_separated(self):
        rng = np.random.default_rng(17)
        pts = gr.net(3, 1, 0.4, rng, candidates=300)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert gr.metric(a, b) >= 0.4
