"""Subspace geometry: projections, metrics, Haar sampling, plane surgery."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from rectilab import grassmann as gr

from helpers import random_rotation


def line(theta: float) -> gr.Subspace:
    return gr.Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))


class TestProject:
    def test_coordinate_projection(self):
        v = gr.Subspace.axis(2, 0)
        assert np.allclose(gr.project(v, np.array([3.0, 4.0])), [3.0, 0.0])

    def test_rank_one_formula(self):
        v = gr.Subspace(gr.orthonormalize(np.array([1.0, 1.0])))
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

    def test_equals_containment_residual(self):
        # for planes of one dimension ||P1 - P2|| = ||(I - P2) P1||, the sine of the largest
        # principal angle, so the "max distance of a unit vector of v1 to v2" form is this metric
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d))
            v1, v2 = gr.sample_haar(d, n, rng), gr.sample_haar(d, n, rng)
            assert gr.containment_residual(v1, v2) == pytest.approx(gr.metric(v1, v2), abs=1e-12)


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
        g = random_rotation(d, np.random.default_rng(99))
        v_ref = gr.Subspace.axis(d, 0)
        plain, rotated = [], []
        for _ in range(10_000):
            v = gr.sample_haar(d, n, rng)
            plain.append(gr.metric(v, v_ref))
            rotated.append(gr.metric(gr.Subspace(g @ v.basis), v_ref))
        stat = scipy.stats.ks_2samp(plain, rotated)
        assert stat.pvalue > 0.01


def chart_norm(delta: float) -> float:
    """The chart radius t of B(V0, delta): ||A|| <= t exactly when metric(V0, span(B + C A)) <= delta."""
    return delta / math.sqrt(1.0 - delta**2)


class TestSampleInBall:
    SHAPES = [(2, 1), (3, 1), (3, 2), (5, 2)]

    @staticmethod
    def frames(v: gr.Subspace):
        p = v.projection_matrix
        return gr._plane_basis(p, v.n), gr._plane_basis(np.eye(v.d) - p, v.d - v.n)

    @pytest.mark.parametrize("d, n", SHAPES)
    def test_draws_lie_in_the_ball_with_orthonormal_bases(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        for delta in (0.05, 0.3, 0.7, 0.95):
            v0 = gr.sample_haar(d, n, rng)
            bases = gr.sample_in_ball(gr.GrassmannBall(v0, delta), rng, 250)
            assert bases.shape == (250, d, n)
            gram = bases.transpose(0, 2, 1) @ bases
            assert np.abs(gram - np.eye(n)).max() <= 1e-12
            assert max(gr.metric(v0, gr.Subspace(b)) for b in bases) <= delta + 1e-12

    @pytest.mark.parametrize("d, n", SHAPES)
    def test_chart_sphere_is_the_ball_boundary(self, d, n):
        rng = np.random.default_rng(d * 10 + n + 1)
        for delta in (0.1, 0.5, 0.9):
            v0 = gr.sample_haar(d, n, rng)
            g = rng.standard_normal((50, d - n, n))
            bases = gr._chart(*self.frames(v0), g, np.full(50, chart_norm(delta)))
            for b in bases:
                assert gr.metric(v0, gr.Subspace(b)) == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize("d, n", SHAPES)
    def test_law_reaches_the_boundary(self, d, n):
        rng = np.random.default_rng(d * 10 + n + 2)
        v0 = gr.sample_haar(d, n, rng)
        bases = gr.sample_in_ball(gr.GrassmannBall(v0, 0.2), rng, 2000)
        assert max(gr.metric(v0, gr.Subspace(b)) for b in bases) >= 0.99 * 0.2

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 2)])
    def test_chart_norm_is_uniform(self, d, n):
        # metric = s / sqrt(1 + s^2) at chart norm s = ||A||, and s / t is U, uniform on (0, 1]
        rng = np.random.default_rng(d * 10 + n + 3)
        v0, delta = gr.sample_haar(d, n, rng), 0.4
        m = np.array([gr.metric(v0, gr.Subspace(b)) for b in gr.sample_in_ball(gr.GrassmannBall(v0, delta), rng, 2000)])
        u = m / np.sqrt(1.0 - m**2) / chart_norm(delta)
        assert scipy.stats.kstest(u, "uniform").pvalue > 0.01

    def test_zero_radius_is_the_centre_and_draws_nothing(self):
        rng = np.random.default_rng(11)
        v0 = gr.sample_haar(3, 2, rng)
        state = rng.bit_generator.state
        bases = gr.sample_in_ball(gr.GrassmannBall(v0, 0.0), rng, 4)
        assert rng.bit_generator.state == state
        assert np.array_equal(bases, np.broadcast_to(self.frames(v0)[0], (4, 3, 2)))
        assert gr.metric(v0, gr.Subspace(bases[0])) <= 1e-15

    @pytest.mark.parametrize("delta", [1.0, 1.5, 2.0])
    def test_radius_one_and_above_is_haar(self, delta):
        # the ball is all of G(d, n); every radius >= 1 and every centre gives one Haar draw
        rng = np.random.default_rng(12)
        bases = gr.sample_in_ball(gr.GrassmannBall(gr.Subspace.axis(2, 0), delta), rng, 5000)
        other = gr.sample_in_ball(gr.GrassmannBall(line(1.0), 1.0), np.random.default_rng(12), 5000)
        assert np.array_equal(bases, other)
        assert np.abs(bases.transpose(0, 2, 1) @ bases - 1.0).max() <= 1e-12
        angles = np.arctan2(bases[:, 1, 0], bases[:, 0, 0]) % math.pi
        assert scipy.stats.kstest(angles / math.pi, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("d, n", SHAPES)
    def test_bases_are_fixed_by_the_plane(self, d, n):
        rng = np.random.default_rng(d * 10 + n + 4)
        v0 = gr.sample_haar(d, n, rng)
        turned = gr.Subspace(v0.basis @ random_rotation(n, rng))
        for delta in (0.0, 0.3):
            a = gr.sample_in_ball(gr.GrassmannBall(v0, delta), np.random.default_rng(5), 64)
            b = gr.sample_in_ball(gr.GrassmannBall(turned, delta), np.random.default_rng(5), 64)
            assert np.abs(a - b).max() <= 1e-14

    def test_plane_basis_where_the_largest_diagonal_axes_are_dependent(self):
        # span{(e0 + e1)/sqrt 2, (e2 + e3)/sqrt 2}: all p_ii tie at 1/2 and p e0 = p e1, so the
        # QR of p at the axes of the two largest p_ii alone would be singular
        basis = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]) / math.sqrt(2.0)
        p = basis @ basis.T
        for k, proj in ((2, p), (2, np.eye(4) - p)):
            q = gr._plane_basis(proj, k)
            assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-15
            assert np.abs(q @ q.T - proj).max() <= 1e-15


class TestOrthogonalComplement:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(d, n) for d in range(2, 6) for n in range(1, d + 1)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_fixed_by_the_subspace(self, seed, dims):
        # two orthonormal bases of one subspace give one complement, to rounding; it is
        # orthonormal and orthogonal to the subspace
        d, n = dims
        rng = np.random.default_rng(seed)
        v = gr.sample_haar(d, n, rng)
        c = gr.orthogonal_complement(v).basis
        turned = gr.orthogonal_complement(gr.Subspace(v.basis @ random_rotation(n, rng))).basis
        assert c.shape == turned.shape == (d, d - n)
        assert np.abs(c - turned).max(initial=0.0) <= 1e-12
        assert np.abs(c.T @ c - np.eye(d - n)).max(initial=0.0) <= 1e-12
        assert np.abs(v.basis.T @ c).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_axis_subspaces_give_the_other_axes(self, d):
        # bit for bit, in ascending order; for the leading axes, which the graph clouds use, these
        # are the bytes the complement has always had
        for n in range(d + 1):
            for axes in itertools.combinations(range(d), n):
                c = gr.Subspace.axis(d, *axes).complement().basis
                assert c.shape == (d, d - n)
                assert c.tobytes() == np.eye(d)[:, [a for a in range(d) if a not in axes]].tobytes()


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
        w2 = gr.Subspace(rot @ w1.basis)
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
        w2 = gr.Subspace(rot @ w1.basis)
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
            w2 = gr.Subspace(gr.sample_in_ball(gr.GrassmannBall(w1, 0.3), rng, 1)[0])
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
        """The plane annihilates z, stays within delta of v and contains V ∩ proj_V(z)⊥: for
        random y, x = P_V y - (u . P_V y) u with u = proj_V(z)/|proj_V(z)| lies in it. P_V
        comes from v's own basis."""
        rng, ys = np.random.default_rng(9), np.random.default_rng(19)
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
            if n > 1:  # for n = 1, V ∩ proj_V(z)⊥ is {0}
                pv = v.basis @ v.basis.T
                u = pv @ z / np.linalg.norm(pv @ z)
                for y in ys.standard_normal((3, d)):
                    x = pv @ y - (u @ (pv @ y)) * u
                    assert np.linalg.norm(x - out.basis @ (out.basis.T @ x)) <= 1e-12 * np.linalg.norm(x)
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
        # two points of one line give one plane: same direction, same anchor
        assert gr.metric(p1.direction, p2.direction) <= 1e-9
        assert np.linalg.norm(p1.anchor - p2.anchor) <= 1e-9
        assert abs(p1.anchor @ d.basis[:, 0]) < 1e-12

    def test_non_orthonormal_basis_raises(self):
        with pytest.raises(ValueError, match="not orthonormal to 1e-10"):
            gr.Subspace(np.array([[1.0], [1.0]]))

    def test_anchor_of_the_wrong_dimension_raises(self):
        with pytest.raises(gr.DimensionMismatchError, match="anchor dimension"):
            gr.AffinePlane(gr.Subspace.axis(3, 0), np.zeros(2))

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
