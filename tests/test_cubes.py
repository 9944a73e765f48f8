"""Lattice construction, tree axioms, stopping decomposition, ancestry counts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from rectilab import cubes as cb
from rectilab import pointset as ps


def flags_on(lattice, chosen):
    """Flags of every cube of the lattice, set exactly on the keys in ``chosen``."""
    return {c.key: c.key in chosen for c in lattice.all_cubes()}


@pytest.fixture(scope="module")
def segment_lattice():
    return cb.CubeLattice(ps.segment(1e-3), 0, 4)


@pytest.fixture(scope="module")
def cantor_lattice():
    return cb.CubeLattice(ps.four_corners(3), 0, 4)


class TestBuildLattice:
    def test_segment_counts(self):
        lat = cb.CubeLattice(ps.segment(1e-2), 0, 2)
        assert [len(lat.cubes[j]) for j in range(3)] == [1, 2, 4]

    def test_children_weights_sum_to_parent(self, cantor_lattice):
        lat = cantor_lattice
        for cube in lat.all_cubes():
            kids = lat.child_keys(cube.key)
            if kids:
                assert sum(lat.get(k).weight for k in kids) == pytest.approx(cube.weight, abs=1e-14)

    def test_four_corners_level_counts_by_scan(self):
        # construction-scan oracle: occupied cells counted straight off the points
        cloud = ps.four_corners(3)
        lat = cb.CubeLattice(cloud, 0, 3)
        for j in range(4):
            side = 2.0**-j
            expected = len({tuple(c) for c in np.floor(cloud.points / side).astype(int)})
            assert len(lat.cubes[j]) == expected
        assert [len(lat.cubes[j]) for j in range(4)] == [1, 4, 4, 16]

    def test_partition_per_level(self, cantor_lattice):
        lat = cantor_lattice
        total = len(lat.cloud.points)
        for j in range(lat.j_min, lat.j_max + 1):
            seen = np.concatenate([c.members for c in lat.cubes[j].values()])
            assert len(seen) == total
            assert len(np.unique(seen)) == total

    def test_ball_monotonicity(self, cantor_lattice):
        lat = cantor_lattice
        c = lat.ball_constant
        for cube in lat.all_cubes():
            key = lat.parent_key(cube.key)
            if key is not None:
                parent = lat.get(key)
                gap = np.linalg.norm(cube.center - parent.center)
                assert gap + c * cube.side <= c * parent.side + 1e-12

    def test_centers_are_cloud_points(self, cantor_lattice):
        lat = cantor_lattice
        pts = {tuple(p) for p in lat.cloud.points}
        for cube in lat.all_cubes():
            assert tuple(cube.center) in pts

    @pytest.mark.parametrize(
        "j_min, j_max", [(0.0, 2), (0, 2.0), (True, 2), (0, np.float64(2))], ids=["float", "float", "bool", "numpy"]
    )
    def test_levels_are_integers(self, j_min, j_max):
        with pytest.raises(ValueError, match="j_m(in|ax) must be an integer, got"):
            cb.CubeLattice(ps.segment(1e-2), j_min, j_max)

    def test_empty_cloud_rejected(self):
        empty = ps.RegularCloud(np.empty((0, 2)), np.empty(0), 1, 0.1, validate=False)
        with pytest.raises(ValueError, match="empty cloud"):
            cb.CubeLattice(empty, 0, 1)
        with pytest.raises(ValueError, match="below the cloud resolution"):
            cb.CubeLattice(ps.segment(0.1), 0, 9)


def _loop_lattice(cloud, j_min, j_max):
    """Per-point bucketing reference: {level: {cell: (members, center, weight)}}."""
    out = {}
    for j in range(j_min, j_max + 1):
        side = 2.0**-j
        level = {}
        for i, cell in enumerate(map(tuple, np.floor(cloud.points / side).astype(np.int64))):
            level.setdefault(cell, []).append(i)
        built = {}
        for cell, idx in level.items():
            members = np.array(idx, dtype=np.int64)
            local = cloud.points[members]
            dist = np.linalg.norm(local - (np.array(cell, dtype=float) + 0.5) * side, axis=1)
            built[cell] = (members, local[np.argmin(dist)], float(cloud.weights[members].sum()))
        out[j] = built
    return out


@pytest.mark.parametrize(
    "cloud", [ps.segment(1e-3), ps.four_corners(4), ps.hrycak(3), ps.circle(1e-2)], ids=lambda c: c.generator
)
def test_lattice_matches_loop_reference(cloud):
    lat = cb.CubeLattice(cloud, 0, 4)
    ref = _loop_lattice(cloud, 0, 4)
    for j in range(5):
        assert list(lat.cubes[j]) == list(ref[j])
        for cell, (members, center, weight) in ref[j].items():
            cube = lat.cubes[j][cell]
            assert np.array_equal(cube.members, members)
            assert np.array_equal(cube.center, center)
            assert cube.weight == weight


def _wide_cloud(d):
    """Points on both sides of the origin and in copies about 2^40 apart, which a flattened
    cell key would overflow at levels 0..4."""
    rng = np.random.default_rng(d)
    base = rng.uniform(-2.0, 2.0, (200, d))
    far = np.zeros(d)
    far[0] = 2.0**40
    pts = np.vstack([base, base[:60] + far, base[60:120] - far, base[120:] - far[::-1] + 0.5])
    return ps.RegularCloud(pts, np.full(len(pts), 1e-2), 1, 1e-2, validate=False)


@pytest.mark.parametrize("d", [2, 3])
def test_lattice_matches_loop_reference_on_wide_clouds(d):
    cloud = _wide_cloud(d)
    lat = cb.CubeLattice(cloud, 0, 4)
    ref = _loop_lattice(cloud, 0, 4)
    assert max(abs(int(c)) for cube in lat.cubes[4].values() for c in cube.index) > 2**43
    for j in range(5):
        assert list(lat.cubes[j]) == list(ref[j])
        for cell, (members, center, weight) in ref[j].items():
            cube = lat.cubes[j][cell]
            assert np.array_equal(cube.members, members)
            assert np.array_equal(cube.center, center)
            assert cube.weight == weight


def test_child_keys_sorted_and_descendants_breadth_first(cantor_lattice):
    lat = cantor_lattice
    for cube in lat.all_cubes():
        kids = lat.child_keys(cube.key)
        below = [(cube.level + 1, c) for c in lat.cubes.get(cube.level + 1, {})]
        ref = sorted(k for k in below if lat.parent_key(k) == cube.key)
        assert kids == ref
        kids.append("mutated")  # a caller's copy: the lattice keeps its own list
        assert lat.child_keys(cube.key) == ref
    root = lat.tops()[0].key
    order, frontier = [root], [root]
    while frontier:
        frontier = [k for f in frontier for k in lat.child_keys(f)]
        order += frontier
    assert lat.descendants(root) == order


class TestLatticeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=1, max_value=3),
        count=st.integers(min_value=1, max_value=150),
        dead=st.integers(min_value=0, max_value=30),
        spread=st.sampled_from([0.3, 2.0, 50.0]),
        j_min=st.integers(min_value=0, max_value=3),
        depth=st.integers(min_value=0, max_value=4),
        n_stop=st.integers(min_value=1, max_value=3),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_children_trees_and_counts(self, seed, d, count, dead, spread, j_min, depth, n_stop, share):
        # signed coordinates, zero-weight points, clouds wider than the unit cube and j_min > 0
        rng = np.random.default_rng(seed)
        weights = np.r_[rng.uniform(0.5e-2, 2e-2, count), np.zeros(dead)]
        cloud = ps.RegularCloud(rng.uniform(-spread, spread, (count + dead, d)), weights, 1, 2.0**-8, validate=False)
        lat = cb.CubeLattice(cloud, j_min, j_min + depth)
        for j in range(lat.j_min, lat.j_max + 1):
            level = lat.cubes[j]
            members = np.concatenate([cube.members for cube in level.values()])
            assert np.array_equal(np.sort(members), np.arange(len(weights)))
            assert sum(cube.weight for cube in level.values()) == pytest.approx(weights.sum(), rel=1e-12)
            centers = lat.level_balls(j)[0]
            assert not centers.flags.writeable
            assert np.array_equal(centers, [cube.center for cube in level.values()])
            below = list(lat.cubes.get(j + 1, {}))
            for cell, cube in level.items():
                assert len(cell) == d and all(type(c) is int for c in cell)
                assert (np.floor(cloud.points[cube.members] / 2.0**-j) == cell).all()
                kids = sorted((j + 1, c) for c in below if tuple(x >> 1 for x in c) == cell)
                assert lat.child_keys(cube.key) == kids
        flags = {cube.key: bool(rng.random() < share) for cube in lat.all_cubes()}
        for top in lat.tops():
            forest = cb.decompose_trees(lat, flags, n_stop, top)
            for tree in forest.trees:
                assert cb.validate_tree(tree, lat) == (True, None)
            assert sorted(k for t in forest.trees for k in t.cubes) == sorted(lat.descendants(top.key))
            counts = cb.flagged_ancestry_counts(lat, top, flags)
            outside = np.setdiff1d(np.arange(len(weights)), top.members)
            assert not counts[outside].any()
            for i in top.members.tolist():
                assert counts[i] == cb.big_count(lat, i, top, flags)


def test_tree_query_shapes():
    # the David scan reshapes the k-NN answer and never asks for more than every point:
    # k = 1 squeezes the neighbour axis, k = N returns every point unpadded, k > N pads
    pts = np.random.default_rng(0).uniform(size=(7, 2))
    tree = cKDTree(pts)
    dist, near = tree.query(pts[:3], k=1)
    assert dist.shape == near.shape == (3,)
    dist, near = tree.query(pts[:3], k=7)
    assert dist.shape == near.shape == (3, 7)
    assert np.isfinite(dist).all() and (np.sort(near, axis=1) == np.arange(7)).all()
    assert (np.diff(dist, axis=1) >= 0).all()
    dist, near = tree.query(pts[:3], k=8)
    assert np.isinf(dist[:, -1]).all() and (near[:, -1] == 7).all()


def _david_oracle(lat):
    """All-pairs inner-ball constant and density range; zero-weight points are outside the support."""
    pts = lat.cloud.points
    inner = np.inf
    densities = []
    for cube in lat.all_cubes():
        outside = np.setdiff1d(np.flatnonzero(lat.cloud.weights > 0), cube.members)
        if outside.size:
            inner = min(inner, np.linalg.norm(pts[outside] - cube.center, axis=1).min() / cube.side)
        densities.append(cube.weight / cube.side**lat.cloud.n)
    return (1.0 if np.isinf(inner) else float(inner)), (min(densities), max(densities))


def _david_cloud(seed, count, dead, cluster, copies, spread, signed):
    """Uniform live points in [-spread, spread)^2 (or [0, spread)^2), zero-weight points between
    the closest of them and their nearest neighbours (so often a cube's nearest non-member),
    a cluster of ``cluster`` live points within 1e-4 of one spot and ``copies`` coincident
    copies of live points; the lattice is built without the spacing check."""
    rng = np.random.default_rng(seed)
    live = rng.uniform(-spread if signed else 0.0, spread, (count, 2))
    gap, nn = cKDTree(live).query(live, k=2)
    closest = np.argsort(gap[:, 1], kind="stable")[rng.integers(min(count, 8), size=dead)]
    near_dead = live[closest] + rng.uniform(0.2, 0.8, (dead, 1)) * (live[nn[closest, 1]] - live[closest])
    clump = live[rng.integers(count)] + rng.uniform(0.0, 1e-4, (cluster, 2))
    twins = live[rng.integers(count, size=copies)]
    pts = np.vstack([live, near_dead, clump, twins])
    weights = np.full(len(pts), 1e-2)
    weights[count : count + dead] = 0.0
    order = rng.permutation(len(pts))
    return ps.RegularCloud(pts[order], weights[order], 1, 2.0**-8, validate=False)


def _dead_nearer(lat):
    """Cubes whose nearest non-member weighs zero and lies nearer than every live non-member."""
    pts, live = lat.cloud.points, lat.cloud.weights > 0
    hits = 0
    for cube in lat.all_cubes():
        outside = np.ones(len(pts), dtype=bool)
        outside[cube.members] = False
        dist = np.linalg.norm(pts - cube.center, axis=1)
        if (outside & live).any() and (outside & ~live).any():
            hits += dist[outside & ~live].min() < dist[outside & live].min()
    return hits


class TestDavidDiagnostics:
    @pytest.mark.parametrize(
        "cloud, j_max",
        [(ps.segment(1e-3), 6), (ps.four_corners(4), 6), (ps.hrycak(3), 4)],
        ids=["segment", "four_corners", "hrycak"],
    )
    def test_matches_all_pairs_oracle(self, cloud, j_max):
        lat = cb.CubeLattice(cloud, 0, j_max)
        report = cb.diagnose_david_properties(lat)
        inner, (lo, hi) = _david_oracle(lat)
        assert report.inner_ball_constant == inner
        assert report.density_ratio_range == (lo, hi)

    def test_zero_weight_points_are_not_non_members(self):
        # the zero-weight point at x = 0.52 would bring cube (1, (0, 0))'s constant down to 0.44
        xs = np.array([0.1, 0.3, 0.45, 0.52, 0.7, 0.9])
        weights = np.where(xs == 0.52, 0.0, 0.2)
        cloud = ps.RegularCloud(np.c_[xs, np.full(6, 0.1)], weights, 1, 0.1)
        lat = cb.CubeLattice(cloud, 0, 1)
        report = cb.diagnose_david_properties(lat)
        assert report.inner_ball_constant == pytest.approx(0.5)
        assert report.inner_ball_constant == _david_oracle(lat)[0]

    @pytest.mark.parametrize("spread", [0.5, 0.0], ids=["far_cluster", "isolated_points"])
    def test_far_points_take_the_nearest_neighbour_fallback(self, spread):
        # the level-0 cube of each cluster holds its cluster, and its B_Q (radius 3 sqrt 2)
        # reaches no point of the other one: the k-NN rows, not B_Q, must find the nearest
        # non-member; with spread 0 each cluster is one point, and those cubes set the constant
        near = np.array([[0.1, 0.1], [0.3, 0.15], [0.15, 0.35], [0.6, 0.2], [0.7, 0.8]])
        near = near[:1] + spread * (near - near[:1]) if spread else near[:1]
        pts = np.vstack([near, near + [20.0, 0.5]])
        cloud = ps.RegularCloud(pts, np.full(len(pts), 0.05), 1, 0.05, validate=False)

        class CountingTree:
            def __init__(self, tree):
                self.tree, self.knn_calls = tree, 0

            def query(self, *args, **kwargs):
                self.knn_calls += 1
                return self.tree.query(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.tree, name)

        spy = cloud.__dict__["tree"] = CountingTree(cloud.tree)
        lat = cb.CubeLattice(cloud, 0, 2)
        report = cb.diagnose_david_properties(lat)
        assert spy.knn_calls >= 1
        assert report.inner_ball_constant == _david_oracle(lat)[0]
        if not spread:
            assert report.inner_ball_constant > 20.0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=2, max_value=120),
        dead=st.integers(min_value=0, max_value=60),
        cluster=st.integers(min_value=0, max_value=300),
        copies=st.integers(min_value=0, max_value=12),
        spread=st.sampled_from([0.4, 3.0, 40.0]),
        signed=st.booleans(),
        j_min=st.integers(min_value=0, max_value=3),
        depth=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_random_clouds(
        self, seed, count, dead, cluster, copies, spread, signed, j_min, depth
    ):
        cloud = _david_cloud(seed, count, dead, cluster, copies, spread, signed)
        lat = cb.CubeLattice(cloud, j_min, j_min + depth)
        report = cb.diagnose_david_properties(lat)
        inner, (lo, hi) = _david_oracle(lat)
        assert report.inner_ball_constant == inner
        assert report.density_ratio_range == (lo, hi)

    def test_random_clouds_reach_the_hard_cases(self):
        # seeded draws of the property test's clouds: zero-weight points that are some cube's
        # nearest non-member, coincident points, single-cube levels and clusters of 300 points
        nearer_dead = single = 0
        for seed in range(6):
            cloud = _david_cloud(seed, 60, 40, 300, 8, 0.4, seed % 2 == 0)
            lat = cb.CubeLattice(cloud, seed % 3, seed % 3 + 3)
            nearer_dead += _dead_nearer(lat)
            single += sum(len(lat.cubes[j]) == 1 for j in lat.cubes)
            assert len(np.unique(cloud.points, axis=0)) < len(cloud.points)
            assert cb.diagnose_david_properties(lat).inner_ball_constant == _david_oracle(lat)[0]
        assert nearer_dead > 0 and single > 0

    def test_settling_selects_far_fewer_pairs_than_the_balls(self, monkeypatch):
        base = ps.four_corners(5)
        jitter = np.random.default_rng(1).uniform(-0.125, 0.125, base.points.shape) * base.resolution
        cloud = ps.RegularCloud(base.points + jitter, base.weights, 1, base.resolution)
        lat = cb.CubeLattice(cloud, 0, 7)
        real = ps.RegularCloud.balls_indices
        in_balls = sum(len(real(cloud, *lat.level_balls(j))[1]) for j in range(8))
        selected = []

        def counted(self, centers, radii):
            indptr, idx = real(self, centers, radii)
            selected.append(len(idx))
            return indptr, idx

        monkeypatch.setattr(ps.RegularCloud, "balls_indices", counted)
        report = cb.diagnose_david_properties(lat)
        assert report.inner_ball_constant == _david_oracle(lat)[0]
        assert 0 < len(selected) <= 8 and sum(selected) < in_balls / 20

    def test_single_point_cloud(self):
        cloud = ps.RegularCloud(np.array([[0.3, 0.3]]), np.array([0.25]), 1, 0.25)
        report = cb.diagnose_david_properties(cb.CubeLattice(cloud, 0, 1))
        assert report.inner_ball_constant == 1.0

    def test_aligned_segment_inner_ball(self):
        lat = cb.CubeLattice(ps.segment(1e-3), 0, 3)
        report = cb.diagnose_david_properties(lat)
        assert report.inner_ball_constant >= 0.25

    def test_point_near_wall_flags_small_constant(self):
        pts = np.array([[0.499, 0.0], [0.501, 0.0]])
        cloud = ps.RegularCloud(pts, np.full(2, 0.25), 1, 0.25, validate=False)
        lat = cb.CubeLattice(cloud, 0, 1)
        report = cb.diagnose_david_properties(lat)
        assert report.inner_ball_constant < 0.05  # diagnostic, not an error

    def test_four_corners_density_band(self):
        lat = cb.CubeLattice(ps.four_corners(4), 0, 3)
        lo, hi = cb.diagnose_david_properties(lat).density_ratio_range
        assert hi / lo <= 4.0


class TestDecomposeTrees:
    def test_no_flags_single_tree(self, segment_lattice):
        forest = cb.decompose_trees(segment_lattice, flags_on(segment_lattice, set()), 1, (0, (0,) * 2))
        assert len(forest.trees) == 1
        assert forest.trees[0].leaves == set()
        assert len(forest.trees[0].cubes) == len(segment_lattice)

    @pytest.mark.parametrize("n_stop", [0, 1.5, 2.0, True])
    def test_stopping_count_is_a_count(self, segment_lattice, n_stop):
        flags = flags_on(segment_lattice, set())
        with pytest.raises(ValueError, match="n_stop must be an integer >= 1"):
            cb.decompose_trees(segment_lattice, flags, n_stop, (0, (0, 0)))

    def test_flag_only_at_root(self, segment_lattice):
        root = (0, (0, 0))
        forest = cb.decompose_trees(segment_lattice, flags_on(segment_lattice, {root}), 1, root)
        first = forest.trees[0]
        assert first.cubes == {root} and first.leaves == {root}
        # every child of the root tops its own tree
        child_tops = {t.top for t in forest.trees[1:]}
        assert set(segment_lattice.child_keys(root)) <= child_tops

    def test_uniform_flags_binary_lattice(self):
        lat = cb.CubeLattice(ps.segment(2.0**-5), 0, 3)
        forest = cb.decompose_trees(lat, {c.key: True for c in lat.all_cubes()}, 2, (0, (0, 0)))
        first = forest.trees[0]
        assert {k[0] for k in first.leaves} == {1}
        for tree in forest.trees:
            depth = max(k[0] for k in tree.cubes) - tree.top[0]
            assert depth <= 1  # two levels per tree at stopping count 2

    def test_cover_and_disjointness(self, cantor_lattice):
        rng = np.random.default_rng(0)
        keys = [c.key for c in cantor_lattice.all_cubes()]
        chosen = {k for k in keys if rng.random() < 0.3}
        forest = cb.decompose_trees(cantor_lattice, {k: k in chosen for k in keys}, 2, (0, (0, 0)))
        seen = [k for t in forest.trees for k in t.cubes]
        assert len(seen) == len(set(seen)) == len(cantor_lattice)

    def test_per_tree_flag_count_bounded(self, cantor_lattice):
        rng = np.random.default_rng(1)
        keys = [c.key for c in cantor_lattice.all_cubes()]
        chosen = {k for k in keys if rng.random() < 0.5}
        n = 2
        forest = cb.decompose_trees(cantor_lattice, {k: k in chosen for k in keys}, n, (0, (0, 0)))
        for tree in forest.trees:
            for i in cantor_lattice.get(tree.top).members:
                count = sum(
                    1
                    for j in range(tree.top[0], cantor_lattice.j_max + 1)
                    if cantor_lattice.key_of_point(int(i), j) in tree.cubes
                    and cantor_lattice.key_of_point(int(i), j) in chosen
                )
                assert count <= n

    def test_packing_inequality(self, cantor_lattice):
        rng = np.random.default_rng(2)
        keys = [c.key for c in cantor_lattice.all_cubes()]
        chosen = {k for k in keys if rng.random() < 0.4}
        out = cb.packing_check(cantor_lattice, {k: k in chosen for k in keys}, 3, (0, (0, 0)))
        assert out["ok"]


class TestValidateTree:
    @pytest.fixture(scope="class")
    def forest(self, cantor_lattice):
        rng = np.random.default_rng(3)
        keys = [c.key for c in cantor_lattice.all_cubes()]
        chosen = {k for k in keys if rng.random() < 0.5}
        return cb.decompose_trees(cantor_lattice, {k: k in chosen for k in keys}, 2, (0, (0, 0)))

    @pytest.fixture(scope="class")
    def branching(self, forest, cantor_lattice):
        """A tree of the decomposition with a leaf that has children in the lattice."""
        return next(
            tree for tree in forest.trees
            if any(cantor_lattice.child_keys(leaf) for leaf in tree.leaves)
        )

    def test_decomposition_always_validates(self, forest, cantor_lattice):
        for tree in forest.trees:
            ok, witness = cb.validate_tree(tree, cantor_lattice)
            assert ok, witness

    def test_cube_outside_the_top(self, forest, cantor_lattice):
        tree = next(t for t in forest.trees if t.top[0] > 0)
        root = forest.root
        tampered = cb.Tree(top=tree.top, cubes=tree.cubes | {root}, leaves=set(tree.leaves))
        assert cb.validate_tree(tampered, cantor_lattice) == (False, ("top", tree.top, root))

    def test_leaf_outside_the_tree(self, branching, cantor_lattice):
        stray = next(c.key for c in cantor_lattice.all_cubes() if c.key not in branching.cubes)
        tampered = cb.Tree(top=branching.top, cubes=set(branching.cubes), leaves=branching.leaves | {stray})
        assert cb.validate_tree(tampered, cantor_lattice) == (False, ("leaves", stray))

    def test_leaf_with_a_child_in_the_tree(self, branching, cantor_lattice):
        top = branching.top
        assert top not in branching.leaves
        tampered = cb.Tree(top=top, cubes=set(branching.cubes), leaves=branching.leaves | {top})
        assert cb.validate_tree(tampered, cantor_lattice) == (False, ("leaves", top))

    def test_unmarked_leaf(self, branching, cantor_lattice):
        leaf = next(leaf for leaf in branching.leaves if cantor_lattice.child_keys(leaf))
        tampered = cb.Tree(top=branching.top, cubes=set(branching.cubes), leaves=branching.leaves - {leaf})
        assert cb.validate_tree(tampered, cantor_lattice) == (False, ("leaves", leaf))

    def test_missing_middle_ancestor(self, segment_lattice):
        lat = segment_lattice
        root = (0, (0, 0))
        deep = (2, (0, 0))
        tree = cb.Tree(top=root, cubes={root, deep}, leaves=set())
        ok, witness = cb.validate_tree(tree, lat)
        assert not ok and witness[0] == "consistency"

    def test_one_child_without_sibling(self, segment_lattice):
        lat = segment_lattice
        root = (0, (0, 0))
        kids = lat.child_keys(root)
        tree = cb.Tree(top=root, cubes={root, kids[0]}, leaves=set())
        ok, witness = cb.validate_tree(tree, lat)
        assert not ok and witness[0] == "children"


class TestAncestryCounts:
    def test_no_flags(self, segment_lattice):
        assert cb.big_count(segment_lattice, 0, (0, (0, 0)), flags_on(segment_lattice, set())) == 0
        assert len(cb.e_q_set(segment_lattice, (0, (0, 0)), 1, flags_on(segment_lattice, set()))) == 0

    @pytest.mark.parametrize("n", [-1, 0, 1.5, True])
    def test_threshold_is_a_count(self, segment_lattice, n):
        flags, root = flags_on(segment_lattice, set()), (0, (0, 0))
        with pytest.raises(ValueError, match="n_threshold must be an integer >= 1"):
            cb.e_q_set(segment_lattice, root, n, flags)
        with pytest.raises(ValueError, match="n_threshold must be an integer >= 1"):
            cb.packing_check(segment_lattice, flags, n, root)

    def test_all_flags_equals_depth(self, segment_lattice):
        lat = segment_lattice
        levels = lat.j_max - lat.j_min + 1
        flags = {c.key: True for c in lat.all_cubes()}
        assert cb.big_count(lat, 0, (0, (0, 0)), flags) == levels
        members = cb.e_q_set(lat, (0, (0, 0)), levels, flags)
        assert len(members) == len(lat.cloud.points)

    def test_random_flags_match_bruteforce(self, cantor_lattice):
        lat = cantor_lattice
        rng = np.random.default_rng(4)
        keys = [c.key for c in lat.all_cubes()]
        chosen = {k for k in keys if rng.random() < 0.5}
        flag = {k: k in chosen for k in keys}
        counts = cb.flagged_ancestry_counts(lat, (0, (0, 0)), flag)
        for i in rng.integers(0, len(lat.cloud.points), size=24):
            brute = sum(
                1
                for j in range(lat.j_min, lat.j_max + 1)
                if lat.key_of_point(int(i), j) in chosen
            )
            assert counts[int(i)] == brute == cb.big_count(lat, int(i), (0, (0, 0)), flag)


def _jsonl_oracle(lat) -> bytes:
    """export_jsonl's bytes the cube-at-a-time way: one ``json.dumps`` record per line."""
    return "".join(
        json.dumps({"level": c.level, "cell_index": c.index, "center": c.center.tolist(),
                    "weight": c.weight, "parent": lat.parent_key(c.key)}) + "\n"
        for c in lat.all_cubes()
    ).encode()


def _grid_line(count, j_min):
    """``count`` points on the finest grid of a 0.5-long segment, so level 10 holds ``count`` cubes,
    one weight repeated on both sides of each chunk boundary."""
    pts = np.c_[(np.arange(count) + 0.5) * 2.0**-10, np.full(count, 0.25)]
    return cb.CubeLattice(ps.RegularCloud(pts, np.full(count, 2.0**-10), 1, 2.0**-10), j_min, 10)


def _signed_zero_lattice():
    """Centres at -0.0, 0.0 and 5e-324 on one axis, and weights of inf and nan."""
    pts = np.array([[-0.0, 0.1], [0.0, 0.6], [5e-324, 0.9], [0.3, -0.0], [0.7, 0.0], [0.6, 0.4]])
    weights = np.array([0.1, 0.1, math.inf, 0.1, math.nan, 5e-324])
    return cb.CubeLattice(ps.RegularCloud(pts, weights, 1, 1e-3, validate=False), 0, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cb.CubeLattice(ps.four_corners(3), 0, 4),
        *(lambda c=c: _grid_line(c, 0) for c in (1, ps._ROW_CHUNK - 1, ps._ROW_CHUNK, ps._ROW_CHUNK + 1)),
        lambda: _grid_line(2 * ps._ROW_CHUNK + 5, 3),  # j_min > 0: top parents are null
        lambda: cb.CubeLattice(_wide_cloud(1), 1, 6),
        lambda: cb.CubeLattice(_wide_cloud(3), 2, 5),
        _signed_zero_lattice,
    ],
    ids=["cantor", "line-1", "line-chunk-1", "line-chunk", "line-chunk+1", "line-jmin3", "d1", "d3", "zeros"],
)
def test_export_jsonl_is_the_cube_at_a_time_bytes(tmp_path, make):
    lat = make()
    path = tmp_path / "lattice.jsonl"
    lat.export_jsonl(path)
    assert path.read_bytes() == _jsonl_oracle(lat)
    assert path.read_bytes().count(b"\n") == len(lat)
