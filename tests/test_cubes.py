"""Lattice construction, tree axioms, stopping decomposition, ancestry counts."""

import numpy as np
import pytest

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
            parent = lat.parent(cube)
            if parent is not None:
                gap = np.linalg.norm(cube.center - parent.center)
                assert gap + c * cube.side <= c * parent.side + 1e-12

    def test_centers_are_cloud_points(self, cantor_lattice):
        lat = cantor_lattice
        pts = {tuple(p) for p in lat.cloud.points}
        for cube in lat.all_cubes():
            assert tuple(cube.center) in pts

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


def _david_oracle(lat):
    """All-pairs inner-ball constant and density range."""
    pts = lat.cloud.points
    inner = np.inf
    densities = []
    for cube in lat.all_cubes():
        outside = np.setdiff1d(np.arange(len(pts)), cube.members)
        if outside.size:
            inner = min(inner, np.linalg.norm(pts[outside] - cube.center, axis=1).min() / cube.side)
        densities.append(cube.weight / cube.side**lat.cloud.n)
    return (1.0 if np.isinf(inner) else float(inner)), (min(densities), max(densities))


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

    def test_export_jsonl(self, tmp_path, cantor_lattice):
        path = tmp_path / "lattice.jsonl"
        cantor_lattice.export_jsonl(path)
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(cantor_lattice)
        assert all("level" in l and "weight" in l for l in lines)
