"""Dyadic cube lattices on point clouds, trees, and stopping decompositions.

Cubes are ambient half-open dyadic grid cells intersected with a cloud;
cube centres snap to cloud points and every cube carries the ball
B_Q = B(c_Q, C * side) with C = 3 * sqrt(d), which makes the balls nested
along parent links. Cubes are identified by (level, cell index) keys, and
flags are mappings from those keys to bools. Functions that take a root
cube accept a ``Cube`` or its key. The David scan reads each cube's nearest
non-member from its level's batched selection of the balls B_Q, and looks
further by k-nearest neighbours only for a cube whose B_Q holds none.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .pointset import Ball, RegularCloud, _ball_batches, _row_norms

CubeKey = tuple[int, tuple[int, ...]]
Flags = Mapping[CubeKey, bool]


@dataclass(eq=False)
class Cube:
    level: int
    index: tuple[int, ...]
    members: np.ndarray          # indices into the cloud
    center: np.ndarray           # a cloud point near the cell centre
    weight: float

    @property
    def key(self) -> CubeKey:
        return (self.level, self.index)

    @property
    def side(self) -> float:
        return 2.0 ** -self.level


class CubeLattice:
    """Nested dyadic decomposition of a cloud between two levels.

    ``cubes[j]`` maps cell indices to Cube objects at side length 2^-j;
    parents and children are index-arithmetic on keys. The ball constant C
    guarantees B_Q inside B_parent.
    """

    def __init__(self, cloud: RegularCloud, j_min: int, j_max: int):
        if len(cloud.points) == 0:
            raise ValueError("cannot build a lattice on an empty cloud")
        if j_min > j_max:
            raise ValueError("j_min must be <= j_max")
        if 2.0**-j_max < cloud.resolution:
            raise ValueError("finest level is below the cloud resolution")
        self.cloud = cloud
        self.j_min = j_min
        self.j_max = j_max
        self.ball_constant = 3.0 * math.sqrt(cloud.d)
        self.cubes: dict[int, dict[tuple[int, ...], Cube]] = {}
        pts = cloud.points
        for j in range(j_min, j_max + 1):
            side = 2.0**-j
            cells = np.floor(pts / side).astype(np.int64)
            # cubes in order of their first point, members ascending
            uniq, first, inverse = np.unique(cells, axis=0, return_index=True, return_inverse=True)
            inverse = inverse.ravel()
            groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
            dist = np.linalg.norm(pts - (cells + 0.5) * side, axis=1)
            built = {}
            for u in np.argsort(first):
                cell, members = tuple(uniq[u]), groups[u]
                built[cell] = Cube(
                    level=j,
                    index=cell,
                    members=members,
                    center=pts[members[np.argmin(dist[members])]].copy(),
                    weight=float(cloud.weights[members].sum()),
                )
            self.cubes[j] = built

    # -- structure ---------------------------------------------------------

    def all_cubes(self):
        for j in range(self.j_min, self.j_max + 1):
            yield from self.cubes[j].values()

    def __len__(self):
        return sum(len(level) for level in self.cubes.values())

    def get(self, key: CubeKey) -> Cube:
        return self.cubes[key[0]][key[1]]

    def tops(self) -> list[Cube]:
        return list(self.cubes[self.j_min].values())

    def parent_key(self, key: CubeKey) -> CubeKey | None:
        j, cell = key
        if j <= self.j_min:
            return None
        return (j - 1, tuple(c >> 1 for c in cell))

    def parent(self, cube: Cube) -> Cube | None:
        pk = self.parent_key(cube.key)
        return None if pk is None else self.get(pk)

    @cached_property
    def _child_map(self) -> dict[CubeKey, list[CubeKey]]:
        cm: dict[CubeKey, list[CubeKey]] = {}
        for j in range(self.j_min + 1, self.j_max + 1):
            for cell in self.cubes[j]:
                pk = (j - 1, tuple(c >> 1 for c in cell))
                cm.setdefault(pk, []).append((j, cell))
        return cm

    def child_keys(self, key: CubeKey) -> list[CubeKey]:
        return sorted(self._child_map.get(key, []))

    def ball(self, cube: Cube, factor: float = 1.0) -> Ball:
        return Ball(cube.center, factor * self.ball_constant * cube.side)

    def level_balls(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Centres and radii of the balls B_Q of level j, in ``cubes[j]`` order."""
        level = self.cubes[j].values()
        return np.array([cube.center for cube in level]), np.full(len(level), self.ball_constant * 2.0**-j)

    def descendants(self, key: CubeKey) -> list[CubeKey]:
        """Keys of all cubes contained in ``key`` (including itself), BFS order."""
        out = [key]
        frontier = [key]
        while frontier:
            nxt = []
            for k in frontier:
                nxt.extend(self.child_keys(k))
            out.extend(nxt)
            frontier = nxt
        return out

    def key_of_point(self, point_index: int, level: int) -> CubeKey:
        side = 2.0**-level
        cell = tuple(int(c) for c in np.floor(self.cloud.points[point_index] / side).astype(np.int64))
        return (level, cell)

    def contains_point(self, key: CubeKey, point_index: int) -> bool:
        return self.key_of_point(point_index, key[0]) == key

    def export_jsonl(self, path: str | Path):
        """One cube per line: level, cell index, centre, weight, parent."""
        with open(path, "w") as fh:
            for cube in self.all_cubes():
                pk = self.parent_key(cube.key)
                fh.write(
                    json.dumps(
                        {
                            "level": cube.level,
                            "cell_index": [int(c) for c in cube.index],
                            "center": [float(c) for c in cube.center],
                            "weight": cube.weight,
                            "parent": None if pk is None else [pk[0], [int(c) for c in pk[1]]],
                        }
                    )
                    + "\n"
                )


@dataclass
class DavidReport:
    inner_ball_constant: float
    density_ratio_range: tuple[float, float]
    flagged: list[CubeKey]


def diagnose_david_properties(lattice: CubeLattice) -> DavidReport:
    """Surface the inner-ball quality and density spread of a lattice.

    Reports the largest c such that B(c_Q, c * side) ∩ cloud ⊂ Q for every
    cube, the range of weight / side^n over cubes, and the cubes whose
    density sits outside a factor 100 of the median (diagnostic only, never
    an error). Zero-weight points lie outside the measure's support and are
    left out, as in ``beta``.
    """
    cloud = lattice.cloud
    live = cloud.weights > 0
    inner = math.inf
    cubes = list(lattice.all_cubes())
    densities = np.array([cube.weight / cube.side**cloud.n for cube in cubes])
    label = np.empty(len(cloud.points), dtype=np.intp)
    for j in range(lattice.j_min, lattice.j_max + 1):
        for b, cube in enumerate(lattice.cubes[j].values()):
            label[cube.members] = b
        centers, radii = lattice.level_balls(j)
        for lo, indptr, idx in _ball_batches(cloud, centers, radii):
            seg = lo + np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            dist = _row_norms(cloud.points.take(idx, axis=0) - centers.take(seg, axis=0))
            dist[~live[idx] | (label[idx] == seg)] = math.inf  # members and zero-weight points
            nearest = np.minimum.reduceat(dist, indptr[:-1])
            for b in np.flatnonzero(nearest == math.inf) + lo:
                # B_Q holds no live non-member: the skip.sum()+1 nearest points hold one if any
                # exists, and the ball through the first found holds all as near, up to rounding
                skip = ~live | (label == b)
                if not skip.all():
                    knn, near = cloud.tree.query(centers[b], k=int(skip.sum()) + 1)
                    near = cloud.ball_indices(Ball(centers[b], knn[~skip[near]][0] * (1.0 + 1e-12)))
                    nearest[b - lo] = _row_norms(cloud.points[near[~skip[near]]] - centers[b]).min()
            inner = min(inner, float((nearest / 2.0**-j).min()))
    med = float(np.median(densities))
    flagged = [
        cube.key
        for cube, dens in zip(cubes, densities)
        if dens > 100.0 * med or dens < med / 100.0
    ]
    return DavidReport(
        inner_ball_constant=float(inner) if np.isfinite(inner) else 1.0,
        density_ratio_range=(float(densities.min()), float(densities.max())),
        flagged=flagged,
    )


@dataclass
class Tree:
    top: CubeKey
    cubes: set[CubeKey] = field(default_factory=set)
    leaves: set[CubeKey] = field(default_factory=set)


@dataclass
class Forest:
    trees: list[Tree]
    root: CubeKey


def _as_key(q) -> CubeKey:
    return q.key if isinstance(q, Cube) else q


def decompose_trees(lattice: CubeLattice, flags: Flags, n_stop: int, q0) -> Forest:
    """Stopping-time decomposition of the cubes under ``q0`` into trees.

    Walking down from each tree top, a cube becomes a leaf as soon as the
    number of flagged cubes between it and the top (inclusive) reaches
    ``n_stop``; the children of leaves seed new trees. Cubes at the bottom
    of the lattice end their trees without becoming leaves (the rule never
    fired there), so a tree may have an empty leaf set. Every cube under q0
    lands in exactly one tree.
    """
    if n_stop < 1:
        raise ValueError("the stopping count must be >= 1")
    root = _as_key(q0)
    trees: list[Tree] = []
    pending = [root]
    while pending:
        top = pending.pop()
        tree = Tree(top=top)
        stack = [(top, 0)]
        while stack:
            key, count = stack.pop()
            count += 1 if flags[key] else 0
            tree.cubes.add(key)
            children = lattice.child_keys(key)
            if count >= n_stop:
                tree.leaves.add(key)
                pending.extend(children)
            else:
                stack.extend((c, count) for c in children)
        trees.append(tree)
    return Forest(trees=trees, root=root)


def validate_tree(tree: Tree, lattice: CubeLattice):
    """Check the three tree axioms and the leaf characterisation.

    Returns (True, None) or (False, witness); the witness names the broken
    axiom and the offending cubes.
    """
    top = tree.top
    for key in tree.cubes:
        if not _is_ancestor(top, key):
            return False, ("top", top, key)
    # consistency: anything sandwiched between two members is a member
    for key in tree.cubes:
        walk = lattice.parent_key(key)
        while walk is not None and walk != top and _is_ancestor(top, walk):
            if walk not in tree.cubes:
                return False, ("consistency", key, walk, top)
            walk = lattice.parent_key(walk)
    for key in tree.cubes:
        children = lattice.child_keys(key)
        inside = [c for c in children if c in tree.cubes]
        if inside and len(inside) != len(children):
            missing = next(c for c in children if c not in tree.cubes)
            return False, ("children", key, missing)
    # leaves are exactly the members with no child in the tree, except that
    # cubes at the lattice bottom may end a tree without being leaves (the
    # finite lattice truncates them; only fired stopping cubes are leaves)
    for key in tree.leaves:
        if key not in tree.cubes or any(c in tree.cubes for c in lattice.child_keys(key)):
            return False, ("leaves", key)
    for key in tree.cubes:
        children = lattice.child_keys(key)
        if children and not any(c in tree.cubes for c in children) and key not in tree.leaves:
            return False, ("leaves", key)
    return True, None


def _is_ancestor(ancestor: CubeKey, key: CubeKey) -> bool:
    ja, cella = ancestor
    jk, cellk = key
    if ja > jk:
        return False
    shift = jk - ja
    return tuple(c >> shift for c in cellk) == cella


def big_count(lattice: CubeLattice, point_index: int, q, flags: Flags) -> int:
    """Number of flagged cubes between the point and ``q`` (inclusive)."""
    root = _as_key(q)
    if not lattice.contains_point(root, point_index):
        raise ValueError("the point does not lie in the given cube")
    count = 0
    for j in range(root[0], lattice.j_max + 1):
        key = lattice.key_of_point(point_index, j)
        if key[1] in lattice.cubes[j] and flags[key]:
            count += 1
    return count


def flagged_ancestry_counts(lattice: CubeLattice, q0, flags: Flags) -> np.ndarray:
    """Per-point count of flagged cubes containing the point under ``q0``.

    Vectorised companion of ``big_count``: entry i is the number of flagged
    cubes Q' with point i in Q' and Q' inside q0; points outside q0 get 0.
    """
    counts = np.zeros(len(lattice.cloud.points), dtype=np.int64)
    for key in lattice.descendants(_as_key(q0)):
        if flags[key]:
            counts[lattice.get(key).members] += 1
    return counts


def e_q_set(lattice: CubeLattice, q, n_threshold: int, flags: Flags) -> np.ndarray:
    """Member indices of ``q`` whose flagged-ancestry count reaches the threshold."""
    counts = flagged_ancestry_counts(lattice, q, flags)
    members = lattice.get(_as_key(q)).members
    return members[counts[members] >= n_threshold]


def packing_check(lattice: CubeLattice, flags: Flags, n_threshold: int, q0) -> dict:
    """Carleson packing consequence of small high-count sets.

    If for every cube Q under q0 the members with flagged-ancestry count
    >= n carry at most half of Q's mass, then the flagged mass under q0 is
    at most 2 n mu(q0). Returns the hypothesis status, the flagged mass,
    and whether the bound holds.
    """
    root = _as_key(q0)
    cloud = lattice.cloud
    hypothesis_ok = True
    for key in lattice.descendants(root):
        idx = e_q_set(lattice, key, n_threshold, flags)
        if cloud.weights[idx].sum() > 0.5 * lattice.get(key).weight + 1e-12:
            hypothesis_ok = False
            break
    flagged_mass = sum(lattice.get(k).weight for k in lattice.descendants(root) if flags[k])
    bound = 2.0 * n_threshold * lattice.get(root).weight
    return {
        "hypothesis_ok": hypothesis_ok,
        "flagged_mass": flagged_mass,
        "bound": bound,
        "ok": (not hypothesis_ok) or flagged_mass <= bound + 1e-9,
    }
