"""Dyadic cube lattices on point clouds, trees, and stopping decompositions.

Cubes are ambient half-open dyadic grid cells intersected with a cloud;
cube centres snap to cloud points and every cube carries the ball
B_Q = B(c_Q, C * side) with C = 3 * sqrt(d), which makes the balls nested
along parent links. Cubes are identified by (level, cell index) keys with
Python int cells, and flags are mappings from those keys to bools. The
lattice answers structure in keys: a key's parent key (its cells halved),
its child keys, the key of a point's cube at a level, and ``get`` turns a
key into its cube. A lattice lists every cube's children, in key order,
when it is built, and the tree walkers read those lists. Functions that
take a root cube accept a ``Cube`` or its key. The David scan finds each
cube's nearest non-member by k-nearest neighbours and settles each level's
least distance with one small ball query.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pointset import _ROW_CHUNK, BALL_CHUNK, Ball, RegularCloud, _check_count, _reprs, _row_norms

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

    ``cubes[j]`` maps the occupied cells of side 2^-j to Cube objects in order
    of each cell's first point, members ascending: one stable lexsort of the
    level's integer cells, a key per coordinate with the first primary (one
    flattened key could overflow on wide clouds), groups the points in key
    order. Key cells are Python ints. The same pass appends each cube to its
    parent's child list, so the lists come out in key order, and keeps the
    level's centres as one read-only array, which ``level_balls`` returns and
    each cube's ``center`` is a row of. ``ball`` gives one cube's B_Q and
    ``level_balls`` a level's; a caller that wants a multiple of B_Q, as
    ``beta_comparison`` wants 2 B_Q, scales the radii itself. The ball
    constant C guarantees B_Q inside B_parent.
    """

    def __init__(self, cloud: RegularCloud, j_min: int, j_max: int):
        _check_count("j_min", j_min)
        _check_count("j_max", j_max)
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
        self._children: dict[CubeKey, list[CubeKey]] = {}
        self._centers: dict[int, np.ndarray] = {}
        pts = cloud.points
        for j in range(j_min, j_max + 1):
            side = 2.0**-j
            cells = np.floor(pts / side).astype(np.int64)
            order = np.lexsort(cells.T[::-1])
            sorted_cells = cells[order]
            new = np.r_[True, (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)]
            starts = np.flatnonzero(new)
            groups = np.split(order, starts[1:])
            keys = [(j, tuple(cell)) for cell in sorted_cells[starts].tolist()]
            if j > j_min:
                for key in keys:
                    self._children.setdefault(self.parent_key(key), []).append(key)
            # each group's first point nearest its cell's centre
            dist = np.linalg.norm(pts - (cells + 0.5) * side, axis=1)[order]
            hits = np.flatnonzero(dist == np.minimum.reduceat(dist, starts)[np.cumsum(new) - 1])
            near = order[hits[np.searchsorted(hits, starts)]]
            first = np.argsort(order[starts])
            self._centers[j] = centers = pts[near[first]]
            centers.flags.writeable = False
            self.cubes[j] = {
                keys[g][1]: Cube(j, keys[g][1], groups[g], center, float(cloud.weights[groups[g]].sum()))
                for g, center in zip(first.tolist(), centers)
            }

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

    def child_keys(self, key: CubeKey) -> list[CubeKey]:
        return list(self._children.get(key, ()))

    def ball(self, cube: Cube) -> Ball:
        return Ball(cube.center, self.ball_constant * cube.side)

    def level_balls(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Centres and radii of the balls B_Q of level j, in ``cubes[j]`` order; the centres are the
        lattice's own read-only array."""
        centers = self._centers[j]
        return centers, np.full(len(centers), self.ball_constant * 2.0**-j)

    def descendants(self, key: CubeKey) -> list[CubeKey]:
        """Keys of all cubes contained in ``key`` (including itself), BFS order."""
        out = [key]
        for k in out:  # the list is the BFS queue: it grows while it is walked
            out.extend(self._children.get(k, ()))
        return out

    def key_of_point(self, point_index: int, level: int) -> CubeKey:
        _check_count("point_index", point_index, 0)
        if point_index >= (count := len(self.cloud.points)):
            raise ValueError(f"point_index must be below the cloud's {count} points, got {point_index}")
        side = 2.0**-level
        cell = tuple(np.floor(self.cloud.points[point_index] / side).astype(np.int64).tolist())
        return (level, cell)

    def export_jsonl(self, path: str | Path):
        """One cube per line, level by level in ``cubes[j]`` order: level, cell index, centre,
        weight and parent key (null at j_min), the bytes ``json.dumps`` writes for each record. The
        centres are the level's array; the floats are formatted _ROW_CHUNK cubes at a time."""
        with open(path, "w") as fh:
            for j, level in self.cubes.items():
                cells, weights = list(level), np.array([cube.weight for cube in level.values()])
                for lo in range(0, len(cells), _ROW_CHUNK):
                    part = slice(lo, lo + _ROW_CHUNK)
                    centers = map(", ".join, _reprs(self._centers[j][part], json.dumps))
                    for cell, center, weight in zip(cells[part], centers, _reprs(weights[part], json.dumps)):
                        # the repr of a list of Python ints is its JSON
                        parent = f"[{j - 1}, {[c >> 1 for c in cell]}]" if j > self.j_min else "null"
                        fh.write(f'{{"level": {j}, "cell_index": {list(cell)}, "center": [{center}], '
                                 f'"weight": {weight}, "parent": {parent}}}\n')


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

    Per level, the constant is the least distance from a cube's centre to a
    live point outside it, over the side. Bound, then settle: the k nearest
    points of a centre, k its member count plus the zero-weight count plus 1,
    hold a live non-member if one exists, and the first is the cube's nearest
    (a row of every point without one: the cube has none); rows run in
    power-of-two classes of k, about BALL_CHUNK neighbours at a time. The least
    of these, tau, is no less than the level's minimum, so one ``balls_indices``
    call of radius tau (1 + 1e-9), the slack for the tree's rounding, about the
    cubes whose nearest is within it holds every pair that can attain it; the
    least ``_row_norms`` of its live non-members is the all-pairs minimum.
    """
    cloud = lattice.cloud
    pts, live = cloud.points, cloud.weights > 0
    n_dead = len(pts) - int(live.sum())
    inner = math.inf
    cubes = list(lattice.all_cubes())
    densities = np.array([cube.weight / cube.side**cloud.n for cube in cubes])
    label = np.empty(len(pts), dtype=np.intp)
    for j in range(lattice.j_min, lattice.j_max + 1):
        level = list(lattice.cubes[j].values())
        for b, cube in enumerate(level):
            label[cube.members] = b
        centers = lattice.level_balls(j)[0]
        counts = np.array([len(cube.members) for cube in level])
        ks = np.minimum(counts + n_dead + 1, len(pts))
        nearest = np.full(len(level), math.inf)
        classes = np.where(counts < len(pts), np.frexp(ks)[1], 0)  # a cube of every point has none
        for c in np.unique(classes[classes > 0]):
            rows = np.flatnonzero(classes == c)
            k = int(ks[rows].max())
            for run in np.array_split(rows, min(len(rows), math.ceil(len(rows) * k / BALL_CHUNK))):
                dist, near = (a.reshape(len(run), k) for a in cloud.tree.query(centers[run], k=k))
                hit = live[near] & (label[near] != run[:, None])
                found = hit.any(axis=1)
                nearest[run[found]] = dist[found, hit[found].argmax(axis=1)]
        tau = nearest.min() * (1.0 + 1e-9)
        if tau < math.inf:
            close = np.flatnonzero(nearest <= tau)
            indptr, idx = cloud.balls_indices(centers[close], np.full(len(close), tau))
            seg = np.repeat(close, np.diff(indptr))
            keep = live[idx] & (label[idx] != seg)
            inner = min(inner, float(_row_norms(pts[idx[keep]] - centers[seg[keep]]).min() / 2.0**-j))
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
    _check_count("n_stop", n_stop, 1)
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
    """Check the tree axioms and the leaf characterisation.

    Returns (True, None) or (False, witness); the witness names the broken
    axiom and the offending cubes:

    - ``("top", top, key)``: every member lies in the top;
    - ``("consistency", key, parent, top)``: every member but the top has its
      parent in the tree or the top as its parent, so by induction anything
      between two members is a member;
    - ``("children", key, missing)``: a member has all its children in the
      tree or none;
    - ``("leaves", key)``: the leaves are exactly the members with children in
      the lattice and none in the tree; cubes at the lattice bottom may end a
      tree without being leaves (the finite lattice truncates them; only fired
      stopping cubes are leaves).

    Consistency, children and unmarked leaves are checked in one pass over
    the members, so when a tree breaks two axioms either may be named.
    """
    top = tree.top
    for key in tree.cubes:
        if not _is_ancestor(top, key):
            return False, ("top", top, key)
    for key in tree.cubes:
        parent = lattice.parent_key(key)
        if key != top and parent != top and parent not in tree.cubes:
            return False, ("consistency", key, parent, top)
        children = lattice.child_keys(key)
        inside = [c for c in children if c in tree.cubes]
        if inside and len(inside) != len(children):
            return False, ("children", key, next(c for c in children if c not in tree.cubes))
        if children and not inside and key not in tree.leaves:
            return False, ("leaves", key)
    for key in tree.leaves:
        if key not in tree.cubes or any(c in tree.cubes for c in lattice.child_keys(key)):
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
    if lattice.key_of_point(point_index, root[0]) != root:
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
    _check_count("n_threshold", n_threshold, 1)
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
