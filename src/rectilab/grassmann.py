"""Linear-algebraic geometry of the Grassmannian G(d,n) and affine planes.

Subspaces are carried as d x n orthonormal bases, metrics are operator norms
of projection differences (computed by dense SVD; ambient dimension stays
small), and Haar sampling goes through orthonormalised Gaussian matrices.
All randomness comes from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ORTHO_TOL = 1e-10
# sample_in_ball gives up after this many rejected draws
SAMPLE_MAX_TRIES = 10_000


class DimensionMismatchError(ValueError):
    pass


class DegenerateInputError(ValueError):
    pass


def _as_matrix(basis) -> np.ndarray:
    b = np.asarray(basis, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    return b


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors``.

    Raises DegenerateInputError if the columns are numerically dependent.
    """
    m = _as_matrix(vectors)
    if m.shape[1] == 0:
        return m
    q, r = np.linalg.qr(m)
    if np.min(np.abs(np.diag(r))) <= 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise DegenerateInputError("input vectors are numerically linearly dependent")
    return q


@dataclass(frozen=True, eq=False)
class Subspace:
    """An n-dimensional linear subspace of R^d, stored as an orthonormal basis.

    ``basis`` has shape (d, n) with orthonormal columns (checked to 1e-10).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _as_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        d, n = b.shape
        if not 0 <= n <= d:
            raise DimensionMismatchError(f"need 0 <= n <= d, got n={n}, d={d}")
        gram = b.T @ b
        if n and np.max(np.abs(gram - np.eye(n))) > ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal to 1e-10")

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def projection_matrix(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @classmethod
    def from_vectors(cls, vectors) -> "Subspace":
        return cls(orthonormalize(_as_matrix(vectors)))

    @classmethod
    def axis(cls, d: int, *axes: int) -> "Subspace":
        b = np.zeros((d, len(axes)))
        for j, a in enumerate(axes):
            b[a, j] = 1.0
        return cls(b)

    @classmethod
    def full(cls, d: int) -> "Subspace":
        return cls(np.eye(d))

    @classmethod
    def zero(cls, d: int) -> "Subspace":
        return cls(np.zeros((d, 0)))

    def complement(self) -> "Subspace":
        return orthogonal_complement(self)


@dataclass(frozen=True, eq=False)
class AffinePlane:
    """An m-dimensional affine plane, direction subspace plus canonical anchor.

    The anchor is the component of any plane point orthogonal to the
    direction, which makes the representation unique and equality testable.
    """

    direction: Subspace
    anchor: np.ndarray = field(default=None)

    def __post_init__(self):
        a = np.zeros(self.direction.d) if self.anchor is None else np.asarray(self.anchor, float)
        if a.shape != (self.direction.d,):
            raise DimensionMismatchError("anchor dimension does not match the direction")
        b = np.ascontiguousarray(self.direction.basis)  # same rounding for every memory layout
        a = a - b @ (b.T @ a)
        object.__setattr__(self, "anchor", a)

    @property
    def d(self) -> int:
        return self.direction.d

    @property
    def m(self) -> int:
        return self.direction.n

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from point(s) ``x`` (shape (..., d)) to the plane."""
        x = np.asarray(x, dtype=float)
        rel = x - self.anchor
        tang = rel @ self.direction.basis
        normal = rel - tang @ self.direction.basis.T
        return np.linalg.norm(normal, axis=-1)

    def close_to(self, other: "AffinePlane") -> bool:
        if self.m != other.m or self.d != other.d:
            return False
        return (
            metric(self.direction, other.direction) <= 1e-9
            and np.linalg.norm(self.anchor - other.anchor) <= 1e-9
        )


@dataclass(frozen=True)
class GrassmannBall:
    """Metric ball in G(d,n); radius is in the projection operator-norm metric."""

    center: Subspace
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius <= 2.0:
            raise ValueError("radius must lie in [0, 2], the diameter bound of G(d,n)")


def project(v: Subspace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of point(s) ``x`` onto the subspace ``v``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != v.d:
        raise DimensionMismatchError(f"point dimension {x.shape[-1]} != ambient {v.d}")
    return (x @ v.basis) @ v.basis.T


def metric(v1: Subspace, v2: Subspace) -> float:
    """Operator-norm distance between projections, ``||P1 - P2||``."""
    _check_same_shape(v1, v2)
    diff = v1.projection_matrix - v2.projection_matrix
    return float(np.linalg.norm(diff, ord=2))


def metric_bar(v1: Subspace, v2: Subspace) -> float:
    """Equivalent metric: max distance of a unit vector of ``v1`` to ``v2``."""
    _check_same_shape(v1, v2)
    return containment_residual(v1, v2)


def _check_same_shape(v1: Subspace, v2: Subspace):
    if v1.d != v2.d:
        raise DimensionMismatchError("ambient dimensions differ")
    if v1.n != v2.n:
        raise DimensionMismatchError("subspace dimensions differ")


def containment_residual(v: Subspace, w: Subspace) -> float:
    """How far ``v`` sticks out of ``w``: max residual of a unit vector of v."""
    if v.d != w.d:
        raise DimensionMismatchError("ambient dimensions differ")
    if v.n == 0:
        return 0.0
    residual = v.basis - w.basis @ (w.basis.T @ v.basis)
    return float(np.linalg.norm(residual, ord=2))


def orthogonal_complement(v: Subspace) -> Subspace:
    """The (d-n)-dimensional orthogonal complement of ``v``."""
    d, n = v.d, v.n
    if n == 0:
        return Subspace.full(d)
    if n == d:
        return Subspace.zero(d)
    # Columns of U beyond the first n span the complement.
    u, _, _ = np.linalg.svd(v.basis, full_matrices=True)
    return Subspace(u[:, n:])


def sample_haar(d: int, n: int, rng: np.random.Generator) -> Subspace:
    """Haar-distributed n-dimensional subspace of R^d.

    The column span of a d x n standard Gaussian matrix is invariant in law
    under the orthogonal group, so orthonormalising one yields the invariant
    probability measure on G(d,n).
    """
    if not 0 <= n <= d:
        raise DimensionMismatchError(f"need 0 <= n <= d, got n={n}, d={d}")
    if n == 0:
        return Subspace.zero(d)
    while True:
        g = rng.standard_normal((d, n))
        try:
            return Subspace(orthonormalize(g))
        except DegenerateInputError:  # probability zero, but be safe
            continue


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation matrix in O(d) (QR with sign fix)."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def rotate(g: np.ndarray, v: Subspace) -> Subspace:
    return Subspace(orthonormalize(g @ v.basis))


def sample_in_ball(ball: GrassmannBall, rng: np.random.Generator) -> Subspace:
    """A random subspace inside a Grassmannian ball.

    Gaussian perturbation of the center basis, rejected until the metric
    constraint holds; covers the whole ball but is not exactly the
    Haar-restricted law (adequate for searching over a ball of directions).
    """
    c, r = ball.center, ball.radius
    if r == 0.0:
        return c
    for _ in range(SAMPLE_MAX_TRIES):
        scale = r * rng.uniform(0.1, 1.1)
        g = c.basis + scale * rng.standard_normal(c.basis.shape)
        try:
            v = Subspace(orthonormalize(g))
        except DegenerateInputError:
            continue
        if metric(c, v) <= r:
            return v
    raise RuntimeError(f"ball sampling did not accept within {SAMPLE_MAX_TRIES} tries")


def nearest_subspace_in(w2: Subspace, v1: Subspace, w1: Subspace) -> Subspace:
    """Given v1 inside w1, the comparable n-dimensional subspace of w2.

    Projects an orthonormal basis of ``v1`` into ``w2`` and orthonormalises;
    the output satisfies metric(v1, result) <= C * metric(w1, w2) with C <= 4
    whenever metric(w1, w2) <= 0.3 (verified empirically in the test suite).
    """
    if w1.n != w2.n:
        raise DimensionMismatchError("w1 and w2 must have equal dimension")
    if v1.n >= w1.n:
        raise DimensionMismatchError("v1 must be a proper subspace of w1")
    if containment_residual(v1, w1) > 1e-8:
        raise ValueError("v1 is not contained in w1")
    projected = w2.basis @ (w2.basis.T @ v1.basis)
    try:
        return Subspace(orthonormalize(projected))
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            "projected basis vectors are dependent; the planes are nearly orthogonal"
        ) from exc


def annihilation_threshold(delta: float) -> float:
    """Largest admissible ratio |proj(z)|/|z| for annihilating_plane at ``delta``."""
    return delta / 4.0


def annihilating_plane(z: np.ndarray, v: Subspace, delta: float) -> Subspace:
    """Rotate ``v`` slightly so that the rotated plane annihilates ``z``.

    Requires |proj_v(z)| <= (delta/4)|z|. The returned plane v' satisfies
    proj_{v'}(z) = 0 up to 1e-10 |z| and metric(v, v') < delta: the basis
    direction aligned with proj_v(z) is rotated away from z inside the
    2-plane spanned by the projection and its orthogonal complement part.
    """
    z = np.asarray(z, dtype=float)
    norm_z = float(np.linalg.norm(z))
    if norm_z == 0.0:
        raise ValueError("z must be nonzero")
    pz = project(v, z)
    norm_pz = float(np.linalg.norm(pz))
    ratio = norm_pz / norm_z
    alpha = annihilation_threshold(delta)
    if ratio > alpha:
        raise ValueError(
            f"measured ratio |proj_V(z)|/|z| = {ratio:.3e} exceeds the admissible {alpha:.3e}"
        )
    if norm_pz == 0.0:
        return v
    qz = z - pz
    norm_qz = float(np.linalg.norm(qz))
    u = pz / norm_pz
    w = qz / norm_qz
    u_new = (norm_qz * u - norm_pz * w) / norm_z
    # Complete u_new with the part of v orthogonal to u (which is already
    # orthogonal to z).
    coeff = v.basis.T @ u  # (n,)
    rest = v.basis - np.outer(u, coeff)  # columns spanning v minus the u line
    cols = [u_new]
    if v.n > 1:
        q = orthonormalize_or_trim(rest, v.n - 1)
        cols.extend(q.T)
    vp = Subspace(orthonormalize(np.column_stack(cols)))
    return vp


def orthonormalize_or_trim(m: np.ndarray, rank: int) -> np.ndarray:
    """First ``rank`` left singular vectors of ``m`` (robust partial basis)."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if rank and s[rank - 1] <= 1e-12:
        raise DegenerateInputError("matrix does not have the requested rank")
    return u[:, :rank]


def fubini_sample(
    d: int, n: int, rng: np.random.Generator
) -> tuple[Subspace, Subspace]:
    """Two-stage Haar sample: W of dimension n+1, then V of dimension n inside W.

    V is drawn Haar in the (n+1)-dimensional coordinates of W and mapped up;
    its marginal law on G(d,n) coincides with direct Haar sampling.
    """
    if not 0 < n < d:
        raise DimensionMismatchError("need 0 < n < d")
    w = sample_haar(d, n + 1, rng)
    inner = sample_haar(n + 1, n, rng)
    v = Subspace(orthonormalize(w.basis @ inner.basis))
    return w, v


def unit_ball_volume(k: int) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def integrate_affine(
    f,
    d: int,
    m: int,
    samples: int,
    rng: np.random.Generator,
    window_radius: float = 1.0,
) -> tuple[float, float]:
    """Monte Carlo integral of a plane functional over affine m-planes in R^d.

    The invariant measure on affine planes factors through fibers of
    orthogonal projections: sample V Haar in G(d, d-m), an anchor w uniform
    in the (d-m)-ball window about the origin in V, evaluate ``f`` on the
    fiber through w, and weight by the window volume. ``f`` must vanish on
    planes missing the window. Returns (estimate, standard_error).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 < m < d:
        raise DimensionMismatchError("need 0 < m < d")
    k = d - m
    volume = unit_ball_volume(k) * window_radius**k
    values = np.empty(samples)
    for i in range(samples):
        v = sample_haar(d, k, rng)
        direction = rng.standard_normal(k)
        direction /= np.linalg.norm(direction)
        radius = window_radius * rng.random() ** (1.0 / k)
        values[i] = f(fiber_through(v, v.basis @ (radius * direction)))
    est = float(np.mean(values) * volume)
    se = float(np.std(values, ddof=1) * volume / math.sqrt(samples)) if samples > 1 else float("inf")
    return est, se


def fiber_through(v: Subspace, point: np.ndarray) -> AffinePlane:
    """The fiber of the projection onto ``v`` passing through ``point``."""
    return AffinePlane(orthogonal_complement(v), np.asarray(point, dtype=float))


def net(d: int, n: int, mesh: float, rng: np.random.Generator, candidates: int = 4000) -> list[Subspace]:
    """Greedy ``mesh``-net on G(d,n) from Haar candidates plus axis planes.

    Deterministic given the generator state; the net is maximal with respect
    to the candidate pool, so its covering radius is at most mesh plus the
    pool's own resolution.
    """
    from itertools import combinations

    pool: list[Subspace] = [Subspace.axis(d, *axes) for axes in combinations(range(d), n)]
    pool.extend(sample_haar(d, n, rng) for _ in range(candidates))
    chosen: list[Subspace] = []
    for v in pool:
        if all(metric(v, c) >= mesh for c in chosen):
            chosen.append(v)
    return chosen
