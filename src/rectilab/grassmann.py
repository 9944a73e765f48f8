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


def _canonical_anchor(basis: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The component of ``point`` orthogonal to the span of the orthonormal d x n ``basis``."""
    b = np.ascontiguousarray(basis)  # same rounding for every memory layout
    return point - b @ (b.T @ point)


@dataclass(frozen=True, eq=False)
class AffinePlane:
    """An m-dimensional affine plane, direction subspace plus canonical anchor.

    The anchor is the component of any plane point orthogonal to the
    direction (``_canonical_anchor``), which makes the representation unique.
    """

    direction: Subspace
    anchor: np.ndarray = field(default=None)

    def __post_init__(self):
        a = np.zeros(self.direction.d) if self.anchor is None else np.asarray(self.anchor, float)
        if a.shape != (self.direction.d,):
            raise DimensionMismatchError("anchor dimension does not match the direction")
        object.__setattr__(self, "anchor", _canonical_anchor(self.direction.basis, a))

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
    if v1.d != v2.d:
        raise DimensionMismatchError("ambient dimensions differ")
    if v1.n != v2.n:
        raise DimensionMismatchError("subspace dimensions differ")
    diff = v1.projection_matrix - v2.projection_matrix
    return float(np.linalg.norm(diff, ord=2))


def containment_residual(v: Subspace, w: Subspace) -> float:
    """How far ``v`` sticks out of ``w``: max residual of a unit vector of v."""
    if v.d != w.d:
        raise DimensionMismatchError("ambient dimensions differ")
    if v.n == 0:
        return 0.0
    residual = v.basis - w.basis @ (w.basis.T @ v.basis)
    return float(np.linalg.norm(residual, ord=2))


def orthogonal_complement(v: Subspace) -> Subspace:
    """The (d-n)-dimensional orthogonal complement of ``v``, with the basis that ``_plane_basis``
    fixes from I - P_V: two bases of ``v`` give the same complement up to rounding, and the
    complement of the axis subspace of axes a_1 < ... < a_n is the other axes in ascending order."""
    return Subspace(_plane_basis(np.eye(v.d) - v.projection_matrix, v.d - v.n))


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
    return Subspace(np.linalg.qr(rng.standard_normal((d, n)))[0])  # rank n with probability 1


def _plane_basis(p: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the range of the rank-k projection ``p``, fixed by ``p`` alone: the Q
    of a QR of p at k coordinate axes picked by column pivoting, R's diagonal positive."""
    cols, q = p.copy(), np.empty((len(p), k))
    for j in range(k):
        sq = (cols * cols).sum(axis=0)
        i = sq.argmax()
        q[:, j] = u = cols[:, i] / math.sqrt(sq[i])
        cols -= u[:, None] * (u @ cols)
    return q


def _chart(b: np.ndarray, c: np.ndarray, g: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Bases (B + C A)(I + A^T A)^(-1/2), stacked (k, d, n), of span(B + C A) for A = norms[i] G[i]
    / ||G[i]||_2, from one stacked ``eigh`` of G^T G. The plane's metric to span(B) is
    ||A|| / sqrt(1 + ||A||^2) (Bjorck and Golub, Math. Comp. 27, 1973)."""
    lam, w = np.linalg.eigh(np.einsum("kji,kjl->kil", g, g))  # ascending
    scale = norms / np.sqrt(lam[:, -1])
    root = (w / np.sqrt(1.0 + scale[:, None] ** 2 * lam)[:, None, :]) @ w.transpose(0, 2, 1)
    return (b + c @ (scale[:, None, None] * g)) @ root


def sample_in_ball(ball: GrassmannBall, rng: np.random.Generator, count: int) -> np.ndarray:
    """Orthonormal bases, stacked (count, d, n), of ``count`` random planes in a Grassmannian ball.

    For radius delta < 1 each plane is span(B + C A), with B and C the bases of the centre V0
    and of its complement that ``_plane_basis`` fixes from P_V0, A = t U G / ||G||_2, G a
    (d - n) x n standard Gaussian, U uniform on (0, 1] and t = delta / sqrt(1 - delta^2). The
    ball is exactly {||A|| <= t}, so no draw is rejected, and the bases depend only on the
    plane V0 and the generator. Radius 0 gives B count times, as a read-only view, and draws
    nothing; a radius >= 1 covers all of G(d, n), and the planes are Haar (one stacked QR).
    """
    c, r = ball.center, ball.radius
    d, n = c.d, c.n
    p = c.projection_matrix
    b = _plane_basis(p, n)
    if r == 0.0 or n in (0, d):
        return np.broadcast_to(b, (count, d, n))
    if r >= 1.0:
        return np.linalg.qr(rng.standard_normal((count, d, n)))[0]
    g = rng.standard_normal((count, d - n, n))
    norms = r / math.sqrt(1.0 - r * r) * (1.0 - rng.random(count))
    return _chart(b, _plane_basis(np.eye(d) - p, d - n), g, norms)


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
    direction u aligned with proj_v(z) is rotated away from z inside the
    2-plane spanned by the projection and its orthogonal complement part,
    and the rest of the basis spans the part of v orthogonal to u, from
    ``_plane_basis(P_v - u u^T, n - 1)``. The rotated direction lies in
    span(u, z) and the rest in v ∩ u⊥, so the columns are orthonormal by
    construction.
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
    return Subspace(np.column_stack([u_new, _plane_basis(v.projection_matrix - np.outer(u, u), v.n - 1)]))


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
