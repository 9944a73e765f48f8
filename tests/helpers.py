"""Helpers shared by the test modules."""

import numpy as np

from rectilab import pointset as ps


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation matrix in O(d) (QR with sign fix)."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def exact_regularity(cloud):
    """The supremum of max(mass / r^n, r^n / mass) over the closed balls centred
    at points of positive weight, r in [4 resolution, r_hi] with r_hi as in
    ``estimate_regularity``. A centre's mass is constant on each interval
    between the radii where it steps (its sorted distances, inside the range),
    so mass / r^n peaks at each interval's left end and r^n / mass tends to
    its supremum at the right end."""
    r_lo = 4.0 * cloud.resolution
    r_hi = max(cloud.diameter, r_lo * (1.0 + 1e-9))
    worst = 1.0
    for x in cloud.points[cloud.weights > 0]:
        dist = ps._row_norms(cloud.points - x)
        order = np.argsort(dist, kind="stable")
        dist, mass = dist[order], np.cumsum(cloud.weights[order])
        ends = np.unique(np.r_[r_lo, dist[(dist > r_lo) & (dist < r_hi)], r_hi])
        at = mass[np.searchsorted(dist, ends, side="right") - 1]  # the mass at each end
        rn = ends**cloud.n
        worst = max(worst, (at / rn).max(), (rn[1:] / at[:-1]).max())
    return worst
