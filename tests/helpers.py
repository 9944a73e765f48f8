"""Helpers shared by the test modules."""

import numpy as np


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation matrix in O(d) (QR with sign fix)."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))
