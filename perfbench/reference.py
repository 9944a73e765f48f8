"""A fixed reference kernel that calibrates pass times to the machine's current speed.

On a virtual machine with two vCPUs shared with other tenants, the speed
of this process drifts by 20-50 % for stretches of tens of seconds, often
longer than a run, because of work outside it (see README.md). The kernel
does fixed work of the three kinds the workloads do, without calling
``rectilab``, so a change to the program does not move it. It is timed
after every pass, and ``pass_ref`` is the pass time divided by the mean of
the timings before and after the pass. The sum of the three parts tracked
the drift of every workload better than any single part (README.md).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.signal import fftconvolve

_RNG = np.random.default_rng(20080843)
_CLOUD = _RNG.random((16384, 2))
_CLOUD_W = _RNG.random(16384)
_SMALL = _RNG.random((300, 2))
_SMALL_W = _RNG.random(300)
_GRID = _RNG.random((512, 512))
_AXIS = (np.arange(129) - 64.0) / 64.0
_DISK = (_AXIS[:, None] ** 2 + _AXIS[None, :] ** 2 <= 1.0).astype(float)


def _ball_scans() -> float:
    """Cell bucketing and masked weighted PCA in 180 balls of a 16k-point cloud."""
    cells: dict = {}
    for i, cell in enumerate(map(tuple, np.floor(_CLOUD * 64.0).astype(np.int64))):
        cells.setdefault(cell, []).append(i)
    total = float(len(cells))
    for c in _CLOUD[:180]:
        mask = np.linalg.norm(_CLOUD - c, axis=1) <= 0.2
        pts, w = _CLOUD[mask], _CLOUD_W[mask]
        centered = pts - np.average(pts, axis=0, weights=w)
        total += float(np.linalg.eigh((w[:, None] * centered).T @ centered)[0][0])
    return total


def _angle_searches() -> float:
    """Bounded scalar searches over weighted L1 line fits."""

    def objective(theta):
        s = _SMALL @ np.array([-np.sin(theta), np.cos(theta)])
        order = np.argsort(s)
        cum = np.cumsum(_SMALL_W[order])
        c = s[order[min(int(np.searchsorted(cum, 0.5 * cum[-1])), len(s) - 1)]]
        return float(np.sum(_SMALL_W * np.abs(s - c)))

    total = 0.0
    for k in range(240):
        total += float(minimize_scalar(objective, bounds=(k * 0.012, k * 0.012 + 0.5), method="bounded").fun)
    return total


def _grid_filters() -> float:
    """Disk FFT convolutions and ball masks on a 512^2 grid."""
    total = 0.0
    for _ in range(5):
        total += float(fftconvolve(_GRID, _DISK, mode="same")[0, 0])
    centers = (np.arange(512) + 0.5) / 512
    for c in _SMALL[:150]:
        mask = (centers[:, None] - c[0]) ** 2 + (centers[None, :] - c[1]) ** 2 <= 0.01
        total += float(_GRID[mask].sum())
    return total


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    _ball_scans()
    _angle_searches()
    _grid_filters()
    return perf_counter() - start
