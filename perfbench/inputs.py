"""Seeded inputs of the three workloads.

``MAKERS[workload](seed)`` is what each set-up child interpreter runs after
``import rectilab``, so everything here counts towards ``setup_s``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from rectilab import pointset, stopping
from rectilab.grassmann import Subspace

# cantor-scan: generation-7 four-corners cloud, points jittered by at most
# resolution/8 per coordinate.  Points sit at least resolution/2 from every
# dyadic boundary of levels 0..9, so the jitter moves beta values but keeps
# the cube structure (and so the work of a pass) the same for every seed.
CANTOR_GENERATION = 7
CANTOR_JITTER = 1.0 / 8.0

# graph-refine: the clouds are fixed.  A seeded phase or amplitude changes
# the cube count and the number of refinement steps enough to spread the
# pass time by up to 20 % between seeds, so the seed drives only the PBP
# directions, the regularity trials and the overlap test ball.
CURVE = {"amplitude": 0.25, "lipschitz": 1.6, "resolution": 2.0**-11}
SURFACE = {"amplitude": 0.2, "lipschitz": 1.8, "resolution": 2.0**-5}

# stopping-mix: a fixed set of families per dimension, drawn from
# FAMILY_SEEDS and not from --seed.  Some of them hit the known
# ``exhausted`` fault; a seeded family that entered the recursion would hit
# it on some seeds and not on others, and the failed share would then
# depend on the seed.
STOPPING_CONFIG = stopping.StoppingConfig(N=40, M=2)
STOPPING_DIMS = ((1, 14), (2, 9), (3, 5))
FAMILY_SEEDS = tuple(range(1000, 1007))


def curve_function(t):
    return CURVE["amplitude"] * np.sin(2.0 * np.pi * t[0])


def surface_function(t):
    return SURFACE["amplitude"] * np.sin(2.0 * np.pi * t[0]) * np.cos(2.0 * np.pi * t[1])


def cantor_scan(seed: int) -> dict:
    base = pointset.four_corners(CANTOR_GENERATION)
    rng = np.random.default_rng([seed, 1])
    jitter = rng.uniform(-CANTOR_JITTER, CANTOR_JITTER, base.points.shape) * base.resolution
    cloud = dataclasses.replace(base, points=base.points + jitter, params={"k": CANTOR_GENERATION})
    return {"cloud": cloud}


def graph_refine(seed: int) -> dict:
    curve = pointset.lipschitz_graph_cloud(
        curve_function, Subspace.axis(2, 0), CURVE["lipschitz"], CURVE["resolution"]
    )
    surface = pointset.lipschitz_graph_cloud(
        surface_function, Subspace.axis(3, 0, 1), SURFACE["lipschitz"], SURFACE["resolution"]
    )
    return {"curve": curve, "surface": surface}


def stopping_mix(seed: int) -> dict:
    families = [
        (d, depth, stopping.random_family(
            d, np.random.default_rng(family_seed), profile="mixed", config=STOPPING_CONFIG, grid_depth=depth
        ))
        for d, depth in STOPPING_DIMS
        for family_seed in FAMILY_SEEDS
    ]
    return {"families": families}


MAKERS = {"cantor-scan": cantor_scan, "graph-refine": graph_refine, "stopping-mix": stopping_mix}
