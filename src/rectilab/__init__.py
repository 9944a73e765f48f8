"""Desk-scale computational lab for quantitative rectifiability.

Weighted point clouds stand in for n-regular sets; every continuum quantity
(Hausdorff measure of a projection, beta number, maximal function) is
rendered as a finite, scale-indexed computation with an independently
checkable contract.
"""

__version__ = "0.1.0"

from . import beta, cubes, grassmann, pointset, stopping

__all__ = [
    "beta",
    "cubes",
    "grassmann",
    "pointset",
    "stopping",
    "__version__",
]
