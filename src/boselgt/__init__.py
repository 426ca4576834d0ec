"""Lattice gauge-matter partition values: exact determinants, quadrature,
Monte Carlo, and the rate bounds that sandwich them."""

from .actions import ModelParams, ScalingFactors
from .bounds import BoundConstants, BoundReport
from .errors import (NotPositiveDefiniteError, NumericError, QuadratureError,
                     UsageError)
from .lattice import GaugeFixing, Lattice
from .partition import Estimate, z_bose_exact, z_single_bond, z_wilson_mc

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "BoundReport",
    "Estimate",
    "GaugeFixing",
    "Lattice",
    "ModelParams",
    "NotPositiveDefiniteError",
    "NumericError",
    "QuadratureError",
    "ScalingFactors",
    "UsageError",
    "z_bose_exact",
    "z_single_bond",
    "z_wilson_mc",
    "__version__",
]
