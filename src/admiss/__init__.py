"""Numerical criteria for weighted admissibility and exact controllability
of diagonal semigroup systems on the right half-plane."""

from admiss.system_model import (
    AtomicMeasure,
    DiagonalSystem,
    dual_system,
    heat_system,
    spectral_measure,
)
from admiss.zen_weight import RadialMeasure, WeightFunction, delta2_constant, nu_square_mass, weight
from admiss.criteria import dispatch
from admiss.report import CriterionReport
from admiss.spaces import InputSpace

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "DiagonalSystem",
    "RadialMeasure",
    "WeightFunction",
    "InputSpace",
    "CriterionReport",
    "dual_system",
    "heat_system",
    "spectral_measure",
    "delta2_constant",
    "nu_square_mass",
    "weight",
    "dispatch",
    "__version__",
]
