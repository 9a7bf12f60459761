"""Bayesian quantile varying-coefficient regression with spike-and-slab selection."""

from .ald import AldConstants, ald_constants, ald_log_density, check_loss
from .basis import (
    BasisMatrix,
    ExpandedDesign,
    SplineConfig,
    basis_matrix,
    default_grid,
    evaluate_basis,
    expand_design,
    knot_sequence,
)
from .data import Dataset
from .rng import RngHandle
from .samplers import (
    GaussianPriorConfig,
    McmcOptions,
    PosteriorSamples,
    PriorConfig,
    fit,
)
from .simulate import ScenarioSpec, TrueCurves, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "AldConstants",
    "ald_constants",
    "ald_log_density",
    "check_loss",
    "BasisMatrix",
    "ExpandedDesign",
    "SplineConfig",
    "basis_matrix",
    "default_grid",
    "evaluate_basis",
    "expand_design",
    "knot_sequence",
    "Dataset",
    "RngHandle",
    "GaussianPriorConfig",
    "McmcOptions",
    "PosteriorSamples",
    "PriorConfig",
    "fit",
    "ScenarioSpec",
    "TrueCurves",
    "simulate_dataset",
]
