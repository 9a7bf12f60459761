"""Gaussian likelihood for the shared Gibbs engine (the bvcss and bvc baselines).

The Gaussian model is the quantile sweep with three changes: uniform
working weights 1/sigma_sq, no kappa1 * u offset and no exponential
latents, and a slab covariance scaled by sigma_sq.  What that changes in the
sweep lives here; everything else is in :mod:`.engine`:

* the block grams Z_j'Z_j are unweighted and computed once at build, and
  the working response of block j is r_j (1/sigma_sq cancels in the slab
  mean); the slab's quadratic form and draw are scaled by sigma_sq through
  the state's noise scale;
* the sigma_sq update.

Sweep order: alpha blocks 1..p, alpha_0, beta, sigma_sq, lambda_sq,
zeta_sq, pi0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..basis import SplineConfig, expand_design
from ..data import Dataset
from ..rng import RngHandle, sample_inverse_gamma
from .config import GaussianPriorConfig
from .engine import (
    GibbsModel,
    covariance_factors,  # noqa: F401  (not called here; the traced benchmark wraps this name)
    refresh_residual,
    update_alpha0,
    update_alpha_blocks,
    update_beta,
    update_pi0,
    weighted_block_grams,
)
from .engine import update_shrinkage as update_lambda_sq
from .engine import update_slab_scales as update_zeta_sq
from .state import GaussianSamplerState


@dataclass
class GaussianModel(GibbsModel):
    block_grams: np.ndarray = field(repr=False, default=None)  # (p, d, d), unweighted

    state_class = GaussianSamplerState
    scalar_names = ("sigma_sq", "lambda_sq", "pi0")
    latent_names = ("zeta_sq",)

    def unit_scales(self) -> dict:
        return {"sigma_sq": 1.0, "zeta_sq": np.ones(self.p), "lambda_sq": 1.0}

    def block_system(self, state: GaussianSamplerState, first: int, last: int):
        """Unweighted grams from build and no shift; b_j = Z_j' r_j."""
        return self.block_grams[first - 1 : last], self.xt[first - 1 : last], 0.0

    def linear_system(self, state: GaussianSamplerState, x, partial):
        """Gram and right-hand side with weights 1/sigma_sq."""
        return x.T @ x / state.sigma_sq, x.T @ partial / state.sigma_sq

    def sweep(self, state: GaussianSamplerState, rng: RngHandle) -> None:
        gibbs_sweep(state, self, rng)

    def draw_noise_from_prior(self, state: GaussianSamplerState, rng: RngHandle) -> None:
        state.sigma_sq = float(sample_inverse_gamma(rng, self.prior.s, self.prior.h))

    def draw_latents_from_prior(self, state: GaussianSamplerState, rng: RngHandle) -> None:
        """No latents beyond the coefficients and scales."""

    def response_noise(self, state: GaussianSamplerState):
        return 0.0, math.sqrt(state.sigma_sq)


def build_gaussian_model(
    dataset: Dataset,
    spline_config: SplineConfig,
    prior: GaussianPriorConfig,
    spike: bool = True,
) -> GaussianModel:
    design = expand_design(dataset, spline_config)
    model = GaussianModel.build(dataset, design, prior, spike)
    model.block_grams = weighted_block_grams(model.basis_outer, model.xt * model.xt)
    return model


def sigma_sq_conditional_params(state: GaussianSamplerState, model: GaussianModel):
    """Inverse-Gamma shape/scale; shape grows by d/2 per active block."""
    n_active = int(np.sum(state.inclusion))
    shape = 0.5 * model.n + 0.5 * model.d * n_active + model.prior.s
    penalty = float(np.sum(np.sum(state.alpha[1:] ** 2, axis=1) / state.zeta_sq))
    scale = 0.5 * float(state.resid @ state.resid) + 0.5 * penalty + model.prior.h
    return shape, scale


def update_sigma_sq(state: GaussianSamplerState, model: GaussianModel, rng: RngHandle) -> float:
    shape, scale = sigma_sq_conditional_params(state, model)
    state.sigma_sq = float(sample_inverse_gamma(rng, shape, scale))
    return state.sigma_sq


def gibbs_sweep(state: GaussianSamplerState, model: GaussianModel, rng: RngHandle) -> None:
    refresh_residual(state, model)
    update_alpha_blocks(state, model, rng)
    update_alpha0(state, model, rng)
    update_beta(state, model, rng)
    update_sigma_sq(state, model, rng)
    update_lambda_sq(state, model, rng)
    update_zeta_sq(state, model, rng)
    if model.spike:
        update_pi0(state, model, rng)
