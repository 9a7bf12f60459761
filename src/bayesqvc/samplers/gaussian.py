"""Gaussian likelihood for the shared Gibbs engine (the bvcss and bvc baselines).

The Gaussian model is the quantile sweep with three changes: uniform
working weights 1/sigma_sq, no kappa1 * u offset and no exponential
latents, and a slab covariance scaled by sigma_sq.  What that changes in the
sweep lives here; everything else is in :mod:`.engine`:

* the block grams Z_j'Z_j are unweighted and computed once at build, from
  a local X' o X', and the block stage's weights are 1.0: the working
  response of block j is r_j (1/sigma_sq cancels in the slab mean); the
  slab's quadratic form and draw are scaled by sigma_sq through the state's
  noise scale;
* the sigma_sq update.

The spike-and-slab variant (bvcss) draws the blocks one at a time, then
alpha_0 and beta; the plain variant (bvc) draws all coefficients at once
(``update_coefficients``).  Sweep order, spike: residual refresh, alpha
blocks 1..p, alpha_0, beta, sigma_sq, lambda_sq, zeta_sq, pi0.  Plain: all
coefficients, sigma_sq, lambda_sq, zeta_sq; no residual refresh, since the
joint draw sets the residual from its solve.
"""

from __future__ import annotations

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
    update_coefficients,
    update_pi0,
    weighted_block_grams,
)
from .engine import update_shrinkage as update_lambda_sq
from .engine import update_slab_scales as update_zeta_sq
from .state import GaussianSamplerState


@dataclass
class GaussianModel(GibbsModel):
    # Spike models only: (p, d, d) unweighted block grams.
    block_grams: np.ndarray = field(repr=False, default=None)

    state_class = GaussianSamplerState
    scalar_names = ("sigma_sq", "lambda_sq", "pi0")
    latent_names = ("zeta_sq",)

    def unit_scales(self) -> dict:
        return {"sigma_sq": 1.0, "zeta_sq": np.ones(self.p), "lambda_sq": 1.0}

    def working_likelihood(self, state: GaussianSamplerState):
        """Uniform weights 1/sigma_sq and no shift."""
        return np.full(self.n, 1.0 / state.sigma_sq), 0.0

    def block_system(self, state: GaussianSamplerState, first: int, last: int):
        """Unweighted grams from build, weights 1.0 and no shift; b_j = Z_j' r_j."""
        return self.block_grams[first - 1 : last], 1.0, 0.0

    def sweep(self, state: GaussianSamplerState, rng: RngHandle) -> None:
        """One full sweep in the fixed update order of the module docstring."""
        if self.spike:
            refresh_residual(state, self)
            update_alpha_blocks(state, self, rng)
            update_alpha0(state, self, rng)
            update_beta(state, self, rng)
        else:
            update_coefficients(state, self, rng)
        update_sigma_sq(state, self, rng)
        update_lambda_sq(state, self, rng)
        update_zeta_sq(state, self, rng)
        if self.spike:
            update_pi0(state, self, rng)

    def draw_noise_from_prior(self, state: GaussianSamplerState, rng: RngHandle) -> None:
        state.sigma_sq = float(sample_inverse_gamma(rng, self.prior.s, self.prior.h))


def build_gaussian_model(
    dataset: Dataset,
    spline_config: SplineConfig,
    prior: GaussianPriorConfig,
    spike: bool = True,
) -> GaussianModel:
    basis = expand_design(dataset, spline_config)
    model = GaussianModel.build(dataset, basis, prior, spike)
    if spike:
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

