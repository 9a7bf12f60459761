"""Quantile (asymmetric-Laplace) likelihood for the shared Gibbs engine.

Given the exponential-mixture latents u, the ALD likelihood is Gaussian in
the coefficients with per-observation weights w_i = theta / (kappa2^2 u_i)
and working response r - kappa1 u.  What that changes in the sweep lives
here; everything else is in :mod:`.engine`:

* the working weights and the shift kappa1 u (``working_likelihood``),
  which change every sweep, so the block stage runs on the working residual
  r - kappa1 u and its grams are recomputed every sweep.  The weights go on
  the basis side: the spike model keeps the squared covariates X' o X'
  from build, and each sweep's grams are one product of them with the rows
  w_i vec(B_i B_i'), so no weighted (p, n) copy of X' is formed;
* the theta update and the latent-u update, which draw (theta, u) as one
  block given the coefficients.  theta is drawn with u integrated out: the
  ALD density is tau (1 - tau) theta exp(-theta rho_tau(r)), so theta given
  the residual is Gamma(a + n, b + sum_i rho_tau(r_i)).  u is then drawn
  given that theta, so each (theta, u) pair is an exact draw of the pair.
  Drawing u before the collapsed theta would leave u from its conditional
  given the previous theta, which the sweep does not keep invariant (van Dyk
  & Park 2008).

The slab is not scaled by a noise variance: the state's noise scale is an
exact 1.0.  The spike-and-slab variant (bqrvcss) draws each spline block
from a two-component mixture (point mass at zero vs multivariate normal),
then alpha_0 and beta.  The plain variant (bqrvc) includes every block and
draws all coefficients at once (``update_coefficients``).

Sweep order is fixed for reproducibility.  Spike: residual refresh, theta,
latent u, alpha blocks 1..p, alpha_0, beta, eta_sq, g, pi0.  Plain: all
coefficients, theta, latent u, eta_sq, g.  The plain sweep makes no residual
refresh: the joint draw does not read the residual and sets it from its
solve, so it must come first for theta and u to read the residual of the
current y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..ald import AldConstants, ald_constants
from ..basis import SplineConfig, expand_design
from ..data import Dataset
from ..rng import RngHandle, sample_exponential, sample_gamma, sample_inverse_gaussian
from .config import PriorConfig
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
from .engine import update_shrinkage as update_eta_sq
from .engine import update_slab_scales as update_g
from .state import SamplerState

# Floor on |residual| in the latent-u update; keeps the inverse-Gaussian
# mean finite when a residual is numerically zero.
RESIDUAL_FLOOR = 1e-10


@dataclass
class QuantileModel(GibbsModel):
    consts: AldConstants = None
    # Spike models only, the two data sides of the grams: (n, d, d) rows
    # B_i B_i' and (p, n) squared covariates X' o X'.
    basis_outer: np.ndarray = field(repr=False, default=None)
    xt_sq: np.ndarray = field(repr=False, default=None)

    scalar_names = ("theta", "eta_sq", "pi0")
    latent_names = ("u_tilde", "g")

    def null_state(self, **coefficients) -> SamplerState:
        """Unit latents, slab scales and eta_sq; theta at its conditional mean, shape / rate."""
        state = SamplerState(**coefficients, u_tilde=np.ones(self.n), g=np.ones(self.p),
                             theta=1.0, eta_sq=1.0)
        shape, rate = theta_conditional_params(state, self)
        state.theta = shape / rate
        return state

    def working_likelihood(self, state: SamplerState):
        """Weights theta / (kappa2^2 u_i) and the working-response shift kappa1 u."""
        c = self.consts
        return state.theta / (c.kappa2_sq * state.u_tilde), c.kappa1 * state.u_tilde

    def block_system(self, state: SamplerState, first: int, last: int):
        """Grams weighted by w, recomputed every call, the weights w and the shift kappa1 u.

        w scales the n rows B_i B_i', so the grams are one product with the
        squared covariate rows held since build.
        """
        w, shift = self.working_likelihood(state)
        grams = weighted_block_grams(w[:, None, None] * self.basis_outer,
                                     self.xt_sq[first - 1 : last])
        return grams, w, shift

    def sweep(self, state: SamplerState, rng: RngHandle) -> None:
        """One full sweep in the fixed update order of the module docstring."""
        if self.spike:
            refresh_residual(state, self)
        else:
            update_coefficients(state, self, rng)
        update_theta(state, self, rng)
        update_latent_u(state, self, rng)
        if self.spike:
            update_alpha_blocks(state, self, rng)
            update_alpha0(state, self, rng)
            update_beta(state, self, rng)
        update_eta_sq(state, self, rng)
        update_g(state, self, rng)
        if self.spike:
            update_pi0(state, self, rng)

    def draw_noise_from_prior(self, state: SamplerState, rng: RngHandle) -> None:
        """theta, then the latents u_i ~ Exp(theta)."""
        state.theta = float(sample_gamma(rng, self.prior.a, self.prior.b))
        state.u_tilde = sample_exponential(rng, state.theta, size=self.n)


def build_quantile_model(
    dataset: Dataset,
    spline_config: SplineConfig,
    prior: PriorConfig,
    tau: float,
    spike: bool = True,
) -> QuantileModel:
    basis = expand_design(dataset, spline_config)
    model = QuantileModel.build(dataset, basis, prior, spike, consts=ald_constants(tau))
    if spike:
        model.basis_outer = basis[:, :, None] * basis[:, None, :]
        model.xt_sq = model.xt * model.xt
    return model


def update_latent_u(state: SamplerState, model: QuantileModel, rng: RngHandle) -> np.ndarray:
    """Refresh all exponential-mixture latents; their reciprocals are inverse-Gaussian."""
    c = model.consts
    mean = np.abs(state.resid)
    np.maximum(mean, RESIDUAL_FLOOR, out=mean)
    np.divide(math.sqrt(c.kappa1**2 + 2.0 * c.kappa2_sq), mean, out=mean)
    shape = state.theta * c.kappa1**2 / c.kappa2_sq + 2.0 * state.theta
    draws = sample_inverse_gaussian(rng, mean, shape)
    state.u_tilde = np.divide(1.0, draws, out=draws)
    return state.u_tilde


def theta_conditional_params(state: SamplerState, model: QuantileModel):
    """Gamma (shape, rate) of theta given the residual, with the latents u integrated out.

    The rate's sum of check losses rho_tau(r) = r (tau - 1{r < 0}) is one dot product.
    """
    resid = state.resid
    rate = float(resid @ (model.consts.tau - (resid < 0.0))) + model.prior.b
    return model.n + model.prior.a, rate


def update_theta(state: SamplerState, model: QuantileModel, rng: RngHandle) -> float:
    shape, rate = theta_conditional_params(state, model)
    state.theta = float(sample_gamma(rng, shape, rate))
    return state.theta
