"""The Gibbs sweep engine shared by the quantile and Gaussian samplers.

Given its latents, each likelihood is Gaussian in the coefficients, so all
four samplers run one skeleton: model build, the residual cache, the
spike-and-slab block draw and its batched update, the alpha_0 and beta
updates, the slab-scale, shrinkage and pi0 updates, the chain storage loop,
the forward prior draw and ``draw_response``.  The Gaussian likelihood is
the quantile one with three changes:

1. uniform working weights 1/sigma_sq in place of theta / (kappa2^2 u_i);
2. no kappa1 * u offset in the working response;
3. a slab covariance scaled by sigma_sq.

A likelihood module supplies what differs through a :class:`GibbsModel`
subclass (its hooks are listed there) and through its state class, whose
``noise_scale`` scales the slab: sigma_sq for the Gaussian state and an
exact 1.0 for the quantile state, so that multiplying or dividing by it
leaves the quantile arithmetic bit for bit unchanged.  Each likelihood
module keeps its own ``gibbs_sweep``, which calls the stages in the
likelihood's fixed order through that module's globals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..basis import ExpandedDesign
from ..data import Dataset
from ..rng import (
    RngHandle,
    sample_beta,
    sample_bernoulli,
    sample_gamma,
    sample_inverse_gaussian,
    sample_mvn,
)
from .config import GaussianPriorConfig, McmcOptions, PriorConfig
from .state import ChainSamples


# ---------------------------------------------------------------------------
# linear-algebra kernels

def weighted_block_grams(blocks: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Gram matrices sum_i w_i Z_ij Z_ij' for every block at once; (p+1, d, d)."""
    if weights is None:
        return np.einsum("jnd,jne->jde", blocks, blocks, optimize=True)
    return np.einsum("jnd,n,jne->jde", blocks, weights, blocks, optimize=True)


def covariance_factors(precisions: np.ndarray):
    """Batched inversion of SPD precisions.

    Returns (covariances, cholesky factors of the covariances, log-dets of
    the covariances).  Raises LinAlgError if any precision fails Cholesky,
    which cannot happen for positive ridge terms.
    """
    np.linalg.cholesky(precisions)  # SPD assertion; cheap at these sizes
    cov = np.linalg.inv(precisions)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    chol = np.linalg.cholesky(cov)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return cov, chol, logdet


def spd_solve_moments(gram: np.ndarray, rhs: np.ndarray, prior_precision: np.ndarray):
    """Mean and covariance of a Gaussian conditional with the given pieces.

    covariance = (gram + prior_precision)^-1, mean = covariance @ rhs.
    """
    precision = gram + prior_precision
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    return cov @ rhs, cov


def log_mixture_probability(log_bayes_factor: float, pi0: float) -> float:
    """P(spike) = pi0 / (pi0 + (1-pi0) * exp(log_bayes_factor)), overflow-safe."""
    if pi0 >= 1.0:
        return 1.0
    if pi0 <= 0.0:
        return 0.0
    log_spike = math.log(pi0)
    log_slab = math.log1p(-pi0) + log_bayes_factor
    return math.exp(log_spike - np.logaddexp(log_spike, log_slab))


def block_spike_probability(
    d: int, logdet_cov: float, quad: float, g: float, sigma_sq: float, pi0: float
) -> float:
    """Point-mass probability of one block from its covariance factors.

    The slab has covariance sigma_sq * Sigma, with Sigma the unscaled factor
    (gram + I/g)^-1, log|Sigma| = ``logdet_cov`` and ``quad`` = mu' Sigma^-1 mu:
    pi0 / (pi0 + (1-pi0) g^(-d/2) |Sigma|^(1/2) exp(quad / (2 sigma_sq))).
    """
    log_bf = -0.5 * d * math.log(g) + 0.5 * logdet_cov + 0.5 * quad / sigma_sq
    return log_mixture_probability(log_bf, pi0)


def spike_probability(
    mu: np.ndarray, sigma: np.ndarray, g: float, pi0: float, sigma_sq: float = 1.0
) -> float:
    """Point-mass probability of a block with slab mean mu and unscaled covariance sigma.

    ``sigma_sq`` is the noise scale of the slab: 1.0 for the quantile model.
    """
    mu = np.asarray(mu, dtype=float)
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    half = np.linalg.solve(chol, mu)
    return block_spike_probability(mu.size, logdet, float(half @ half), g, sigma_sq, pi0)


# ---------------------------------------------------------------------------
# model

@dataclass
class GibbsModel:
    """Immutable-except-y bundle of data, design and priors.

    A likelihood subclasses it and supplies, besides its own constants:

    * ``state_class``, ``scalar_names`` and ``latent_names``: its state and
      the state attributes stored per draw, in storage order;
    * ``unit_scales()``: the likelihood's fields of the all-null start;
    * ``block_system(state, blocks)``: the grams of the spline ``blocks``
      and a map rhs(Z_j, partial residual) -> right-hand side b_j;
    * ``linear_moments(state, x, partial, prior_precision, block)``: mean and
      covariance of a fixed-effect term with design x, where ``block`` is the
      index of x among the spline blocks, or None for E;
    * ``sweep(state, rng)``: one sweep in the likelihood's fixed order;
    * ``draw_noise_from_prior(state, rng)`` and
      ``draw_latents_from_prior(state, rng)``: the likelihood's own parts of
      the forward prior draw, before and after the coefficients;
    * ``response_noise(state)``: (shift, sd) of y around the linear predictor.
    """

    y: np.ndarray
    e: np.ndarray | None
    design: ExpandedDesign
    prior: PriorConfig | GaussianPriorConfig
    spike: bool
    shrink_prior: tuple[float, float] | None = None  # Gamma (shape, rate) of the shrinkage rate
    pi0_prior: tuple[float, float] | None = None  # Beta (a, b) of the spike weight
    sigma_beta: np.ndarray = field(repr=False, default=None)
    sigma_beta_inv: np.ndarray = field(repr=False, default=None)
    sigma_alpha0: np.ndarray = field(repr=False, default=None)
    sigma_alpha0_inv: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(cls, dataset: Dataset, design: ExpandedDesign, prior, spike: bool, **extra):
        model = cls(
            y=dataset.y.copy(),
            e=None if dataset.e is None else dataset.e.copy(),
            design=design,
            prior=prior,
            spike=spike,
            **extra,
        )
        if model.q > 0:
            model.sigma_beta = prior.resolved_sigma_beta(model.q)
            model.sigma_beta_inv = np.linalg.inv(model.sigma_beta)
        model.sigma_alpha0 = prior.resolved_sigma_alpha0(model.d)
        model.sigma_alpha0_inv = np.linalg.inv(model.sigma_alpha0)
        return model

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def q(self) -> int:
        return 0 if self.e is None else self.e.shape[1]

    @property
    def d(self) -> int:
        return self.design.d


def initial_state(model: GibbsModel):
    """Deterministic all-null start: every block at zero, unit scales."""
    state = model.state_class(
        alpha=np.zeros((model.p + 1, model.d)),
        beta=np.zeros(model.q),
        pi0=0.5 if model.spike else 0.0,
        inclusion=np.zeros(model.p, dtype=bool),
        **model.unit_scales(),
    )
    refresh_residual(state, model)
    return state


# ---------------------------------------------------------------------------
# residual cache

def full_residual(state, model: GibbsModel) -> np.ndarray:
    """y - E beta - sum_j Z_j alpha_j, computed from scratch."""
    resid = model.y - np.einsum("jnd,jd->n", model.design.blocks, state.alpha)
    if model.q > 0:
        resid = resid - model.e @ state.beta
    return resid


def refresh_residual(state, model: GibbsModel) -> None:
    state.resid = full_residual(state, model)


# ---------------------------------------------------------------------------
# spline blocks 1..p

def _check_block(model: GibbsModel, j: int) -> None:
    if not 1 <= j <= model.p:
        raise IndexError("block index must lie in 1..p")


def _partial(state, zj: np.ndarray, j: int) -> np.ndarray:
    """Residual with block j added back; the cache already excludes a zero block."""
    return state.resid + zj @ state.alpha[j] if state.inclusion[j - 1] else state.resid


def _update_blocks(state, model: GibbsModel, first: int, last: int, rng: RngHandle) -> None:
    """Sequential mixture draws for blocks first..last with batched covariance factors.

    Block j's slab is N(cov_j b_j, noise_scale * cov_j), with cov_j the
    unscaled factor (gram_j + I/g_j)^-1.  Maintains the residual cache.
    """
    grams, rhs = model.block_system(state, slice(first, last + 1))
    slab = state.slab[first - 1 : last]
    scale = state.noise_scale
    precisions = grams + np.eye(model.d)[None, :, :] / slab[:, None, None]
    covs, chols, logdets = covariance_factors(precisions)
    for k, j in enumerate(range(first, last + 1)):
        zj = model.design.blocks[j]
        partial = _partial(state, zj, j)
        b = rhs(zj, partial)
        mu = covs[k] @ b
        if model.spike:
            prob_zero = block_spike_probability(
                model.d, float(logdets[k]), float(b @ mu), slab[k], scale, state.pi0
            )
        else:
            prob_zero = 0.0
        if prob_zero >= 1.0:
            take_spike = True
        elif prob_zero <= 0.0:
            take_spike = False
        else:
            take_spike = rng.gen.random() < prob_zero
        if take_spike:
            state.alpha[j] = 0.0
            state.inclusion[j - 1] = False
            state.resid = partial
        else:
            draw = mu + math.sqrt(scale) * (chols[k] @ rng.gen.standard_normal(model.d))
            if not np.any(draw):
                raise RuntimeError("slab draw produced an exactly-zero block")
            state.alpha[j] = draw
            state.inclusion[j - 1] = True
            state.resid = partial - zj @ draw


def alpha_block_moments(state, model: GibbsModel, j: int):
    """Slab mean and unscaled covariance (gram + I/g_j)^-1 of block j given the rest.

    The slab draw has covariance noise_scale times the returned factor.
    """
    _check_block(model, j)
    grams, rhs = model.block_system(state, slice(j, j + 1))
    zj = model.design.blocks[j]
    rhs_j = rhs(zj, _partial(state, zj, j))
    return spd_solve_moments(grams[0], rhs_j, np.eye(model.d) / state.slab[j - 1])


def update_alpha_block(state, model: GibbsModel, j: int, rng: RngHandle) -> None:
    """Spike-and-slab (or plain normal) refresh of a single block."""
    _check_block(model, j)
    _update_blocks(state, model, j, j, rng)


def update_alpha_blocks(state, model: GibbsModel, rng: RngHandle) -> None:
    """Sequential refresh of blocks 1..p with batched covariance factors."""
    if model.p > 0:
        _update_blocks(state, model, 1, model.p, rng)


# ---------------------------------------------------------------------------
# alpha_0 and beta

def alpha0_conditional_moments(state, model: GibbsModel):
    z0 = model.design.blocks[0]
    partial = state.resid + z0 @ state.alpha[0]
    return model.linear_moments(state, z0, partial, model.sigma_alpha0_inv, 0)


def update_alpha0(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the varying-intercept block."""
    z0 = model.design.blocks[0]
    partial = state.resid + z0 @ state.alpha[0]
    mu, cov = alpha0_conditional_moments(state, model)
    draw = sample_mvn(rng, mu, cov)
    state.alpha[0] = draw
    state.resid = partial - z0 @ draw
    return draw


def beta_conditional_moments(state, model: GibbsModel):
    partial = state.resid + model.e @ state.beta
    return model.linear_moments(state, model.e, partial, model.sigma_beta_inv, None)


def update_beta(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the clinical coefficients; no-op when q = 0."""
    if model.q == 0:
        return state.beta
    partial = state.resid + model.e @ state.beta
    mu, cov = beta_conditional_moments(state, model)
    draw = sample_mvn(rng, mu, cov)
    state.beta = draw
    state.resid = partial - model.e @ draw
    return draw


# ---------------------------------------------------------------------------
# slab scales, shrinkage rate, spike weight

def update_slab_scales(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Two-branch slab-scale refresh: Gamma for zero blocks, reciprocal IG otherwise.

    The IG mean of a nonzero block is sqrt(noise_scale * shrink / ||alpha_j||^2).
    """
    if model.p == 0:
        return state.slab
    norms = np.sum(state.alpha[1:] ** 2, axis=1)
    if np.any(state.inclusion & (norms == 0.0)):
        raise RuntimeError("inclusion flag set on an exactly-zero block")
    new = np.empty(model.p)
    zero = norms == 0.0
    if zero.any():
        new[zero] = sample_gamma(
            rng, 0.5 * (model.d + 1), 0.5 * state.shrink, size=int(zero.sum())
        )
    nonzero = ~zero
    if nonzero.any():
        mean = np.sqrt(state.noise_scale * state.shrink / norms[nonzero])
        new[nonzero] = 1.0 / sample_inverse_gaussian(rng, mean, state.shrink)
    state.slab = new
    return new


def shrinkage_conditional_params(state, model: GibbsModel):
    """Gamma (shape, rate) of the squared shrinkage rate."""
    shape = 0.5 * (model.d + 1) * model.p + model.shrink_prior[0]
    rate = 0.5 * float(np.sum(state.slab)) + model.shrink_prior[1]
    return shape, rate


def update_shrinkage(state, model: GibbsModel, rng: RngHandle) -> float:
    shape, rate = shrinkage_conditional_params(state, model)
    state.shrink = float(sample_gamma(rng, shape, rate))
    return state.shrink


def pi0_conditional_params(state, model: GibbsModel):
    n_active = int(np.sum(state.inclusion))
    return model.pi0_prior[0] + model.p - n_active, model.pi0_prior[1] + n_active


def update_pi0(state, model: GibbsModel, rng: RngHandle) -> float:
    a_post, b_post = pi0_conditional_params(state, model)
    state.pi0 = float(sample_beta(rng, a_post, b_post))
    return state.pi0


# ---------------------------------------------------------------------------
# chains, prior draws, simulated responses

def run_chain(
    model: GibbsModel,
    iterations: int,
    burn_in: int,
    thin: int,
    rng: RngHandle,
    store_latents: bool = False,
) -> ChainSamples:
    """Run one chain of ``model`` from the all-null start and return its stored draws."""
    opts = McmcOptions(
        iterations=iterations, burn_in=burn_in, thin=thin, seed=rng.seed,
        store_latents=store_latents,
    )
    state = initial_state(model)
    m_stored = opts.stored
    alpha = np.empty((m_stored, model.p + 1, model.d))
    beta = np.empty((m_stored, model.q))
    inclusion = np.empty((m_stored, model.p), dtype=np.uint8)
    scalars = {name: np.empty(m_stored) for name in model.scalar_names}
    latents = {}
    if store_latents:
        latents = {
            name: np.empty((m_stored,) + np.shape(getattr(state, name)))
            for name in model.latent_names
        }

    kept = 0
    for it in range(1, iterations + 1):
        model.sweep(state, rng)
        if it > burn_in and (it - burn_in) % thin == 0:
            alpha[kept] = state.alpha
            beta[kept] = state.beta
            inclusion[kept] = state.inclusion
            for name, stored in (scalars | latents).items():
                stored[kept] = getattr(state, name)
            kept += 1
    return ChainSamples(
        seed=rng.seed,
        stream_id=rng.stream_id,
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        alpha=alpha,
        beta=beta,
        inclusion=inclusion,
        scalars=scalars,
        latents=latents,
    )


def draw_state_from_prior(model: GibbsModel, rng: RngHandle):
    """Forward draw of every latent from the hierarchical prior.

    RNG order: the noise scale, shrinkage rate, pi0, slab scales, alpha_0,
    blocks 1..p, beta, then the likelihood's latents.  Slab blocks are
    N(0, noise_scale * g_j I).
    """
    state = initial_state(model)
    model.draw_noise_from_prior(state, rng)
    state.shrink = float(sample_gamma(rng, *model.shrink_prior))
    state.pi0 = float(sample_beta(rng, *model.pi0_prior)) if model.spike else 0.0
    state.slab = np.atleast_1d(
        sample_gamma(rng, 0.5 * (model.d + 1), 0.5 * state.shrink, size=model.p)
    )
    state.alpha[0] = sample_mvn(rng, np.zeros(model.d), model.sigma_alpha0)
    for j in range(1, model.p + 1):
        spike_hit = model.spike and sample_bernoulli(rng, state.pi0)
        if not spike_hit:
            scale = math.sqrt(state.noise_scale * state.slab[j - 1])
            state.alpha[j] = scale * rng.gen.standard_normal(model.d)
            state.inclusion[j - 1] = True
    if model.q > 0:
        state.beta = sample_mvn(rng, np.zeros(model.q), model.sigma_beta)
    model.draw_latents_from_prior(state, rng)
    refresh_residual(state, model)
    return state


def draw_response(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Simulate y from the working likelihood given the current latents."""
    mean = np.einsum("jnd,jd->n", model.design.blocks, state.alpha)
    if model.q > 0:
        mean = mean + model.e @ state.beta
    shift, sd = model.response_noise(state)
    return mean + shift + sd * rng.gen.standard_normal(model.n)
