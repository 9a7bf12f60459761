"""The Gibbs sweep engine shared by the quantile and Gaussian samplers.

Given its latents, each likelihood is Gaussian in the coefficients, so all
four samplers run one skeleton: model build, the residual cache, the
coefficient updates, the slab-scale, shrinkage and pi0 updates, the chain
storage loop, the forward prior draw and ``draw_response``.  The Gaussian
likelihood is the quantile one with three changes:

1. uniform working weights 1/sigma_sq in place of theta / (kappa2^2 u_i);
2. no kappa1 * u offset in the working response;
3. a slab covariance scaled by sigma_sq.

A likelihood module supplies what differs through a :class:`GibbsModel`
subclass (its hooks are listed there) and through its state class, whose
``noise_scale`` scales the slab: sigma_sq for the Gaussian state and 1.0 for
the quantile state.  Each likelihood module keeps its own ``gibbs_sweep``,
which calls the stages in the likelihood's fixed order through that
module's globals.

Spline block j is Z_j = diag(x_j) B, with B the n x d basis and x_j the j-th
covariate column.  The model holds the design once, as B, the (p, n)
transposed covariates X' and the (n, q) clinical matrix E, and never builds
the (p+1, n, d) block tensor.  E is a matrix also when q = 0, so the
residual, the prior draw and ``draw_response`` have no q branch; only
``update_beta`` returns early on an empty E.

The coefficients are drawn in one of two ways.

* The spike samplers (bqrvcss, bvcss) refresh blocks 1..p one at a time
  with the spike-and-slab block draw, then alpha_0 and beta, each from its
  conditional.  Each block precision is factored once by Cholesky,
  P = L L' (Rue 2001), and L^-1 is formed by forward substitution: with
  half = L^-1 b, the quadratic form b' P^-1 b is |half|^2,
  log|P^-1| = 2 sum log diag L^-1, and L^-T (half + sqrt(noise_scale) z)
  is a slab draw.
* The plain samplers (bqrvc, bvc) include every block, so given the
  likelihood's latents and scales all coefficients are jointly Gaussian.
  :func:`update_coefficients` draws (alpha_0, blocks 1..p, beta) at once
  through one n x n solve, in place of the block stage and the alpha_0
  and beta updates.

The functions the tests check against oracles run the sweep's own code:
:func:`spike_probability` and the block kernel's :func:`spike_thresholds`
share :func:`slab_log_volume`, :func:`alpha_block_moments` reads the factor
the block draw uses, and the alpha_0 and beta updates draw from their moment
functions' ``_fixed_effect``.

RNG contract of the block stage: a call that refreshes blocks first..last
draws, before anything else, one ``standard_normal((k, d + 2))`` array with
k = last - first + 1.  Row i belongs to block first + i: its first d entries
are the slab innovation, and its last two entries z, z' decide the block.
E = (z^2 + z'^2) / 2 is Exp(1), so -E has the law of log U for a uniform U,
and the block goes to the spike iff -E < log P(spike).  That rule is applied
as |half|^2 < t with one threshold t per block, all k of them computed from
E before the loop (:func:`spike_thresholds`).  RNG consumption therefore
does not depend on the data, and a loop of single-block calls draws the same
rows as one batched call.  The joint draw's contract is in
:func:`update_coefficients`; it too draws a fixed number of normals.  A
spike sampler with pi0 pinned at zero targets the same conditional as its
plain sampler, but it no longer reproduces the plain sampler's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

# Most excluded blocks whose right-hand sides one scan forms at once.  A slab
# hit inside a run makes the rest of the scan stale, so a cap keeps the work
# wasted per hit bounded when many blocks leave the spike (early sweeps).
RUN_CHUNK = 64


# ---------------------------------------------------------------------------
# linear-algebra kernels

def weighted_block_grams(basis_outer: np.ndarray, sq_weights: np.ndarray) -> np.ndarray:
    """Grams sum_i s_ji B_i B_i' of the blocks with weight rows ``sq_weights``; (k, d, d).

    Row j of ``sq_weights`` is w * x_j^2 for block j's covariate row x_j and
    working weights w.  ``basis_outer`` holds the row outer products B_i B_i',
    shape (n, d, d), so all k grams come from one s' (B (x) B) matmul.
    """
    n, d, _ = basis_outer.shape
    return (sq_weights @ basis_outer.reshape(n, d * d)).reshape(-1, d, d)


def covariance_factors(precisions: np.ndarray):
    """Inverse Cholesky factors and covariance log-dets of a batch of SPD precisions.

    With P = L L', returns (L^-1, log|P^-1|).  L^-1 comes from a batched
    forward substitution, row j being (e_j - L[j, :j] L^-1[:j]) / L[j, j],
    and the log-det from its diagonal 1 / L[j, j].  Raises LinAlgError if a
    precision is not positive definite, which cannot happen for positive
    ridge terms.
    """
    chol = np.linalg.cholesky(precisions)
    recip = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)
    linv = np.zeros_like(chol)
    for j in range(chol.shape[-1]):
        linv[:, j, j] = recip[:, j]
        if j:
            row = np.einsum("ki,kic->kc", chol[:, j, :j], linv[:, :j, :j])
            linv[:, j, :j] = -recip[:, j, None] * row
    return linv, 2.0 * np.sum(np.log(recip), axis=1)


def log_spike_probability(log_bayes_factor, pi0: float) -> np.ndarray:
    """Elementwise log P(spike) = log pi0 - log(pi0 + (1-pi0) exp(log_bayes_factor)).

    Log-domain, so no overflow for any finite log Bayes factor; 0 at
    pi0 = 1, -inf at pi0 = 0.
    """
    log_bf = np.asarray(log_bayes_factor, dtype=float)
    if pi0 >= 1.0:
        return np.zeros_like(log_bf)
    if pi0 <= 0.0:
        return np.full_like(log_bf, -np.inf)
    log_spike = math.log(pi0)
    return log_spike - np.logaddexp(log_spike, math.log1p(-pi0) + log_bf)


def slab_log_volume(logdet, slab, d: int):
    """(log|Sigma| - d log g) / 2: the log Bayes factor, slab over spike, of a zero right-hand side.

    The slab prior of a block is N(0, noise_scale * g I) and its conditional
    covariance noise_scale * Sigma, so the noise scale cancels.
    """
    return 0.5 * (logdet - d * np.log(slab))


def spike_thresholds(logdet, slab, d: int, energy, noise_scale: float, pi0: float) -> np.ndarray:
    """Thresholds t with a d-dimensional block at the spike iff |half|^2 < t, half = L^-1 b.

    With E ~ Exp(1) in ``energy``, the decision -E < log P(spike) rearranges
    exactly to |half|^2 < 2 noise_scale (log pi0 - log(1 - pi0) + log expm1(E)
    - :func:`slab_log_volume`).  log expm1(E) is taken as E + log(-expm1(-E)),
    finite for every E > 0 and -inf at E = 0.  t is -inf at pi0 = 0 and +inf
    at pi0 = 1.
    """
    if pi0 <= 0.0:
        return np.full_like(energy, -np.inf)
    if pi0 >= 1.0:
        return np.full_like(energy, np.inf)
    with np.errstate(divide="ignore"):
        log_expm1 = energy + np.log(-np.expm1(-energy))
    log_odds = math.log(pi0) - math.log1p(-pi0)
    return 2.0 * noise_scale * (log_odds + log_expm1 - slab_log_volume(logdet, slab, d))


def spike_probability(
    mu: np.ndarray, sigma: np.ndarray, g: float, pi0: float, sigma_sq: float = 1.0
) -> float:
    """Point-mass probability of a block with slab mean mu and unscaled covariance sigma.

    ``sigma_sq`` is the noise scale of the slab: 1.0 for the quantile model.
    """
    chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    half = np.linalg.solve(chol, np.asarray(mu, dtype=float))
    log_bf = slab_log_volume(logdet, g, half.size) + 0.5 * (half @ half) / sigma_sq
    return float(np.exp(log_spike_probability(log_bf, pi0)))


# ---------------------------------------------------------------------------
# model

@dataclass
class GibbsModel:
    """Immutable-except-y bundle of data, design and priors.

    The design is held once, as three arrays: the (n, d) spline basis B,
    the (p, n) transposed covariates X' (``xt``) and the (n, q) clinical
    matrix E, an (n, 0) matrix when q = 0.  p and d are read from them.
    :meth:`build` is the one place that forms them from a :class:`Dataset`.

    Besides them, a spike model holds the row outer products B_i B_i' its
    block grams are formed from, and a plain model (``spike`` False) the
    data-only parts of the joint coefficient draw: B B', the Cholesky
    factors of Sigma_alpha0 and Sigma_beta, and [B, E] times those factors.

    The engine reads ``prior.shrink_prior`` and ``prior.pi0_prior``.  A
    likelihood subclasses the model and supplies, besides its own constants:

    * ``state_class``, ``scalar_names`` and ``latent_names``: its state and
      the state attributes stored per draw, in storage order;
    * ``unit_scales()``: the likelihood's fields of the all-null start;
    * ``working_likelihood(state)``: the (n,) working weights w and the
      shift s ((n,) or 0.0) with y - s ~ N(Z coef, diag(1/w)) given the
      latents;
    * ``block_system(state, first, last)``: for blocks first..last, their
      grams G_j, their weighted covariate rows w * x_j (k, n), and the shift
      s of the working residual ((n,) or 0.0), so that
      b_j = B'(w * x_j * (resid - s)) + G_j alpha_j;
    * ``linear_system(state, x, partial)``: the likelihood's gram and
      right-hand side of a fixed-effect term (alpha_0 or beta) with design x
      and partial residual;
    * ``sweep(state, rng)``: one sweep in the likelihood's fixed order;
    * ``draw_noise_from_prior(state, rng)`` and
      ``draw_latents_from_prior(state, rng)``: the likelihood's own parts of
      the forward prior draw, before and after the coefficients;
    * ``response_noise(state)``: (shift, sd) of y around the linear predictor.
    """

    y: np.ndarray
    e: np.ndarray = field(repr=False)  # (n, q) clinical covariates E
    basis: np.ndarray = field(repr=False)  # (n, d) spline basis B
    xt: np.ndarray = field(repr=False)  # (p, n) covariates, row j-1 = x_j
    prior: PriorConfig | GaussianPriorConfig
    spike: bool
    sigma_beta: np.ndarray = field(repr=False, default=None)
    sigma_beta_inv: np.ndarray = field(repr=False, default=None)
    sigma_alpha0: np.ndarray = field(repr=False, default=None)
    sigma_alpha0_inv: np.ndarray = field(repr=False, default=None)
    # Spike models only: (n, d, d) rows B_i B_i'.
    basis_outer: np.ndarray = field(repr=False, default=None)
    # Plain models only: the constants of the joint draw.
    basis_gram: np.ndarray = field(repr=False, default=None)  # (n, n) B B'
    alpha0_chol: np.ndarray = field(repr=False, default=None)  # Cholesky factor of Sigma_a0
    beta_chol: np.ndarray = field(repr=False, default=None)  # Cholesky factor of Sigma_b
    fixed_factor: np.ndarray = field(repr=False, default=None)  # (n, d+q) [B, E] times those

    @classmethod
    def build(cls, dataset: Dataset, basis: np.ndarray, prior, spike: bool, **extra):
        """The model of ``dataset`` with its (n, d) spline ``basis`` B."""
        model = cls(
            y=dataset.y.copy(),
            e=dataset.e.copy(),
            basis=basis,
            xt=np.ascontiguousarray(dataset.x.T),
            prior=prior,
            spike=spike,
            **extra,
        )
        model.sigma_beta = prior.resolved_sigma_beta(model.q)
        model.sigma_beta_inv = np.linalg.inv(model.sigma_beta)
        model.sigma_alpha0 = prior.resolved_sigma_alpha0(model.d)
        model.sigma_alpha0_inv = np.linalg.inv(model.sigma_alpha0)
        if spike:
            model.basis_outer = basis[:, :, None] * basis[:, None, :]
        else:
            model.basis_gram = basis @ basis.T
            model.alpha0_chol = np.linalg.cholesky(model.sigma_alpha0)
            model.beta_chol = np.linalg.cholesky(model.sigma_beta)
            model.fixed_factor = np.hstack([basis @ model.alpha0_chol, model.e @ model.beta_chol])
        return model

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.xt.shape[0]

    @property
    def q(self) -> int:
        return self.e.shape[1]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


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

def _spline_predictor(model: GibbsModel, alpha: np.ndarray) -> np.ndarray:
    """sum_j Z_j alpha_j = B alpha_0 + rowsum(X * (B A_1:')), without the block tensor."""
    return model.basis @ alpha[0] + np.einsum("jn,jn->n", model.xt, alpha[1:] @ model.basis.T)


def full_residual(state, model: GibbsModel) -> np.ndarray:
    """y - E beta - sum_j Z_j alpha_j, computed from scratch."""
    return model.y - _spline_predictor(model, state.alpha) - model.e @ state.beta


def refresh_residual(state, model: GibbsModel) -> None:
    state.resid = full_residual(state, model)


# ---------------------------------------------------------------------------
# spline blocks 1..p

def _check_block(model: GibbsModel, j: int) -> None:
    if not 1 <= j <= model.p:
        raise IndexError("block index must lie in 1..p")


def _block_factors(grams: np.ndarray, slab: np.ndarray):
    """:func:`covariance_factors` of the slab precisions G_j + I/g_j."""
    return covariance_factors(grams + np.eye(grams.shape[-1]) / slab[:, None, None])


def _update_blocks(state, model: GibbsModel, first: int, last: int, rng: RngHandle) -> None:
    """Sequential mixture draws for blocks first..last; maintains the residual cache.

    Block j's slab is N(P_j^-1 b_j, noise_scale * P_j^-1), P_j = G_j + I/g_j.
    The stage works on the residual minus the likelihood's shift and adds
    the shift back at the end.  A currently included block always changes
    the residual, so it is drawn on its own.  A run of excluded blocks is
    scanned at once: one matmul forms all their right-hand sides, and the
    first block that leaves the spike is drawn before the scan resumes after
    it; a run that stays at the spike changes nothing.
    """
    k, d = last - first + 1, model.d
    noise = rng.gen.standard_normal((k, d + 2))
    grams, wxt, shift = model.block_system(state, first, last)
    slab = state.slab[first - 1 : last]
    scale = state.noise_scale
    linv, logdet = _block_factors(grams, slab)
    energy = 0.5 * (noise[:, d] ** 2 + noise[:, d + 1] ** 2)
    thresholds = spike_thresholds(logdet, slab, d, energy, scale, state.pi0)
    alpha = state.alpha[first : last + 1]
    inclusion = state.inclusion[first - 1 : last]
    const = (grams @ alpha[:, :, None])[:, :, 0]
    shifts = math.sqrt(scale) * noise[:, :d]
    basis, basis_t, xt = model.basis, model.basis.T, model.xt[first - 1 : last]
    # First included position at or after each position (k if none).
    next_included = np.minimum.accumulate(np.where(inclusion, np.arange(k), k)[::-1])[::-1].tolist()
    resid = state.resid - shift

    i = 0
    while i < k:
        if next_included[i] == i:
            half = linv[i] @ (basis_t @ (wxt[i] * resid) + const[i])
            to_spike = half @ half < thresholds[i]
            new = np.zeros(d) if to_spike else linv[i].T @ (half + shifts[i])
        else:
            stop = min(next_included[i], i + RUN_CHUNK)
            rhs = wxt[i:stop] @ (basis * resid[:, None]) + const[i:stop]
            halves = (linv[i:stop] @ rhs[:, :, None])[:, :, 0]
            stays = np.einsum("kd,kd->k", halves, halves) < thresholds[i:stop]
            hit = int(np.argmin(stays))
            if stays[hit]:
                i = stop
                continue
            i += hit
            to_spike = False
            new = linv[i].T @ (halves[hit] + shifts[i])
        resid -= xt[i] * (basis @ (new - alpha[i]))
        alpha[i] = new
        inclusion[i] = not to_spike
        i += 1
    if np.any(inclusion & ~alpha.any(axis=1)):
        raise RuntimeError("slab draw produced an exactly-zero block")
    state.resid = resid + shift


def alpha_block_moments(state, model: GibbsModel, j: int):
    """Slab mean and unscaled covariance (gram + I/g_j)^-1 of block j given the rest.

    Both come from the factor L^-1 the block draw uses: covariance L^-T L^-1
    and mean L^-T L^-1 b.  The slab draw has covariance noise_scale times
    the returned factor.
    """
    _check_block(model, j)
    grams, wxt, shift = model.block_system(state, j, j)
    rhs = model.basis.T @ (wxt[0] * (state.resid - shift)) + grams[0] @ state.alpha[j]
    linv = _block_factors(grams, state.slab[j - 1 : j])[0][0]
    return linv.T @ (linv @ rhs), linv.T @ linv


def update_alpha_block(state, model: GibbsModel, j: int, rng: RngHandle) -> None:
    """Spike-and-slab refresh of a single block (a plain normal one at pi0 = 0)."""
    _check_block(model, j)
    _update_blocks(state, model, j, j, rng)


def update_alpha_blocks(state, model: GibbsModel, rng: RngHandle) -> None:
    """Sequential refresh of blocks 1..p with batched factorizations."""
    if model.p > 0:
        _update_blocks(state, model, 1, model.p, rng)


# ---------------------------------------------------------------------------
# alpha_0 and beta

def _fixed_effect(state, model: GibbsModel, x, coef, prior_precision):
    """Mean, covariance (gram + prior)^-1 and partial residual of a fixed-effect term x @ coef."""
    partial = state.resid + x @ coef
    gram, rhs = model.linear_system(state, x, partial)
    cov = np.linalg.inv(gram + prior_precision)
    cov = 0.5 * (cov + cov.T)
    return cov @ rhs, cov, partial


def _draw_fixed_effect(state, model: GibbsModel, x, coef, prior_precision, rng: RngHandle):
    """Draw of a fixed-effect term from its conditional; updates the residual cache."""
    mu, cov, partial = _fixed_effect(state, model, x, coef, prior_precision)
    draw = sample_mvn(rng, mu, cov)
    state.resid = partial - x @ draw
    return draw


def alpha0_conditional_moments(state, model: GibbsModel):
    return _fixed_effect(state, model, model.basis, state.alpha[0], model.sigma_alpha0_inv)[:2]


def update_alpha0(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the varying-intercept block."""
    draw = _draw_fixed_effect(
        state, model, model.basis, state.alpha[0], model.sigma_alpha0_inv, rng
    )
    state.alpha[0] = draw
    return draw


def beta_conditional_moments(state, model: GibbsModel):
    return _fixed_effect(state, model, model.e, state.beta, model.sigma_beta_inv)[:2]


def update_beta(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the clinical coefficients; no-op when q = 0.

    The sweep's one branch on q: a draw over an empty E would still cost
    about 30 us of small-matrix calls per sweep.
    """
    if model.q == 0:
        return state.beta
    state.beta = _draw_fixed_effect(state, model, model.e, state.beta, model.sigma_beta_inv, rng)
    return state.beta


# ---------------------------------------------------------------------------
# all coefficients at once (plain samplers)

def update_coefficients(state, model: GibbsModel, rng: RngHandle) -> None:
    """Exact joint draw of (alpha_0, blocks 1..p, beta) from their Gaussian full conditional.

    With the model's working weights w and shift s, y - s ~ N(Z coef,
    diag(1/w)) for the design Z = [B, Z_1..Z_p, E], and the prior is
    coef ~ N(0, D) with D block diagonal: Sigma_alpha0, c_j I for block j
    (c_j = noise_scale * g_j) and Sigma_beta.  The sampler of Bhattacharya,
    Chakraborty & Mallick (2016, Biometrika 103:985) draws
    coef = u + D Z' S v, with S = diag(sqrt w), u a prior draw,
    delta ~ N(0, I_n), v = M^-1 (S (y - s - Z u) - delta) and
    M = I + S Z D Z' S.  Since
    Z D Z' = (B B') o (X diag(c) X') + B Sigma_alpha0 B' + E Sigma_beta E',
    M costs one n x p x n product and one n x n solve, and neither the
    block tensor nor the (n, D) design is formed.

    RNG contract: one ``standard_normal((p+1) d + q + n)`` array, drawn
    first.  Its first (p+1) d entries, read as a (p+1, d) array, give the
    prior draw of alpha: row 0 times the Cholesky factor of Sigma_alpha0,
    row j times sqrt(c_j).  The next q, times the Cholesky factor of
    Sigma_beta, give that of beta, and the last n are delta.  Every block
    ends included, and the residual cache is refreshed.
    """
    n, size = model.n, (model.p + 1) * model.d
    w, shift = model.working_likelihood(state)
    root_w = np.sqrt(w)
    cov = state.noise_scale * state.slab
    root_cov = np.sqrt(cov)[:, None]
    noise = rng.gen.standard_normal(size + model.q + n)
    prior_alpha = noise[:size].reshape(model.p + 1, model.d)
    prior_alpha[0] = model.alpha0_chol @ prior_alpha[0]
    prior_alpha[1:] *= root_cov
    prior_beta = model.beta_chol @ noise[size:-n]
    # M, with S folded into the factors of each term of Z D Z'
    scaled_xt = model.xt * (root_cov * root_w)
    system = scaled_xt.T @ scaled_xt
    system *= model.basis_gram
    scaled_fixed = model.fixed_factor * root_w[:, None]
    system += scaled_fixed @ scaled_fixed.T
    system.flat[:: n + 1] += 1.0
    target = model.y - shift - _spline_predictor(model, prior_alpha) - model.e @ prior_beta
    weighted = root_w * np.linalg.solve(system, root_w * target - noise[-n:])
    state.alpha[0] = prior_alpha[0] + model.sigma_alpha0 @ (model.basis.T @ weighted)
    state.alpha[1:] = prior_alpha[1:] + cov[:, None] * ((model.xt * weighted) @ model.basis)
    state.beta = prior_beta + model.sigma_beta @ (model.e.T @ weighted)
    state.inclusion[:] = True
    refresh_residual(state, model)


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
    shape = 0.5 * (model.d + 1) * model.p + model.prior.shrink_prior[0]
    rate = 0.5 * float(np.sum(state.slab)) + model.prior.shrink_prior[1]
    return shape, rate


def update_shrinkage(state, model: GibbsModel, rng: RngHandle) -> float:
    shape, rate = shrinkage_conditional_params(state, model)
    state.shrink = float(sample_gamma(rng, shape, rate))
    return state.shrink


def pi0_conditional_params(state, model: GibbsModel):
    n_active = int(np.sum(state.inclusion))
    return model.prior.pi0_prior[0] + model.p - n_active, model.prior.pi0_prior[1] + n_active


def update_pi0(state, model: GibbsModel, rng: RngHandle) -> float:
    a_post, b_post = pi0_conditional_params(state, model)
    state.pi0 = float(sample_beta(rng, a_post, b_post))
    return state.pi0


# ---------------------------------------------------------------------------
# chains, prior draws, simulated responses

def _check_finite(state, model: GibbsModel, iteration: int) -> None:
    """Raise FloatingPointError naming the first non-finite quantity after a sweep."""
    for name in ("alpha", "beta", "resid") + model.scalar_names:
        if not np.isfinite(getattr(state, name)).all():
            raise FloatingPointError(f"non-finite {name} after sweep {iteration}")


def run_chain(
    model: GibbsModel,
    iterations: int,
    burn_in: int,
    thin: int,
    rng: RngHandle,
    store_latents: bool = False,
) -> ChainSamples:
    """Run one chain of ``model`` from the all-null start and return its stored draws.

    After every sweep, alpha, beta, the residual and the stored scalars must be
    finite; otherwise FloatingPointError names the sweep and the first
    non-finite quantity.
    """
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
        _check_finite(state, model, it)
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
    state.shrink = float(sample_gamma(rng, *model.prior.shrink_prior))
    state.pi0 = float(sample_beta(rng, *model.prior.pi0_prior)) if model.spike else 0.0
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
    state.beta = sample_mvn(rng, np.zeros(model.q), model.sigma_beta)
    model.draw_latents_from_prior(state, rng)
    refresh_residual(state, model)
    return state


def draw_response(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Simulate y from the working likelihood given the current latents."""
    mean = _spline_predictor(model, state.alpha) + model.e @ state.beta
    shift, sd = model.response_noise(state)
    return mean + shift + sd * rng.gen.standard_normal(model.n)
