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
the quantile state.  The model states its working Gaussian once, as the
weights w and shift s of ``working_likelihood``; the alpha_0 and beta
systems, the joint draw and ``draw_response`` are formed from them here.
Only the block stage asks for the same Gaussian in block form
(``block_system``): the block grams and the weights w themselves, not the
(k, n) weighted rows w o x_j, so that the Gaussian model can reuse the
unweighted grams it forms at build and the quantile model can put w on the
basis side of each product.  Each likelihood's ``sweep`` method calls the
stages in the likelihood's fixed order through its module's globals, the
names under which the traced benchmark wraps them.

Spline block j is Z_j = diag(x_j) B, with B the n x d basis and x_j the j-th
covariate column; the varying intercept alpha_0 is block 0, with x_0 = 1.
The model holds the design once, as B, the (p+1, n) covariate rows
[1; X'] (X' is their view without row 0) and the (n, q) clinical matrix E,
and never builds the (p+1, n, d) block tensor.  E is a matrix also when
q = 0, so the residual, the prior draw and ``draw_response`` have no q
branch; only ``update_beta`` and the joint draw's E term skip an empty E.

Per-sweep work in the spike block stage scales with the blocks that need
it, not with p x n.  The weighted grams sum_i w_i x_ji^2 B_i B_i' are one
(k, n) @ (n, d d) product of the squared covariates X' o X' (held by the
quantile spike model since build) and the rows w_i vec(B_i B_i'); each
right-hand side reads plain X' rows against B o (w r); the offset G_j alpha_j
is formed for included blocks only; and the residual refresh sums alpha_0 and
the included blocks' rows unless every block is included.

The coefficients are drawn in one of two ways.

* The spike samplers (bqrvcss, bvcss) refresh blocks 1..p one at a time
  with the spike-and-slab block draw, then alpha_0 and beta, each from its
  conditional.  Each of these precisions is factored once by Cholesky,
  P = L L' (Rue 2001), and the draw and the moments read L^-1: with
  half = L^-1 b, the mean is L^-T half and L^-T (half + z) a draw (z
  scaled by sqrt(noise_scale) for a slab).  A block's quadratic form
  b' P^-1 b is |half|^2, and log|P^-1| = 2 sum log diag L^-1.
* The plain samplers (bqrvc, bvc) include every block, so given the
  likelihood's latents and scales all coefficients are jointly Gaussian.
  :func:`update_coefficients` draws (alpha_0, blocks 1..p, beta) at once
  through one n x n solve, in place of the block stage and the alpha_0
  and beta updates.  It sets the residual from that solve, and it is the
  first stage of a plain sweep, so a plain sweep reads no residual it did
  not set and never refreshes it from the coefficients.  A spike sweep
  refreshes it at sweep start.

The functions the tests check against oracles run the sweep's own code:
:func:`spike_probability` and the block kernel's :func:`spike_thresholds`
share :func:`slab_log_volume`, :func:`alpha_block_moments` reads the factor
the block draw uses, and the alpha_0 and beta updates draw from the factor
their moment functions read (``_fixed_effect``).

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
)
from .config import GaussianPriorConfig, McmcOptions, PriorConfig
from .state import ChainSamples

# Most excluded blocks whose right-hand sides one scan forms at once.  A slab
# hit inside a run makes the rest of the scan stale, so a cap keeps the work
# wasted per hit bounded when many blocks leave the spike (early sweeps).
RUN_CHUNK = 64


# ---------------------------------------------------------------------------
# linear-algebra kernels

def weighted_block_grams(weighted_outer: np.ndarray, sq_rows: np.ndarray) -> np.ndarray:
    """Grams sum_i w_i x_ji^2 B_i B_i' of the blocks with squared covariates ``sq_rows``; (k, d, d).

    The working weights w ride on the basis side: ``weighted_outer`` holds the
    row outer products w_i B_i B_i', shape (n, d, d), and row j of ``sq_rows``
    is x_j o x_j for block j's covariate row x_j.  So all k grams come from
    one (k, n) @ (n, d d) product, and no weighted (k, n) copy of X' is formed.
    """
    n, d, _ = weighted_outer.shape
    return (sq_rows @ weighted_outer.reshape(n, d * d)).reshape(-1, d, d)


def covariance_factors(precisions: np.ndarray):
    """Inverse Cholesky factors and covariance log-dets of a batch of SPD precisions.

    With P = L L', returns (L^-1, log|P^-1|).  L^-1 comes from a batched
    forward substitution, row j being (e_j - L[j, :j] L^-1[:j]) / L[j, j],
    and the log-det from its diagonal 1 / L[j, j].  The substitution runs on
    a contiguous (d, d, k) copy of L, so each row of L^-1 is one vector
    operation over the k precisions; L^-1 is returned as a (k, d, d) view.
    Raises LinAlgError if a precision is not positive definite, which cannot
    happen for positive ridge terms.
    """
    chol = np.linalg.cholesky(precisions)
    lower = np.ascontiguousarray(chol.transpose(1, 2, 0))
    recip = 1.0 / np.diagonal(lower).T  # (d, k)
    linv = np.zeros_like(lower)
    for j in range(lower.shape[0]):
        linv[j, j] = recip[j]
        if j:
            linv[j, :j] = -recip[j] * (lower[j, :j, None] * linv[:j, :j]).sum(axis=0)
    return linv.transpose(2, 0, 1), 2.0 * np.sum(np.log(recip), axis=0)


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
    the (p+1, n) covariate rows [1; X'] (``rows``: row 0 is the varying
    intercept's covariate, all ones, and row j is x_j) and the (n, q)
    clinical matrix E, an (n, 0) matrix when q = 0.  ``xt``, the (p, n)
    transposed covariates X', is ``rows`` without its row of ones, as a
    view, so no second copy is built or pickled to a chain worker.  p and d
    are read from them.  :meth:`build` is the one place that forms them
    from a :class:`Dataset`.

    Besides them, a spike model holds the row outer products B_i B_i' its
    block grams are formed from (the quantile spike model also holds the
    squared covariates X' o X'), and a plain model (``spike`` False) the
    one data-only part of the joint coefficient draw, B B'.

    The engine reads ``prior.prior_scale``, the variance of the N(0,
    prior_scale I) priors of alpha_0 and beta, ``prior.shrink_prior`` and
    ``prior.pi0_prior``.  A likelihood subclasses the model and supplies,
    besides its own constants:

    * ``state_class``, ``scalar_names`` and ``latent_names``: its state and
      the state attributes stored per draw, in storage order;
    * ``unit_scales()``: the likelihood's fields of the all-null start;
    * ``working_likelihood(state)``: the (n,) working weights w and the
      shift s ((n,) or 0.0) with y - s ~ N(Z coef, diag(1/w)) given the
      latents;
    * ``block_system(state, first, last)``: for blocks first..last, their
      grams G_j, the working weights w ((n,), or 1.0 for the Gaussian model,
      whose 1/sigma_sq the noise scale carries; not the (k, n) rows
      w * x_j), and the shift s of the working residual ((n,) or 0.0), so that
      b_j = B'(x_j * w * (resid - s)) + G_j alpha_j;
    * ``sweep(state, rng)``: one sweep in the likelihood's fixed order, each
      stage called through the likelihood module's globals;
    * ``draw_noise_from_prior(state, rng)``: the likelihood's scale, then its
      latents, from their prior; the first draws of the forward prior draw.

    The engine derives the rest from the working likelihood: the gram and
    right-hand side of alpha_0 and beta, and the noise of ``draw_response``.
    """

    y: np.ndarray
    e: np.ndarray = field(repr=False)  # (n, q) clinical covariates E
    basis: np.ndarray = field(repr=False)  # (n, d) spline basis B
    rows: np.ndarray = field(repr=False)  # (p+1, n) covariate rows [1; X']
    prior: PriorConfig | GaussianPriorConfig
    spike: bool
    # Spike models only: (n, d, d) rows B_i B_i'.
    basis_outer: np.ndarray = field(repr=False, default=None)
    # Plain models only: (n, n) B B', the constant of the joint draw.
    basis_gram: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(cls, dataset: Dataset, basis: np.ndarray, prior, spike: bool, **extra):
        """The model of ``dataset`` with its (n, d) spline ``basis`` B."""
        # Filled in place so that the rows are C-contiguous: np.vstack of X'
        # would keep X' in Fortran order, and the BLAS products round differently.
        rows = np.empty((dataset.p + 1, dataset.n))
        rows[0] = 1.0
        rows[1:] = dataset.x.T
        model = cls(
            y=dataset.y.copy(),
            e=dataset.e.copy(),
            basis=basis,
            rows=rows,
            prior=prior,
            spike=spike,
            **extra,
        )
        if spike:
            model.basis_outer = basis[:, :, None] * basis[:, None, :]
        else:
            model.basis_gram = basis @ basis.T
        return model

    @property
    def xt(self) -> np.ndarray:
        """(p, n) covariates X', row j-1 = x_j: ``rows`` without its row of ones."""
        return self.rows[1:]

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.rows.shape[0] - 1

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

def _spline_predictor(model: GibbsModel, alpha: np.ndarray, included=None) -> np.ndarray:
    """sum_j Z_j alpha_j = B alpha_0 + rowsum(X * (B A_1:')), without the block tensor.

    With (p,) flags ``included`` of which some are unset, only alpha_0 and
    the flagged blocks are summed; the others must be exact zeros.
    """
    xt, blocks = model.xt, alpha[1:]
    if included is not None and not included.all():
        xt, blocks = xt[included], blocks[included]
    return model.basis @ alpha[0] + np.einsum("jn,jn->n", xt, blocks @ model.basis.T)


def full_residual(state, model: GibbsModel) -> np.ndarray:
    """y - E beta - sum_j Z_j alpha_j, computed from scratch from alpha_0 and the included blocks.

    A spike state at the sparse optimum includes a few of the p blocks, so
    this reads their rows only; a state that includes every block (a plain
    fit) takes the one dense product.
    """
    return model.y - _spline_predictor(model, state.alpha, state.inclusion) - model.e @ state.beta


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

    Block j's slab is N(P_j^-1 b_j, noise_scale * P_j^-1), P_j = G_j + I/g_j,
    with b_j = B'(x_j o w o r) + G_j alpha_j for the working weights w and the
    working residual r.  The stage works on r, the residual minus the
    likelihood's shift, and adds the shift back at the end.  A currently
    included block always changes the residual, so it is drawn on its own,
    and only it needs the offset G_j alpha_j.  A run of excluded blocks
    (alpha_j = 0, so b_j = B'(x_j o w o r)) is scanned at once: one matmul of
    their X' rows against B o (w r) forms all their right-hand sides, and the
    first block that leaves the spike is drawn before the scan resumes after
    it; a run that stays at the spike changes nothing.
    """
    k, d = last - first + 1, model.d
    noise = rng.gen.standard_normal((k, d + 2))
    grams, w, shift = model.block_system(state, first, last)
    slab = state.slab[first - 1 : last]
    scale = state.noise_scale
    linv, logdet = _block_factors(grams, slab)
    energy = 0.5 * (noise[:, d] ** 2 + noise[:, d + 1] ** 2)
    thresholds = spike_thresholds(logdet, slab, d, energy, scale, state.pi0)
    alpha = state.alpha[first : last + 1]
    inclusion = state.inclusion[first - 1 : last]
    shifts = math.sqrt(scale) * noise[:, :d]
    basis, xt = model.basis, model.xt[first - 1 : last]
    # First included position at or after each position (k if none).
    next_included = np.minimum.accumulate(np.where(inclusion, np.arange(k), k)[::-1])[::-1].tolist()
    resid = state.resid - shift

    i = 0
    while i < k:
        if next_included[i] == i:
            half = linv[i] @ ((xt[i] * (w * resid)) @ basis + grams[i] @ alpha[i])
            to_spike = half @ half < thresholds[i]
            new = np.zeros(d) if to_spike else linv[i].T @ (half + shifts[i])
        else:
            stop = min(next_included[i], i + RUN_CHUNK)
            rhs = xt[i:stop] @ (basis * (w * resid)[:, None])
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
    grams, w, shift = model.block_system(state, j, j)
    rhs = (model.xt[j - 1] * (w * (state.resid - shift))) @ model.basis + grams[0] @ state.alpha[j]
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

def _fixed_effect(state, model: GibbsModel, x, coef):
    """Factor L^-1, whitened right-hand side L^-1 b and partial residual of a fixed-effect
    term x @ coef.

    Its conditional precision P = x'Wx + I / prior_scale is factored once,
    P = L L', and b = x'W(partial - s) for the working weights W and shift s.
    The conditional is N(L^-T L^-1 b, L^-T L^-1): with half = L^-1 b, its
    mean is L^-T half and a draw is L^-T (half + z).
    """
    partial = state.resid + x @ coef
    w, shift = model.working_likelihood(state)
    precision = (x * w[:, None]).T @ x + np.eye(x.shape[1]) / model.prior.prior_scale
    linv = np.linalg.inv(np.linalg.cholesky(precision))  # of the triangular factor L
    return linv, linv @ (x.T @ (w * (partial - shift))), partial


def _fixed_effect_moments(state, model: GibbsModel, x, coef):
    """Mean and covariance of a fixed-effect term's conditional, read off its factor."""
    linv, half, _ = _fixed_effect(state, model, x, coef)
    return linv.T @ half, linv.T @ linv


def _draw_fixed_effect(state, model: GibbsModel, x, coef, rng: RngHandle):
    """Draw of a fixed-effect term from one ``standard_normal`` vector; updates the residual."""
    linv, half, partial = _fixed_effect(state, model, x, coef)
    draw = linv.T @ (half + rng.gen.standard_normal(x.shape[1]))
    state.resid = partial - x @ draw
    return draw


def alpha0_conditional_moments(state, model: GibbsModel):
    return _fixed_effect_moments(state, model, model.basis, state.alpha[0])


def update_alpha0(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the varying-intercept block."""
    draw = _draw_fixed_effect(state, model, model.basis, state.alpha[0], rng)
    state.alpha[0] = draw
    return draw


def beta_conditional_moments(state, model: GibbsModel):
    return _fixed_effect_moments(state, model, model.e, state.beta)


def update_beta(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Gaussian refresh of the clinical coefficients; no-op when q = 0.

    The sweep's one branch on q: a draw over an empty E would still cost
    about 30 us of small-matrix calls per sweep.
    """
    if model.q == 0:
        return state.beta
    state.beta = _draw_fixed_effect(state, model, model.e, state.beta, rng)
    return state.beta


# ---------------------------------------------------------------------------
# all coefficients at once (plain samplers)

def update_coefficients(state, model: GibbsModel, rng: RngHandle) -> None:
    """Exact joint draw of (alpha_0, blocks 1..p, beta) from their Gaussian full conditional.

    With the model's working weights w and shift s, y - s ~ N(Z coef,
    diag(1/w)) for the design Z = [Z_0, Z_1..Z_p, E], Z_j = diag(x_j) B with
    x_0 = 1, and the prior is coef ~ N(0, D) with D diagonal: c_0 =
    prior_scale for alpha_0, c_j = noise_scale * g_j for block j and
    prior_scale for beta.  The sampler of Bhattacharya, Chakraborty &
    Mallick (2016, Biometrika 103:985) draws coef = u + D Z' S v, with
    S = diag(sqrt w), u a prior draw, delta ~ N(0, I_n),
    v = M^-1 (S t - delta), t = y - s - Z u and M = I + S Z D Z' S.  Since
    Z D Z' = (B B') o ([1; X']' diag(c) [1; X']) + prior_scale E E',
    M costs one n x (p+1) x n product and one n x n solve, and neither the
    block tensor nor the (n, D) design is formed.  alpha_0 is block 0 with
    covariate row 1 throughout, and only E's term is added apart, when q > 0.

    The residual comes from the solve: S Z D Z' S v = (M - I) v gives
    y - Z coef = s + (delta + v) / sqrt(w), so no (p, n) pass over the new
    coefficients is made.  Each draw sets it from scratch, so nothing
    accumulates over a chain.  Dividing by sqrt(w) costs accuracy as the
    spread of w grows.  Against the dense residual, relative to max|y|, it
    agreed to about 1e-11 with the quantile latents u spread over
    1e-4..1e4, to 4e-8 over 1e-8..1e8 and to 5e-4 over 1e-12..1e12.
    400-sweep bqrvc chains on six paper-shape scenarios kept the spread of
    w below 10^6.2, with a gap below 4e-13.

    RNG contract: one ``standard_normal((p+1) d + q + n)`` array, drawn
    first.  Its first (p+1) d entries, read as a (p+1, d) array, give the
    prior draw of alpha: row j times sqrt(c_j).  The next q, times
    sqrt(prior_scale), give that of beta, and the last n are delta.  Every
    block ends included.
    """
    n, size = model.n, (model.p + 1) * model.d
    prior_scale = model.prior.prior_scale
    w, shift = model.working_likelihood(state)
    root_w = np.sqrt(w)
    cov = np.concatenate(([prior_scale], state.noise_scale * state.slab))
    root_cov = np.sqrt(cov)[:, None]
    noise = rng.gen.standard_normal(size + model.q + n)
    delta = noise[-n:]
    prior_alpha = noise[:size].reshape(model.p + 1, model.d)
    prior_alpha *= root_cov
    prior_beta = math.sqrt(prior_scale) * noise[size:-n]
    # M, with S folded into the factors of each term of Z D Z'
    scaled_rows = model.rows * (root_cov * root_w)
    system = scaled_rows.T @ scaled_rows
    system *= model.basis_gram
    if model.q:
        scaled_e = model.e * (math.sqrt(prior_scale) * root_w)[:, None]
        system += scaled_e @ scaled_e.T
    system.flat[:: n + 1] += 1.0
    target = model.y - shift - _spline_predictor(model, prior_alpha) - model.e @ prior_beta
    v = np.linalg.solve(system, root_w * target - delta)
    weighted = root_w * v
    state.alpha[:] = prior_alpha + cov[:, None] * (model.rows @ (model.basis * weighted[:, None]))
    state.beta = prior_beta + prior_scale * (model.e.T @ weighted)
    state.inclusion[:] = True
    state.resid = shift + (delta + v) / root_w


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


def run_chain(model: GibbsModel, opts: McmcOptions, stream_id: int) -> ChainSamples:
    """Run chain ``stream_id`` of ``model`` from the all-null start and return its stored draws.

    The chain draws only from the stream (opts.seed, stream_id); ``opts.chains``
    is not read.  After every sweep, alpha, beta, the residual and the stored
    scalars must be finite; otherwise FloatingPointError names the sweep and
    the first non-finite quantity.  Of blocks 1..p, only the included ones
    are stored (:class:`ChainSamples`).
    """
    rng = RngHandle(opts.seed, stream_id)
    state = initial_state(model)
    m_stored = opts.stored
    alpha0 = np.empty((m_stored, model.d))
    rows = []
    beta = np.empty((m_stored, model.q))
    inclusion = np.empty((m_stored, model.p), dtype=np.uint8)
    scalars = {name: np.empty(m_stored) for name in model.scalar_names}
    latents = {}
    if opts.store_latents:
        latents = {
            name: np.empty((m_stored,) + np.shape(getattr(state, name)))
            for name in model.latent_names
        }

    kept = 0
    for it in range(1, opts.iterations + 1):
        model.sweep(state, rng)
        _check_finite(state, model, it)
        if it > opts.burn_in and (it - opts.burn_in) % opts.thin == 0:
            alpha0[kept] = state.alpha[0]
            rows.append(state.alpha[1:][state.inclusion])
            beta[kept] = state.beta
            inclusion[kept] = state.inclusion
            for name, stored in (scalars | latents).items():
                stored[kept] = getattr(state, name)
            kept += 1
    return ChainSamples(
        seed=opts.seed,
        stream_id=stream_id,
        iterations=opts.iterations,
        burn_in=opts.burn_in,
        thin=opts.thin,
        alpha0=alpha0,
        rows=np.concatenate(rows) if rows else np.empty((0, model.d)),
        beta=beta,
        inclusion=inclusion,
        scalars=scalars,
        latents=latents,
    )


def draw_state_from_prior(model: GibbsModel, rng: RngHandle):
    """Forward draw of every latent from the hierarchical prior.

    RNG order: the likelihood's scale and latents (``draw_noise_from_prior``),
    shrinkage rate, pi0, slab scales, alpha_0, blocks 1..p, then beta.  Slab
    blocks are N(0, noise_scale * g_j I), and alpha_0 and beta are
    sqrt(prior_scale) times ``standard_normal(d)`` and ``standard_normal(q)``.
    """
    root_prior = math.sqrt(model.prior.prior_scale)
    state = initial_state(model)
    model.draw_noise_from_prior(state, rng)
    state.shrink = float(sample_gamma(rng, *model.prior.shrink_prior))
    state.pi0 = float(sample_beta(rng, *model.prior.pi0_prior)) if model.spike else 0.0
    state.slab = np.atleast_1d(
        sample_gamma(rng, 0.5 * (model.d + 1), 0.5 * state.shrink, size=model.p)
    )
    state.alpha[0] = root_prior * rng.gen.standard_normal(model.d)
    for j in range(1, model.p + 1):
        spike_hit = model.spike and sample_bernoulli(rng, state.pi0)
        if not spike_hit:
            scale = math.sqrt(state.noise_scale * state.slab[j - 1])
            state.alpha[j] = scale * rng.gen.standard_normal(model.d)
            state.inclusion[j - 1] = True
    state.beta = root_prior * rng.gen.standard_normal(model.q)
    refresh_residual(state, model)
    return state


def draw_response(state, model: GibbsModel, rng: RngHandle) -> np.ndarray:
    """Simulate y from the working likelihood, y - s ~ N(mean, diag(1/w)), given the latents."""
    mean = _spline_predictor(model, state.alpha) + model.e @ state.beta
    w, shift = model.working_likelihood(state)
    return mean + shift + rng.gen.standard_normal(model.n) / np.sqrt(w)
