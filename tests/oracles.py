"""Independent oracles used across the test suite, and the fixed noise that reads a stage off.

Each oracle recomputes a quantity along a different mathematical route from
the implementation it checks: truncated-power divided differences for
B-splines, numerical quadrature for marginal likelihoods and conditional
densities, and plain dense arithmetic for the Gaussian conditionals.

The tests compare the oracles with the sampler's stages themselves, which
they feed fixed noise through :class:`FixedNoise`.  A stage's draw is an
affine map of its one ``standard_normal`` array, so the unit vectors e_k and
-e_k give the conditional mean plus and minus column k of a factor A with
A A' the covariance (:func:`affine_moments`).  A spike block's decision
entries z, z' have energy E = (z^2 + z'^2) / 2, and the block goes to the
spike iff E > -log P(spike): fed E just below and just above -log P of an
oracle, through z alone and through z' alone, the decision is checked
exactly (:func:`spike_decisions`).
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace

import numpy as np
from scipy import integrate

from bayesqvc.ald import ald_constants, validate_tau
from bayesqvc.samplers.engine import initial_state, update_alpha_block
from bayesqvc.samplers.state import GaussianSamplerState, SamplerState


# ---------------------------------------------------------------------------
# fixed noise

class FixedNoise:
    """An RNG handle whose one standard_normal call returns a copy of ``values``.

    The call must ask for the shape of ``values``: an int size for a vector,
    a tuple for an array.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.gen = SimpleNamespace(standard_normal=self._standard_normal)

    def _standard_normal(self, size):
        assert (size if isinstance(size, tuple) else (size,)) == self.values.shape
        return self.values.copy()


def affine_moments(draw, size: int):
    """Mean and covariance of ``draw(z)`` for z ~ N(0, I_size), read off an affine ``draw``.

    draw(e_k) and draw(-e_k) are the mean plus and minus column k of a factor
    A with A A' the covariance.  No draw is fed zero noise, at which a slab
    of zero mean would draw an exactly-zero block, which the block stage
    rejects.
    """
    plus = np.array([draw(unit) for unit in np.eye(size)])
    minus = np.array([draw(-unit) for unit in np.eye(size)])
    factor = (plus - minus).T / 2.0
    return (plus + minus).mean(axis=0) / 2.0, factor @ factor.T


def with_block_paths(model, rng):
    """A start state of ``model`` (p >= 2) with block 2 excluded and every other block included.

    alpha and beta are 0.5 times normals from ``rng``, block 2 is zero and the
    residual is the dense one, so ``update_alpha_block`` takes its one-block
    path at j = 1 and its run scan at j = 2.  The caller sets the scales.
    """
    state = initial_state(model)
    state.alpha[:] = 0.5 * rng.normal(size=state.alpha.shape)
    state.alpha[2] = 0.0
    state.inclusion[:] = True
    state.inclusion[1] = False
    state.beta = 0.5 * rng.normal(size=model.q)
    fitted = np.einsum("jnd,jd->n", dense_blocks(model), state.alpha) + model.e @ state.beta
    state.resid = model.y - fitted
    return state


def block_replay(state, model, j: int, noise):
    """A copy of ``state`` after ``update_alpha_block`` of block j fed the (d + 2,) ``noise``.

    The first d entries are the slab innovation and the last two z, z'.
    """
    trial = copy.deepcopy(state)
    update_alpha_block(trial, model, j, FixedNoise(np.asarray(noise, dtype=float)[None]))
    return trial


def block_slab_moments(state, model, j: int):
    """Mean and covariance of block j's slab draw, read off the block stage.

    With z = z' = 0 the energy is 0, below -log P(spike) for every pi0 < 1,
    so every replay draws from the slab.
    """
    def draw(innovation):
        trial = block_replay(state, model, j, np.concatenate([innovation, [0.0, 0.0]]))
        assert trial.inclusion[j - 1]
        return trial.alpha[j]

    return affine_moments(draw, model.d)


def spike_decisions(state, model, j: int, log_p: float, margin: float = 1e-6) -> list[bool]:
    """Whether block j goes to the spike fed E = (1 - margin) (-log P) and E = (1 + margin)
    (-log P), through z alone and then through z' alone.

    A block whose log spike probability is ``log_p`` gives [False, True, False, True].  The
    slab innovation, which the decision does not read, is all ones, so that a slab of zero
    mean draws no exactly-zero block.
    """
    d = model.d
    decisions = []
    for entry in (d, d + 1):
        for energy in ((1.0 - margin) * -log_p, (1.0 + margin) * -log_p):
            noise = np.r_[np.ones(d), 0.0, 0.0]
            noise[entry] = math.sqrt(2.0 * energy)
            decisions.append(not block_replay(state, model, j, noise).inclusion[j - 1])
    return decisions


# ---------------------------------------------------------------------------
# naive divided-difference B-spline evaluator

def _truncated_power_derivative(t: float, x: float, k: int, order: int) -> float:
    """d^order/dt^order of (t - x)_+^k, valid for order <= k and t != x."""
    power = k - order
    if t <= x:
        return 0.0
    coef = math.factorial(k) / math.factorial(power)
    return coef * (t - x) ** power


def _divided_difference(nodes, x: float, k: int) -> float:
    """Generalized divided difference of f(t) = (t - x)_+^k over possibly
    repeated nodes (confluent case via derivatives)."""

    def rec(lo: int, hi: int) -> float:
        if nodes[hi] == nodes[lo]:
            order = hi - lo
            return _truncated_power_derivative(nodes[lo], x, k, order) / math.factorial(order)
        return (rec(lo + 1, hi) - rec(lo, hi - 1)) / (nodes[hi] - nodes[lo])

    return rec(0, len(nodes) - 1)


def naive_bspline(knots, i: int, degree: int, x: float) -> float:
    """B_{i,degree}(x) = (t_{i+k+1} - t_i) [t_i, ..., t_{i+k+1}] (t - x)_+^k.

    Independent of the Cox-de Boor recursion; x must not coincide with a
    knot (the truncated power is ambiguous there).
    """
    nodes = list(knots[i : i + degree + 2])
    span = nodes[-1] - nodes[0]
    if span == 0.0:
        return 0.0
    return span * _divided_difference(nodes, x, degree)


# ---------------------------------------------------------------------------
# quadrature oracles for spike probabilities

def spike_probability_oracle_quantile(zj, target, weights, g, pi0):
    """P(block = 0 | rest) via direct numerical integration (d = 1 or 2).

    ``target`` is the partial residual minus the mixture offset; the
    working likelihood is prod_i N(target_i | Z_i' alpha, 1/w_i).
    """
    zj = np.asarray(zj, dtype=float)
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = zj.shape[1]

    def loglik(alpha):
        r = target - zj @ alpha
        return -0.5 * float(np.sum(weights * r**2))

    spike_evidence = math.exp(loglik(np.zeros(d)))
    if d == 1:
        def integrand(a):
            return math.exp(loglik(np.array([a])) - 0.5 * a**2 / g) / math.sqrt(
                2.0 * math.pi * g
            )

        slab_evidence, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    elif d == 2:
        def integrand(a2, a1):
            a = np.array([a1, a2])
            return math.exp(loglik(a) - 0.5 * float(a @ a) / g) / (2.0 * math.pi * g)

        slab_evidence, _ = integrate.dblquad(
            integrand, -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-11, epsrel=1e-10
        )
    else:
        raise ValueError("oracle supports d in {1, 2}")
    return pi0 * spike_evidence / (pi0 * spike_evidence + (1.0 - pi0) * slab_evidence)


def quantile_block_fixture(zj, resid_partial, u, theta, tau):
    """Weights and offset target shared by the sampler and the oracle."""
    consts = ald_constants(tau)
    w = theta / (consts.kappa2_sq * np.asarray(u, dtype=float))
    target = np.asarray(resid_partial, dtype=float) - consts.kappa1 * np.asarray(u, dtype=float)
    return w, target


def spike_probability_oracle_gaussian(zj, resid_partial, sigma_sq, zeta_sq, pi0):
    """Gaussian-likelihood analogue: slab covariance sigma_sq * zeta_sq * I."""
    w = np.full(np.asarray(resid_partial).shape, 1.0 / sigma_sq)
    return spike_probability_oracle_quantile(
        zj, resid_partial, w, sigma_sq * zeta_sq, pi0
    )


def spike_probability_oracle_marginal(zj, target, weights, slab_var, pi0):
    """P(block = 0 | rest) from the block's two marginal likelihoods of ``target``, any d.

    Under the spike, target ~ N(0, W^-1); under the slab N(0, slab_var I),
    target ~ N(0, W^-1 + slab_var Z_j Z_j').  Both n-variate normal log
    densities come from a Cholesky factor, up to their common constant.
    """
    def log_density(cov):
        chol = np.linalg.cholesky(cov)
        white = np.linalg.solve(chol, target)
        return -np.log(np.diag(chol)).sum() - 0.5 * float(white @ white)

    spike_cov = np.diag(1.0 / np.asarray(weights, dtype=float))
    log_spike = math.log(pi0) + log_density(spike_cov)
    log_slab = math.log1p(-pi0) + log_density(spike_cov + slab_var * zj @ zj.T)
    return math.exp(log_spike - np.logaddexp(log_spike, log_slab))


def scalar_spike_probability(log_bayes_factor: float, pi0: float) -> float:
    """P(spike) = pi0 / (pi0 + (1-pi0) * exp(log_bayes_factor)) in scalar math, overflow-safe."""
    if pi0 >= 1.0:
        return 1.0
    if pi0 <= 0.0:
        return 0.0
    log_spike = math.log(pi0)
    log_slab = math.log1p(-pi0) + log_bayes_factor
    return math.exp(log_spike - np.logaddexp(log_spike, log_slab))


# ---------------------------------------------------------------------------
# dense design tensor

def dense_blocks(model) -> np.ndarray:
    """The (p+1, n, d) spline blocks of a sampler model: Z_0 = B and Z_j = diag(x_j) B.

    The samplers never build this tensor; the dense oracles multiply by it.
    """
    basis = model.basis
    return np.concatenate([basis[None], model.xt[:, :, None] * basis[None]])


def dense_partial_residual(model, state, j: int) -> np.ndarray:
    """y - E beta - sum_{k != j} Z_k alpha_k: block j's partial residual, from the dense blocks."""
    others = np.delete(dense_blocks(model), j, axis=0), np.delete(state.alpha, j, axis=0)
    return model.y - model.e @ state.beta - np.einsum("jnd,jd->n", *others)


def dense_ridge_posterior(x, weights, target, prior_var):
    """Mean and covariance of a given target ~ N(x a, diag(1/weights)), a ~ N(0, diag(prior_var)).

    ``prior_var`` is one variance for every coefficient or one per coefficient.
    The precision x'Wx + diag(1 / prior_var) is inverted by a general inverse.
    """
    cov = np.linalg.inv((x.T * weights) @ x + np.eye(x.shape[1]) / prior_var)
    return cov @ (x.T @ (weights * target)), cov


def dense_coefficient_posterior(model, weights, target, slab_cov):
    """Mean and covariance of (alpha_0, blocks 1..p, beta) from the dense (n, D) design.

    The working likelihood is target ~ N(Z coef, diag(1/weights)), and the
    prior is N(0, diag(prior_scale 1_d, slab_cov_j 1_d, ..., prior_scale 1_q)).
    Coefficients are in the order of alpha.ravel() followed by beta.
    """
    design = np.hstack([*dense_blocks(model), model.e])
    scale = model.prior.prior_scale
    prior_var = np.concatenate([np.full(model.d, scale), np.repeat(slab_cov, model.d),
                                np.full(model.q, scale)])
    return dense_ridge_posterior(design, weights, target, prior_var)


# ---------------------------------------------------------------------------
# sampler state invariants

# The scales of each sampler state, which must stay strictly positive.
POSITIVE_SCALES = {SamplerState: ("u_tilde", "g", "theta", "eta_sq"),
                   GaussianSamplerState: ("sigma_sq", "zeta_sq", "lambda_sq")}


def check_state(state) -> None:
    """ValueError unless the scales of ``state`` are positive, pi0 lies in [0, 1] and the
    inclusion flags are the nonzero blocks 1..p of alpha."""
    for name in POSITIVE_SCALES[type(state)]:
        if np.any(np.asarray(getattr(state, name)) <= 0):
            raise ValueError(f"{name} must stay strictly positive")
    if not 0.0 <= state.pi0 <= 1.0:
        raise ValueError("pi0 must lie in [0, 1]")
    nonzero = np.any(state.alpha[1:] != 0.0, axis=1)
    if not np.array_equal(nonzero, state.inclusion):
        raise ValueError("inclusion flags inconsistent with alpha blocks")


# ---------------------------------------------------------------------------
# asymmetric Laplace CDF

def ald_cdf(residual, theta: float, tau: float):
    """Exact CDF of the asymmetric Laplace (location 0, inverse scale theta)."""
    tau = validate_tau(tau)
    if theta <= 0.0:
        raise ValueError("theta must be strictly positive")
    eps = np.asarray(residual, dtype=float)
    upper = 1.0 - (1.0 - tau) * np.exp(-theta * tau * eps)
    lower = tau * np.exp(theta * (1.0 - tau) * eps)
    out = np.where(eps >= 0.0, upper, lower)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature check of a positive scalar conditional density

def density_cdf_oracle(log_density, draws, grid_hi=None, n_grid=20001):
    """Sup distance between the empirical CDF of ``draws`` and the CDF of the
    unnormalized log density, normalized by quadrature on a fine grid."""
    draws = np.asarray(draws, dtype=float)
    hi = grid_hi if grid_hi is not None else float(np.quantile(draws, 0.9999) * 4.0)
    xs = np.linspace(hi / n_grid * 1e-3, hi, n_grid)
    logs = np.array([log_density(x) for x in xs])
    dens = np.exp(logs - logs.max())
    cdf = integrate.cumulative_trapezoid(dens, xs, initial=0.0)
    cdf /= cdf[-1]
    emp_points = np.quantile(draws, np.linspace(0.01, 0.99, 99))
    theo = np.interp(emp_points, xs, cdf)
    emp = np.linspace(0.01, 0.99, 99)
    return float(np.max(np.abs(theo - emp)))


# ---------------------------------------------------------------------------
# moment assertion helper

def assert_moments(draws, mean, var=None, nse=4.0, label=""):
    """Sample mean (and optionally variance) within nse Monte Carlo SEs."""
    draws = np.asarray(draws, dtype=float)
    n = draws.size
    s2 = draws.var(ddof=1)
    se_mean = math.sqrt(s2 / n)
    err = abs(draws.mean() - mean)
    assert err <= nse * se_mean, (
        f"{label} mean {draws.mean():.6g} vs {mean:.6g} ({err / se_mean:.2f} SEs)"
    )
    if var is not None:
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2**2, 1e-300) / n)
        err_v = abs(s2 - var)
        assert err_v <= nse * se_var, (
            f"{label} var {s2:.6g} vs {var:.6g} ({err_v / se_var:.2f} SEs)"
        )
