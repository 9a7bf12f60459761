"""Independent oracles used across the test suite.

Each oracle recomputes a quantity along a different mathematical route from
the implementation it checks: truncated-power divided differences for
B-splines, numerical quadrature for marginal likelihoods and conditional
densities, and plain dense arithmetic for the Gaussian conditionals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from bayesqvc.ald import ald_constants


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


def dense_coefficient_posterior(model, weights, target, slab_cov):
    """Mean and covariance of (alpha_0, blocks 1..p, beta) from the dense (n, D) design.

    The working likelihood is target ~ N(Z coef, diag(1/weights)), and the
    prior is N(0, blockdiag(Sigma_alpha0, slab_cov_j I, ..., Sigma_beta)).
    Coefficients are in the order of alpha.ravel() followed by beta.
    """
    blocks = dense_blocks(model)
    design = np.hstack([*blocks, model.e])
    prior_blocks = [model.sigma_alpha0] + [c * np.eye(model.d) for c in slab_cov]
    prior_blocks.append(model.sigma_beta)
    size = design.shape[1]
    prior = np.zeros((size, size))
    start = 0
    for block in prior_blocks:
        stop = start + block.shape[0]
        prior[start:stop, start:stop] = block
        start = stop
    weighted = design.T * weights
    cov = np.linalg.inv(weighted @ design + np.linalg.inv(prior))
    return cov @ (weighted @ target), cov


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
