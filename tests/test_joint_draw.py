"""The plain samplers' joint coefficient draw against the dense Gaussian posterior.

The draw is an affine map of its one standard-normal array: fed the unit
vectors e_k and -e_k it returns the conditional mean plus and minus column k
of a factor A with A A' the conditional covariance (``oracles.affine_moments``).

The draw sets the residual from its solve, s + (delta + v) / sqrt(w), not
from the new coefficients.  Two tests hold that identity to the dense
residual: under working weights spread over eight decades, and at the end
of long plain chains, which never refresh the residual from scratch.
"""

import copy

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, PriorConfig, RngHandle, SplineConfig
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.engine import (
    draw_state_from_prior,
    full_residual,
    initial_state,
    update_coefficients,
)

from oracles import FixedNoise, affine_moments, dense_coefficient_posterior, quantile_block_fixture


def _model(likelihood: str, p: int, q: int):
    rng = np.random.default_rng(100 + 10 * p + q)
    n = 9
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, p)), v=rng.random(n),
                 e=rng.normal(size=(n, q)))
    cfg = SplineConfig(2, 1)  # d = 4
    if likelihood == "quantile":
        return quantile.build_quantile_model(ds, cfg, PriorConfig(prior_scale=1.7), tau=0.3,
                                             spike=False)
    return gaussian.build_gaussian_model(ds, cfg, GaussianPriorConfig(prior_scale=1.7),
                                         spike=False)


def _working_likelihood(state, model, likelihood):
    """Weights and target of the working Gaussian, from the model's definition."""
    if likelihood == "quantile":
        return quantile_block_fixture(None, model.y, state.u_tilde, state.theta, 0.3)
    return np.full(model.n, 1.0 / state.sigma_sq), model.y


def _draw(state, model, noise):
    trial = copy.deepcopy(state)
    trial.inclusion[:] = False
    update_coefficients(trial, model, FixedNoise(noise))
    assert trial.inclusion.all()
    np.testing.assert_allclose(trial.resid, full_residual(trial, model), atol=1e-12)
    return np.concatenate([trial.alpha.ravel(), trial.beta])


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
@pytest.mark.parametrize("p, q", [(0, 2), (3, 0), (2, 1), (4, 2)])
def test_joint_draw_matches_dense_posterior(likelihood, p, q):
    model = _model(likelihood, p, q)
    state = draw_state_from_prior(model, RngHandle(5, p + q))
    if likelihood == "gaussian":
        state.sigma_sq = 0.7
    weights, target = _working_likelihood(state, model, likelihood)
    mean, cov = dense_coefficient_posterior(model, weights, target,
                                            state.noise_scale * state.slab)
    draw_mean, draw_cov = affine_moments(lambda noise: _draw(state, model, noise),
                                         (p + 1) * model.d + q + model.n)
    np.testing.assert_allclose(draw_mean, mean, rtol=1e-10, atol=1e-12 * np.abs(mean).max())
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(draw_cov / scale, cov / scale, rtol=1e-10, atol=1e-10)


# Largest gap between the residual of the solve and the dense one, relative to max|y|.
RESIDUAL_RTOL = 1e-9


def _residual_gap(state, model) -> float:
    return np.abs(state.resid - full_residual(state, model)).max() / np.abs(model.y).max()


@pytest.mark.parametrize("theta", [1e-3, 1.0, 1e3])
def test_residual_of_the_solve_under_widely_spread_weights(theta):
    """u log-spaced over 1e-4..1e4 spreads w = theta / (kappa2^2 u) over eight decades."""
    model = _model("quantile", 4, 2)
    state = draw_state_from_prior(model, RngHandle(5, 6))
    state.u_tilde = np.logspace(-4.0, 4.0, model.n)
    state.theta = theta
    for seed in range(5):
        update_coefficients(state, model, RngHandle(seed, 7))
        assert _residual_gap(state, model) <= RESIDUAL_RTOL


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
def test_plain_chain_residual_does_not_drift(likelihood):
    """2000 plain sweeps set the residual from the solve only, and it stays the dense one."""
    model = _model(likelihood, 3, 1)
    state, rng = initial_state(model), RngHandle(9, 0)
    for _ in range(2000):
        model.sweep(state, rng)
    assert _residual_gap(state, model) <= RESIDUAL_RTOL
