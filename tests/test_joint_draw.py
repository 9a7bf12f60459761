"""The plain samplers' joint coefficient draw against the dense Gaussian posterior.

The draw is an affine map of its one standard-normal array: fed zero noise
it returns the conditional mean, and fed each unit vector e_k it returns the
mean plus column k of a factor A with A A' the conditional covariance.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, PriorConfig, RngHandle, SplineConfig
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.engine import draw_state_from_prior, full_residual, update_coefficients

from oracles import dense_coefficient_posterior, quantile_block_fixture


class FixedNoise:
    """An RNG handle whose one standard_normal call returns a copy of ``values``."""

    def __init__(self, values):
        self.values = values
        self.gen = SimpleNamespace(standard_normal=self._standard_normal)

    def _standard_normal(self, size):
        assert size == self.values.size
        return self.values.copy()


def _model(likelihood: str, p: int, q: int):
    rng = np.random.default_rng(100 + 10 * p + q)
    n = 9
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, p)), v=rng.random(n),
                 e=rng.normal(size=(n, q)))
    cfg = SplineConfig(2, 1)  # d = 4
    covs = {"sigma_alpha0": np.diag([2.0, 1.0, 3.0, 0.5]) + 0.3, "sigma_beta": np.eye(q) + 0.2}
    if likelihood == "quantile":
        return quantile.build_quantile_model(ds, cfg, PriorConfig(**covs), tau=0.3, spike=False)
    return gaussian.build_gaussian_model(ds, cfg, GaussianPriorConfig(**covs), spike=False)


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
    size = (p + 1) * model.d + q
    noise = np.zeros(size + model.n)
    draw = _draw(state, model, noise)
    np.testing.assert_allclose(draw, mean, rtol=1e-10, atol=1e-12 * np.abs(mean).max())
    factor = np.empty((size, noise.size))
    for k in range(noise.size):
        noise[:] = 0.0
        noise[k] = 1.0
        factor[:, k] = _draw(state, model, noise) - draw
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(factor @ factor.T / scale, cov / scale, rtol=1e-10, atol=1e-10)
