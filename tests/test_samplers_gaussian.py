"""Gaussian-likelihood comparator samplers (spike-and-slab and pure shrinkage)."""

import copy
import math

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, McmcOptions, RngHandle, SplineConfig
from bayesqvc.samplers.engine import (
    alpha_block_moments,
    draw_state_from_prior,
    full_residual,
    initial_state,
    pi0_conditional_params,
    refresh_residual,
    run_chain,
    spike_probability,
    update_alpha_block,
    update_alpha_blocks,
)
from bayesqvc.samplers.engine import shrinkage_conditional_params as lambda_sq_conditional_params
from bayesqvc.samplers.gaussian import (
    build_gaussian_model,
    sigma_sq_conditional_params,
    update_zeta_sq,
)

from oracles import assert_moments, dense_blocks, spike_probability_oracle_gaussian


@pytest.fixture
def small_model():
    rng = np.random.default_rng(2)
    ds = Dataset(
        y=rng.normal(size=6),
        x=rng.normal(size=(6, 3)),
        v=rng.random(6),
        e=rng.normal(size=(6, 1)),
    )
    return build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(), spike=True)


@pytest.fixture
def small_state(small_model):
    return draw_state_from_prior(small_model, RngHandle(41, 0))


def test_alpha_block_moments_dense_oracle(small_model, small_state):
    model, state = small_model, small_state
    for j in (1, 2, 3):
        mu, sigma = alpha_block_moments(state, model, j)
        zj = dense_blocks(model)[j]
        others = sum(
            dense_blocks(model)[k] @ state.alpha[k]
            for k in range(model.p + 1)
            if k != j
        )
        r = model.y - model.e @ state.beta - others
        sigma_oracle = np.linalg.inv(zj.T @ zj + np.eye(model.d) / state.zeta_sq[j - 1])
        mu_oracle = sigma_oracle @ (zj.T @ r)
        np.testing.assert_allclose(sigma, sigma_oracle, atol=1e-12)
        np.testing.assert_allclose(mu, mu_oracle, atol=1e-12)


def test_spike_probability_gaussian_quadrature_d1():
    rng = np.random.default_rng(0)
    n = 3
    zj = rng.normal(size=(n, 1))
    resid = rng.normal(size=n)
    sigma_sq, zeta_sq, pi0 = 1.3, 0.7, 0.45
    oracle = spike_probability_oracle_gaussian(zj, resid, sigma_sq, zeta_sq, pi0)
    factor = np.linalg.inv(zj.T @ zj + np.eye(1) / zeta_sq)
    mu = factor @ (zj.T @ resid)
    ours = spike_probability(mu, factor, zeta_sq, pi0, sigma_sq)
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_spike_probability_gaussian_quadrature_d2():
    rng = np.random.default_rng(3)
    n = 4
    zj = rng.normal(size=(n, 2))
    resid = rng.normal(size=n)
    sigma_sq, zeta_sq, pi0 = 0.8, 1.4, 0.6
    oracle = spike_probability_oracle_gaussian(zj, resid, sigma_sq, zeta_sq, pi0)
    factor = np.linalg.inv(zj.T @ zj + np.eye(2) / zeta_sq)
    mu = factor @ (zj.T @ resid)
    ours = spike_probability(mu, factor, zeta_sq, pi0, sigma_sq)
    assert ours == pytest.approx(oracle, rel=1e-4)


def test_sigma_sq_shape_counting():
    # n=20, d=5, sum(Q)=2, s=1 -> shape 16
    rng = np.random.default_rng(5)
    ds = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 4)), v=rng.random(20))
    model = build_gaussian_model(ds, SplineConfig(2, 2), GaussianPriorConfig(s=1.0, h=1.0))
    state = initial_state(model)
    state.alpha[1, 0] = 1.0
    state.alpha[2, 1] = -1.0
    state.inclusion[:2] = True
    refresh_residual(state, model)
    shape, _ = sigma_sq_conditional_params(state, model)
    assert shape == pytest.approx(20 / 2 + 5 + 1)

    # BVC analogue: all p blocks active -> (n + d p)/2 + s
    state.alpha[1:, 0] = 1.0
    state.inclusion[:] = True
    refresh_residual(state, model)
    shape, _ = sigma_sq_conditional_params(state, model)
    assert shape == pytest.approx((20 + 5 * 4) / 2 + 1)


def test_sigma_sq_scale_includes_slab_penalty(small_model, small_state):
    model, state = small_model, small_state
    shape, scale = sigma_sq_conditional_params(state, model)
    resid = full_residual(state, model)
    penalty = sum(
        state.alpha[j] @ state.alpha[j] / state.zeta_sq[j - 1]
        for j in range(1, model.p + 1)
    )
    expected = 0.5 * resid @ resid + 0.5 * penalty + model.prior.h
    assert scale == pytest.approx(expected, rel=1e-12)


def test_lambda_sq_shapes():
    # d=5, p=10, t=1 -> 31; matches the quantile analogue's 301 at p=100
    ds = Dataset(y=np.zeros(3), x=np.zeros((3, 10)), v=np.array([0.2, 0.5, 0.8]))
    model = build_gaussian_model(ds, SplineConfig(2, 2), GaussianPriorConfig(t=1.0))
    state = initial_state(model)
    shape, _ = lambda_sq_conditional_params(state, model)
    assert shape == pytest.approx(31.0)


def test_pi0_counting():
    ds = Dataset(y=np.zeros(3), x=np.zeros((3, 10)), v=np.array([0.2, 0.5, 0.8]))
    model = build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(a=1.0, b=1.0))
    state = initial_state(model)
    state.alpha[1:4, 0] = 1.0
    state.inclusion[:3] = True
    # p + a - sum(Q), b + sum(Q)
    assert pi0_conditional_params(state, model) == (8.0, 4.0)


def test_zeta_sq_branches():
    p = 60_000
    ds = Dataset(y=np.zeros(3), x=np.ones((3, p)), v=np.array([0.2, 0.5, 0.8]))
    model = build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig())
    state = initial_state(model)
    state.lambda_sq = 3.0
    # zero branch: Gamma((d+1)/2, lambda^2/2), mean (d+1)/lambda^2
    z = update_zeta_sq(state, model, RngHandle(71, 0))
    d = model.d
    assert_moments(z, mean=(d + 1) / 3.0, nse=4.0, label="zeta|alpha=0")
    # nonzero branch: 1/zeta^2 ~ IG(sqrt(sigma^2 lambda^2 / ||alpha||^2), lambda^2)
    state.sigma_sq = 2.0
    state.alpha[1:, 0] = 1.3
    state.inclusion[:] = True
    refresh_residual(state, model)
    z = update_zeta_sq(state, model, RngHandle(72, 0))
    mu = math.sqrt(2.0 * 3.0 / 1.3**2)
    assert_moments(1.0 / z, mean=mu, var=mu**3 / 3.0, nse=4.0, label="1/zeta")


def test_single_vs_batched_block_updates(small_model):
    s1 = draw_state_from_prior(small_model, RngHandle(15, 0))
    s2 = copy.deepcopy(s1)
    update_alpha_blocks(s1, small_model, RngHandle(16, 0))
    rng = RngHandle(16, 0)
    for j in (1, 2, 3):
        update_alpha_block(s2, small_model, j, rng)
    np.testing.assert_allclose(s1.alpha, s2.alpha, atol=1e-9)


def test_run_chain_reproducible_and_invariant():
    rng_data = np.random.default_rng(20)
    ds = Dataset(
        y=rng_data.normal(size=10), x=rng_data.normal(size=(10, 3)), v=rng_data.random(10)
    )
    opts = McmcOptions(iterations=80, burn_in=30, seed=2, store_latents=True)
    a = run_chain(build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(), spike=True),
                  opts, 0)
    b = run_chain(build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(), spike=True),
                  opts, 0)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.scalars["sigma_sq"], b.scalars["sigma_sq"])
    assert np.all(a.scalars["sigma_sq"] > 0)
    assert np.all(a.scalars["lambda_sq"] > 0)
    assert np.all(a.latents["zeta_sq"] > 0)
    nonzero = np.any(a.alpha[:, 1:, :] != 0.0, axis=2)
    np.testing.assert_array_equal(nonzero, a.inclusion.astype(bool))
    # pure-shrinkage variant never produces an exactly-zero block
    c = run_chain(build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(), spike=False),
                  McmcOptions(iterations=80, burn_in=30, seed=3), 0)
    assert np.all(np.any(c.alpha[:, 1:, :] != 0.0, axis=2))


def test_sweep_keeps_residual_fresh(small_model):
    state = initial_state(small_model)
    rng = RngHandle(33, 0)
    for _ in range(5):
        small_model.sweep(state, rng)
        np.testing.assert_allclose(
            state.resid, full_residual(state, small_model), atol=1e-9
        )
        state.validate()
