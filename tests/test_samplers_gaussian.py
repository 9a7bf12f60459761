"""Gaussian-likelihood comparator samplers (spike-and-slab and pure shrinkage)."""

import copy
import math

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, McmcOptions, RngHandle, SplineConfig
from bayesqvc.samplers.engine import (
    draw_state_from_prior,
    full_residual,
    initial_state,
    pi0_conditional_params,
    refresh_residual,
    run_chain,
    update_alpha_block,
    update_alpha_blocks,
)
from bayesqvc.samplers.engine import shrinkage_conditional_params as lambda_sq_conditional_params
from bayesqvc.samplers.gaussian import (
    build_gaussian_model,
    sigma_sq_conditional_params,
    update_zeta_sq,
)

from bayesqvc.simulate import ScenarioSpec, simulate_dataset

from oracles import (
    assert_moments,
    block_slab_moments,
    check_state,
    dense_blocks,
    dense_partial_residual,
    dense_ridge_posterior,
    spike_decisions,
    spike_probability_oracle_gaussian,
    with_block_paths,
)


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


def _block_case(n: int, d: int, seed: int, sigma_sq: float, zeta_sq: float, pi0: float):
    """A Gaussian spike model with p = 3, q = 1 and d basis functions, and a with_block_paths
    state whose slab scales are all ``zeta_sq``."""
    rng = np.random.default_rng(seed)
    ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, 3)), v=rng.random(n),
                 e=rng.normal(size=(n, 1)))
    model = build_gaussian_model(ds, SplineConfig(d - 1, 0), GaussianPriorConfig(), spike=True)
    state = with_block_paths(model, rng)
    state.sigma_sq, state.zeta_sq[:], state.pi0 = sigma_sq, zeta_sq, pi0
    return model, state


def test_alpha_block_moments_dense_oracle(small_model):
    """The block stage's slab N(mean, sigma_sq (Z_j'Z_j + I/zeta_j)^-1) on both of its paths
    (block 1 included, block 2 excluded) against the dense normal equations."""
    model = small_model
    state = with_block_paths(model, np.random.default_rng(41))
    state.sigma_sq, state.zeta_sq[:] = 0.7, (0.8, 1.9, 0.5)
    for j in (1, 2):
        zj = dense_blocks(model)[j]
        mean, cov = block_slab_moments(state, model, j)
        mean_oracle, cov_oracle = dense_ridge_posterior(
            zj, np.full(model.n, 1.0 / state.sigma_sq), dense_partial_residual(model, state, j),
            state.sigma_sq * state.zeta_sq[j - 1])
        np.testing.assert_allclose(cov, cov_oracle, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(mean, mean_oracle, rtol=1e-10, atol=1e-12)


def _check_spike_decisions(model, state) -> None:
    """The stage's spike decision on both paths against the quadrature P(spike): exact at
    E = (1 -+ 1e-6) (-log P), through each decision entry."""
    for j in (1, 2):
        zj = dense_blocks(model)[j]
        prob = spike_probability_oracle_gaussian(zj, dense_partial_residual(model, state, j),
                                                 state.sigma_sq, state.zeta_sq[j - 1], state.pi0)
        assert 0.05 < prob < 0.95
        assert spike_decisions(state, model, j, math.log(prob)) == [False, True] * 2


def test_spike_probability_gaussian_quadrature_d1():
    _check_spike_decisions(*_block_case(3, 1, 0, sigma_sq=1.3, zeta_sq=0.7, pi0=0.45))


def test_spike_probability_gaussian_quadrature_d2():
    _check_spike_decisions(*_block_case(4, 2, 3, sigma_sq=0.8, zeta_sq=1.4, pi0=0.6))


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


@pytest.mark.parametrize("zero_y", [False, True], ids=["y", "zero-y"])
def test_start_sigma_sq_is_its_conditional_mean(small_model, zero_y):
    """The null start sets 1/sigma_sq to shape / scale of its conditional given residual y."""
    model = small_model
    if zero_y:
        model.y = np.zeros(model.n)
    state = initial_state(model)
    np.testing.assert_array_equal(state.resid, model.y)
    shape, scale = sigma_sq_conditional_params(state, model)
    assert state.sigma_sq == scale / shape
    assert math.isfinite(state.sigma_sq) and state.sigma_sq > 0.0
    np.testing.assert_array_equal(state.zeta_sq, 1.0)
    assert (state.lambda_sq, state.pi0) == (1.0, 0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", [
    {"covariate_kind": "gene", "error_kind": "normal", "heteroscedastic": False, "tau": 0.5},
    {"covariate_kind": "snp", "error_kind": "laplace", "heteroscedastic": True, "tau": 0.25},
], ids=["gene", "snp"])
def test_bvcss_first_sweep_includes_few_blocks(scenario, seed):
    """From the start's sigma_sq, the first bvcss sweep at the paper shape (n=200, p=100,
    3 true blocks) includes at most 10 blocks; a unit sigma_sq start included 43 to 52."""
    dataset, _, _ = simulate_dataset(ScenarioSpec(seed=seed, **scenario))
    model = build_gaussian_model(dataset, SplineConfig(), GaussianPriorConfig(), spike=True)
    state = initial_state(model)
    model.sweep(state, RngHandle(seed, 0))
    assert np.count_nonzero(state.inclusion) <= 10


def test_lambda_sq_shapes():
    # d=5, p=10, t=1: shape 3 k + 1 over the k included blocks, 31 with all of them
    ds = Dataset(y=np.zeros(3), x=np.zeros((3, 10)), v=np.array([0.2, 0.5, 0.8]))
    model = build_gaussian_model(ds, SplineConfig(2, 2), GaussianPriorConfig(t=1.0, psi=2.0))
    state = initial_state(model)
    state.zeta_sq = np.arange(1.0, 11.0)
    assert lambda_sq_conditional_params(state, model) == pytest.approx((1.0, 2.0))
    state.alpha[[2, 5], 0] = 1.0
    state.inclusion[[1, 4]] = True
    shape, rate = lambda_sq_conditional_params(state, model)
    assert shape == pytest.approx(3.0 * 2 + 1.0)
    assert rate == pytest.approx(0.5 * (2.0 + 5.0) + 2.0)
    state.alpha[1:, 0] = 1.0
    state.inclusion[:] = True
    shape, rate = lambda_sq_conditional_params(state, model)
    assert shape == pytest.approx(31.0)
    assert rate == pytest.approx(0.5 * 55.0 + 2.0)


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
        check_state(state)
