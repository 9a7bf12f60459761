"""The structured spike-and-slab block kernel: its RNG contract and that of
the plain samplers' joint draw, the run scan of excluded blocks against the
one-block path, the log-domain spike probability, the triangular factor
inverses, the spike thresholds, the per-sweep finite check and the one
model that `fit` builds per fit."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, McmcOptions, PriorConfig, RngHandle
from bayesqvc import SplineConfig, fit
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.engine import (
    alpha_block_moments,
    covariance_factors,
    full_residual,
    initial_state,
    log_spike_probability,
    run_chain,
    slab_log_volume,
    spike_probability,
    spike_thresholds,
    update_alpha_block,
    update_alpha_blocks,
    update_coefficients,
)
from bayesqvc.simulate import ScenarioSpec, simulate_dataset

from oracles import scalar_spike_probability

# Block 5 carries a strong signal inside the excluded run 3..7, so a run scan
# meets a slab hit after null blocks and must resume after it.
START_INCLUSION = np.array([1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0], dtype=bool)


def _rng_state(rng: RngHandle) -> bytes:
    return pickle.dumps(rng.gen.bit_generator.state)


def _p12_model(likelihood: str, spike: bool = True):
    rng = np.random.default_rng(12)
    n, p = 40, 12
    x = rng.normal(size=(n, p))
    v = rng.random(n)
    y = x[:, 4] + 0.3 * rng.normal(size=n)
    ds = Dataset(y=y, x=x, v=v, e=rng.normal(size=(n, 1)))
    if likelihood == "quantile":
        return quantile.build_quantile_model(ds, SplineConfig(1, 1), PriorConfig(), tau=0.4,
                                             spike=spike)
    return gaussian.build_gaussian_model(ds, SplineConfig(1, 1), GaussianPriorConfig(),
                                         spike=spike)


def _mixed_state(model):
    state = initial_state(model)
    state.pi0 = 0.5
    draws = 0.1 * RngHandle(6, 0).gen.normal(size=(model.p, model.d))
    state.alpha[1:] = np.where(START_INCLUSION[:, None], draws, 0.0)
    state.inclusion[:] = START_INCLUSION
    state.resid = full_residual(state, model)
    return state


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
def test_run_scan_matches_one_block_path(likelihood):
    model = _p12_model(likelihood)
    batched = _mixed_state(model)
    looped = copy.deepcopy(batched)
    rng_batched, rng_looped = RngHandle(1, 0), RngHandle(1, 0)
    update_alpha_blocks(batched, model, rng_batched)
    for j in range(1, model.p + 1):
        update_alpha_block(looped, model, j, rng_looped)
    np.testing.assert_allclose(batched.alpha, looped.alpha, atol=1e-9)
    np.testing.assert_array_equal(batched.inclusion, looped.inclusion)
    np.testing.assert_allclose(batched.resid, looped.resid, atol=1e-9)
    np.testing.assert_allclose(batched.resid, full_residual(batched, model), atol=1e-9)
    assert _rng_state(rng_batched) == _rng_state(rng_looped)
    # the fixture exercises what it claims: a slab hit after null blocks of a
    # run, and blocks of the closing run 11..12 decided at the spike
    assert batched.inclusion[4] and not batched.inclusion[2:4].any()
    assert not batched.inclusion[10:].all()


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
@pytest.mark.parametrize("j", [1, 2])
def test_spike_frequency_matches_conditional_probability(likelihood, j):
    # block 1 starts included (one-block path), block 2 excluded (run scan)
    model = _p12_model(likelihood)
    state = _mixed_state(model)
    prob = spike_probability(
        *alpha_block_moments(state, model, j), state.slab[j - 1], state.pi0, state.noise_scale
    )
    draws = 4000
    spikes = 0
    for stream in range(draws):
        trial = copy.deepcopy(state)
        update_alpha_block(trial, model, j, RngHandle(10, stream))
        spikes += not trial.inclusion[j - 1]
    assert 0.05 < prob < 0.95
    assert abs(spikes / draws - prob) < 4.0 * math.sqrt(prob * (1.0 - prob) / draws)


@pytest.mark.parametrize("likelihood", ["quantile", "gaussian"])
def test_rng_consumption_does_not_depend_on_data(likelihood):
    # the block stage of the spike model and the plain model's joint draw,
    # which takes one standard_normal((p+1) d + q + n) array
    for spike, update in ((True, update_alpha_blocks), (False, update_coefficients)):
        model = _p12_model(likelihood, spike)
        other = copy.deepcopy(model)
        other.y = -5.0 * model.y + 1.0
        rngs = []
        for m in (model, other):
            state = _mixed_state(m)
            rng = RngHandle(8, 0)
            update(state, m, rng)
            rngs.append(_rng_state(rng))
        assert rngs[0] == rngs[1]
    reference = RngHandle(8, 0)
    reference.gen.standard_normal((model.p + 1) * model.d + model.q + model.n)
    assert rngs[0] == _rng_state(reference)


@pytest.mark.parametrize("pi0", [0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0])
def test_vectorized_spike_probability_matches_scalar(pi0):
    log_bf = np.linspace(-1000.0, 1000.0, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = np.exp(log_spike_probability(log_bf, pi0))
    scalar = [scalar_spike_probability(b, pi0) for b in log_bf]
    np.testing.assert_allclose(ours, scalar, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 3, 5, 8])
def test_covariance_factors_match_inverse_cholesky(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(40, d, d))
    precisions = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
    linv, logdet = covariance_factors(precisions)
    reference = np.linalg.inv(np.linalg.cholesky(precisions))
    scale = np.abs(reference).max(axis=(1, 2), keepdims=True)
    np.testing.assert_allclose(linv / scale, reference / scale, rtol=1e-12, atol=1e-12)
    assert not np.triu(linv, 1).any()
    np.testing.assert_allclose(logdet, -np.linalg.slogdet(precisions)[1], rtol=1e-12, atol=1e-12)


def test_covariance_factors_reject_a_non_positive_definite_member():
    precisions = np.tile(np.eye(3), (4, 1, 1))
    precisions[2, 1, 1] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        covariance_factors(precisions)


@pytest.mark.parametrize("pi0", [0.0, 1e-300, 0.03, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("noise_scale", [0.3, 2.7])
def test_spike_thresholds_match_log_uniform_rule(pi0, noise_scale):
    rng = np.random.default_rng(7)
    k, d = 20000, 5
    # both ends of E, and many E near 0, where log expm1(E) differs most from E
    energy = np.concatenate([[0.0, 40.0], rng.uniform(0.0, 40.0, k - 2)])
    energy[2:200] = rng.uniform(0.0, 1e-6, 198)
    logdet = rng.uniform(-12.0, 2.0, k)
    slab = np.exp(rng.uniform(-3.0, 3.0, k))
    half = rng.normal(size=(k, d)) * np.exp(rng.uniform(-3.0, 2.0, k))[:, None]
    quad = np.einsum("kd,kd->k", half, half)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thresholds = spike_thresholds(logdet, slab, d, energy, noise_scale, pi0)
        log_bf = slab_log_volume(logdet, slab, d) + 0.5 * quad / noise_scale
        log_p = log_spike_probability(log_bf, pi0)
    ours = quad < thresholds
    # the log-uniform rule U < P(spike) as log U = -E < log P(spike); P(spike) = 1 always spikes
    reference = (log_p >= 0.0) | (-energy < log_p)
    near = np.isfinite(thresholds) & (
        np.abs(quad - thresholds) <= 1e-9 * np.maximum(np.abs(quad), np.abs(thresholds))
    )
    assert near.sum() < k // 1000
    np.testing.assert_array_equal(ours[~near], reference[~near])
    if pi0 == 0.0:
        assert not ours.any()
    elif pi0 == 1.0:
        assert ours.all()
    elif pi0 > 0.01:
        assert 0.01 < ours.mean() < 0.99


@pytest.mark.parametrize("method", ["bqrvcss", "bvcss"])
@pytest.mark.parametrize("kind, tau", [("gene", 0.5), ("snp", 0.25)])
def test_paper_shape_fit_emits_no_runtime_warning(method, kind, tau):
    dataset, _, _ = simulate_dataset(ScenarioSpec(seed=1, covariate_kind=kind, tau=tau))
    opts = McmcOptions(iterations=60, burn_in=20, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit(dataset, method, tau=tau if method == "bqrvcss" else None, opts=opts)


def _nan_theta(state):
    state.theta = math.nan


def _nan_alpha(state):
    state.alpha[0, 0] = math.nan


@pytest.mark.parametrize(
    "stage, quantity, poison",
    [("update_theta", "theta", _nan_theta), ("update_alpha0", "alpha", _nan_alpha)],
)
def test_run_chain_rejects_non_finite_sweep(tiny_model, monkeypatch, stage, quantity, poison):
    calls = []
    original = getattr(quantile, stage)

    def patched(state, model, rng):
        original(state, model, rng)
        calls.append(1)
        if len(calls) == 3:
            poison(state)

    monkeypatch.setattr(quantile, stage, patched)
    with pytest.raises(FloatingPointError, match=f"non-finite {quantity} after sweep 3"):
        run_chain(tiny_model, iterations=10, burn_in=0, thin=1, rng=RngHandle(1, 0))


def test_fit_builds_one_model_and_workers_match(tiny_dataset, monkeypatch):
    builds = []
    original = quantile.expand_design

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quantile, "expand_design", counting)
    opts = McmcOptions(iterations=30, burn_in=10, chains=3, seed=4)
    serial = fit(tiny_dataset, "bqrvcss", spline_config=SplineConfig(1, 0), tau=0.3, opts=opts,
                 workers=1)
    assert len(builds) == 1
    parallel = fit(tiny_dataset, "bqrvcss", spline_config=SplineConfig(1, 0), tau=0.3, opts=opts,
                   workers=2)
    for a, b in zip(serial.chains, parallel.chains):
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.scalars["theta"], b.scalars["theta"])
