"""Potential scale reduction factor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesqvc import Dataset, PriorConfig, RngHandle, SplineConfig
from bayesqvc.diagnostics import (
    psrf,
    psrf_report,
    psrf_trace,
    split_chains,
    tracked_parameters,
)
from bayesqvc.inference import ci_selection
from bayesqvc.samplers import GaussianPriorConfig, McmcOptions, fit


def test_psrf_identical_chains():
    chain = np.array([1.0, 2.0, 3.0, 4.0])
    value, degenerate = psrf(np.stack([chain, chain]))
    assert value == pytest.approx(math.sqrt(3 / 4))
    assert not degenerate
    # m identical chains: B = 0 exactly -> sqrt((n-1)/n)
    value, _ = psrf(np.stack([chain] * 5))
    assert value == pytest.approx(math.sqrt(3 / 4))


def test_psrf_constant_unequal_chains_flagged():
    value, degenerate = psrf(np.array([[0.0] * 4, [10.0] * 4]))
    assert degenerate
    assert value == float("inf")


def test_psrf_constant_equal_chains():
    value, degenerate = psrf(np.array([[2.0] * 4, [2.0] * 4]))
    assert degenerate
    assert value == 1.0


def test_psrf_hand_computation():
    x = np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 9.0]])
    n = 3
    means = x.mean(axis=1)
    b = n * np.var(means, ddof=1)
    w = np.mean([np.var(x[0], ddof=1), np.var(x[1], ddof=1)])
    expected = math.sqrt(((n - 1) / n * w + b / n) / w)
    value, _ = psrf(x)
    assert value == pytest.approx(expected)


def test_psrf_stationary_chains_near_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 10_000))
    value, _ = psrf(x)
    assert abs(value - 1.0) < 0.05


@settings(max_examples=25, deadline=None)
@given(st.floats(-10, 10), st.floats(0.1, 5))
def test_psrf_affine_invariance(shift, scale):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 50))
    base, _ = psrf(x)
    transformed, _ = psrf(scale * x + shift)
    assert transformed == pytest.approx(base, rel=1e-9)


def test_psrf_input_validation():
    with pytest.raises(ValueError):
        psrf(np.zeros((1, 10)))
    with pytest.raises(ValueError):
        psrf(np.zeros(10))


def test_psrf_trace_matches_slicing():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 500))
    trace = psrf_trace(x, [100, 250, 500])
    assert len(trace) == 3
    for stop, value in trace:
        expected, _ = psrf(x[:, :stop])
        assert value == pytest.approx(expected)
    single = psrf_trace(x, [500])
    assert single[0][1] == pytest.approx(psrf(x)[0])
    with pytest.raises(ValueError):
        psrf_trace(x, [501])


@pytest.fixture(scope="module")
def two_chain_fit():
    rng = np.random.default_rng(12)
    n = 60
    v = rng.random(n)
    x = rng.normal(size=(n, 3))
    y = 1.0 + 2.0 * x[:, 0] + 0.4 * rng.standard_normal(n)
    ds = Dataset(y=y, x=x, v=v)
    return fit(
        ds, "bqrvcss", spline_config=SplineConfig(1, 1), prior=PriorConfig(), tau=0.5,
        opts=McmcOptions(iterations=600, burn_in=200, chains=2, seed=3),
    )


def test_report_tracks_selected_blocks_and_scale(two_chain_fit):
    report = psrf_report(two_chain_fit)
    assert "theta" in report.values
    assert any(name.startswith("alpha[0,") for name in report.values)
    assert any(name.startswith("alpha[1,") for name in report.values)
    assert report.converged == all(v <= 1.1 for v in report.values.values())


def test_report_requires_two_chains_or_split(two_chain_fit):
    single = split_chains(two_chain_fit)  # sanity: split doubles chain count
    assert len(single.chains) == 4
    import copy

    one = copy.copy(two_chain_fit)
    one.chains = two_chain_fit.chains[:1]
    with pytest.raises(ValueError, match="split"):
        psrf_report(one)
    report = psrf_report(one, split=True)
    assert report.values


def test_tracked_parameters_shapes(two_chain_fit):
    tracked = tracked_parameters(two_chain_fit)
    for arr in tracked.values():
        assert arr.shape == (2, two_chain_fit.chains[0].stored)


@pytest.mark.parametrize("method", ["bqrvc", "bvc"])
def test_tracked_blocks_of_non_spike_fits_follow_ci_selection(method):
    # one true block among six: every block is nonzero in every draw, so
    # the tracked set must come from the credible-interval rule
    rng = np.random.default_rng(21)
    n = 80
    v = rng.random(n)
    x = rng.normal(size=(n, 6))
    y = 1.0 + 2.0 * x[:, 0] + 0.4 * rng.standard_normal(n)
    prior = PriorConfig() if method == "bqrvc" else GaussianPriorConfig()
    samples = fit(
        Dataset(y=y, x=x, v=v), method, spline_config=SplineConfig(1, 1), prior=prior,
        tau=0.5, opts=McmcOptions(iterations=400, burn_in=200, chains=2, seed=4),
    )
    tracked = {int(name[6:name.index(",")]) for name in tracked_parameters(samples)
               if name.startswith("alpha[")}
    assert tracked == {0} | set(ci_selection(samples))
    assert len(tracked) < samples.p + 1
