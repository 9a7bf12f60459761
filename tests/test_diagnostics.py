"""Potential scale reduction factor, plain and split-chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesqvc import Dataset, PriorConfig, SplineConfig
from bayesqvc.diagnostics import (
    psrf,
    psrf_report,
    psrf_report_trace,
    split_psrf,
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


def test_split_psrf_is_psrf_of_the_chain_halves():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 501))  # the odd last draw is dropped
    halves = np.stack([x[0, :250], x[0, 250:500], x[1, :250], x[1, 250:500]])
    assert split_psrf(x) == psrf(halves)
    with pytest.raises(ValueError, match="at least 4 draws per chain, got 3"):
        split_psrf(x[:, :3])


def test_split_psrf_sees_a_drift_the_chains_share():
    # Both chains start at the same point and drift alike: their means agree,
    # so the plain PSRF reads converged, but the halves of each chain differ.
    rng = np.random.default_rng(0)
    x = np.linspace(0, 3, 200) + rng.normal(size=(2, 200))
    assert psrf(x)[0] < 1.01
    values, degenerate = psrf_report({"a": x})
    assert values["a"] > 1.1
    assert degenerate == {"a": False}


def test_report_trace_matches_slicing():
    rng = np.random.default_rng(1)
    tracked = {"a": rng.normal(size=(2, 500)), "b": rng.normal(size=(1, 500))}
    trace = psrf_report_trace(tracked, [100, 251, 500])
    for name, arr in tracked.items():
        assert [stop for stop, _ in trace[name]] == [100, 251, 500]
        for stop, value in trace[name]:
            assert value == split_psrf(arr[:, :stop])[0]
    assert trace["a"][-1][1] == psrf_report(tracked)[0]["a"]
    for stop in (3, 501):
        with pytest.raises(ValueError, match=f"checkpoint {stop} is outside the 4..500"):
            psrf_report_trace(tracked, [100, stop])


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
    values, _ = psrf_report(tracked_parameters(two_chain_fit))
    assert "theta" in values
    assert any(name.startswith("alpha[0,") for name in values)
    assert any(name.startswith("alpha[1,") for name in values)


def test_report_of_a_single_chain_compares_its_halves(two_chain_fit):
    import copy

    one = copy.copy(two_chain_fit)
    one.chains = two_chain_fit.chains[:1]
    tracked = tracked_parameters(one)
    values, _ = psrf_report(tracked)
    assert values.keys() == tracked.keys()
    for name, arr in tracked.items():
        half = arr.shape[1] // 2
        assert values[name] == psrf(np.stack([arr[0, :half], arr[0, half:2 * half]]))[0]


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
