"""Selection and estimation metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayesqvc.metrics import classify_fit, coverage, imse, mean_sd_cell, timse


def test_classify_fit_rule():
    truth = {1, 2, 3}
    assert classify_fit({1, 2, 3}, truth) == "C"
    assert classify_fit({1, 2, 3, 7}, truth) == "O"
    assert classify_fit({1, 2}, truth) == "U"
    # any miss is U even with extras
    assert classify_fit({1, 2, 9}, truth) == "U"
    assert classify_fit(set(), truth) == "U"


@given(st.sets(st.integers(1, 10)), st.sets(st.integers(1, 10), min_size=1))
def test_classify_fit_is_exhaustive_and_exclusive(selected, truth):
    label = classify_fit(selected, truth)
    assert label in {"C", "O", "U"}
    assert (label == "C") == (selected == truth)
    assert (label == "U") == bool(truth - selected)


def test_imse_values():
    grid = np.linspace(0, 1, 200)
    assert imse(grid, grid) == 0.0
    assert imse(grid + 0.1, grid) == pytest.approx(0.01)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=200)
    assert imse(a, b) == pytest.approx(np.sum((a - b) ** 2) / 200)
    with pytest.raises(ValueError):
        imse(np.zeros(3), np.zeros(4))


def test_timse_sums_all_curves():
    assert timse([]) == 0.0
    assert timse([0.1, 0.2]) == pytest.approx(0.3)
    # zero-truth curves are included, penalizing spurious nonzero estimates
    per_curve = [0.0, 0.0, 0.0, 0.0] + [0.05] * 3
    assert timse(per_curve) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        timse([-0.1])


def test_coverage_counting():
    truth = np.linspace(-1, 1, 50)
    assert coverage(truth - 1, truth + 1, truth) == 1.0
    assert coverage(truth + 0.5, truth + 0.6, truth) == 0.0
    lower = truth.copy()
    lower[:25] += 0.01
    assert coverage(lower, truth + 1, truth) == pytest.approx(0.5)


def test_stacked_curves_score_one_value_each():
    """A (curves, grid) stack scores each row, bit for bit as that row alone; one curve is a float."""
    rng = np.random.default_rng(6)
    truth = rng.normal(size=(3, 40))
    est = truth + rng.normal(scale=0.2, size=truth.shape)
    lower, upper = est - 0.2, est + 0.2
    per_curve = imse(est, truth)
    covered = coverage(lower, upper, truth)
    assert per_curve.shape == covered.shape == (3,)
    assert per_curve.tolist() == [imse(est[j], truth[j]) for j in range(3)]
    assert covered.tolist() == [coverage(lower[j], upper[j], truth[j]) for j in range(3)]
    assert type(imse(est[0], truth[0])) is float
    assert type(coverage(lower[0], upper[0], truth[0])) is float
    with pytest.raises(ValueError):
        imse(est, truth[:2])
    with pytest.raises(ValueError):
        coverage(lower, upper, truth[:, :3])


@given(st.floats(-5, 5), st.floats(0.1, 3))
def test_coverage_affine_invariance(shift, scale):
    rng = np.random.default_rng(4)
    truth = rng.normal(size=30)
    lower, upper = truth - rng.random(30), truth + rng.random(30)
    base = coverage(lower, upper, truth)
    transformed = coverage(
        scale * lower + shift, scale * upper + shift, scale * truth + shift
    )
    assert base == transformed


def test_mean_sd_cell_format():
    assert mean_sd_cell([0.2, 0.22, 0.21]) == "0.21(0.01)"
    assert mean_sd_cell([1.0]) == "1.00(0.00)"
