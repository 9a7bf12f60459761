"""The benchmark's ESS estimator against AR(1) chains of known ESS.

For a stationary AR(1) chain with coefficient rho the integrated
autocorrelation time is (1 + rho) / (1 - rho), so N draws carry
N (1 - rho) / (1 + rho) effective samples.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ess import autocovariance, bulk_ess, ess  # noqa: E402


def ar1(rng, chains: int, draws: int, rho: float) -> np.ndarray:
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains) / np.sqrt(1.0 - rho**2)
    noise = rng.standard_normal((chains, draws))
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_bulk_ess_matches_ar1(rho):
    rng = np.random.default_rng(12345)
    chains, draws = 4, 4000
    expected = chains * draws * (1.0 - rho) / (1.0 + rho)
    estimates = [bulk_ess(ar1(rng, chains, draws, rho)) for _ in range(8)]
    assert np.mean(estimates) == pytest.approx(expected, rel=0.08)


def test_ess_is_invariant_to_monotone_transforms_after_rank_normalization():
    rng = np.random.default_rng(7)
    x = ar1(rng, 2, 2000, 0.7)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_autocovariance_matches_direct_sum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(257)
    centred = x - x.mean()
    direct = [np.dot(centred[: x.size - k], centred[k:]) / x.size for k in range(x.size)]
    np.testing.assert_allclose(autocovariance(x), direct, atol=1e-12)


def test_constant_or_short_chains_have_no_ess():
    assert np.isnan(ess(np.ones((2, 100))))
    assert np.isnan(ess(np.zeros((1, 3))))
