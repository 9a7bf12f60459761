"""Draw-level checks for the reproducible random streams."""

import numpy as np
import pytest
from scipy import stats

from bayesqvc.rng import (
    RngHandle,
    sample_bernoulli,
    sample_beta,
    sample_exponential,
    sample_gamma,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_mvn,
)

from oracles import assert_moments


def test_identical_handles_emit_identical_sequences():
    a = RngHandle(123, 7)
    b = RngHandle(123, 7)
    xa = np.concatenate(
        [sample_gamma(a, 2.0, 3.0, size=50), sample_inverse_gaussian(a, 1.0, 2.0, size=50)]
    )
    xb = np.concatenate(
        [sample_gamma(b, 2.0, 3.0, size=50), sample_inverse_gaussian(b, 1.0, 2.0, size=50)]
    )
    np.testing.assert_array_equal(xa, xb)


def test_distinct_streams_are_uncorrelated():
    n = 100_000
    x = RngHandle(5, 0).gen.standard_normal(n)
    y = RngHandle(5, 1).gen.standard_normal(n)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.01


def test_inverse_gaussian_moments():
    rng = RngHandle(2024, 0)
    draws = sample_inverse_gaussian(rng, 2.0, 5.0, size=1_000_000)
    assert_moments(draws, mean=2.0, nse=3.0, label="IG(2,5)")
    draws = sample_inverse_gaussian(rng, 1.0, 4.0, size=1_000_000)
    assert_moments(draws, mean=1.0, var=0.25, nse=3.0, label="IG(1,4)")


def test_inverse_gaussian_degenerate_limit():
    rng = RngHandle(3, 0)
    draws = sample_inverse_gaussian(rng, 1.0, 1e8, size=10_000)
    assert draws.std() < 1e-3
    assert abs(draws.mean() - 1.0) < 1e-3


@pytest.mark.parametrize("mean", [1e-3, 1.0, 1e4, 1e8, 1e10, 1e12])
def test_inverse_gaussian_matches_law_at_large_mean_over_shape(mean):
    # A residual of exactly zero gives the latent-u update a mean near 4e10.
    shape = 2.0
    draws = sample_inverse_gaussian(RngHandle(5, 0), mean, shape, size=100_000)
    assert np.all(draws > np.finfo(float).tiny)  # none sits at the positivity clamp
    law = stats.invgauss(mean / shape, scale=shape)
    assert stats.kstest(draws, law.cdf).pvalue > 0.01


def test_gamma_exponential_identity_and_moments():
    rng = RngHandle(11, 0)
    draws = sample_gamma(rng, 1.0, 3.0, size=1_000_000)
    assert_moments(draws, mean=1 / 3, nse=3.0, label="Gamma(1,3)")
    draws = sample_gamma(rng, 3.5, 2.0, size=1_000_000)
    assert_moments(draws, mean=1.75, var=3.5 / 4.0, nse=3.0, label="Gamma(3.5,2)")
    draws = sample_gamma(rng, 0.5, 0.5, size=1_000_000)
    assert_moments(draws, mean=1.0, var=2.0, nse=3.0, label="Gamma(.5,.5)")


def test_inverse_gamma_mean_and_reciprocal_identity():
    rng = RngHandle(12, 0)
    draws = sample_inverse_gamma(rng, 3.0, 2.0, size=1_000_000)
    assert_moments(draws, mean=1.0, nse=3.0, label="InvGamma(3,2)")
    draws = sample_inverse_gamma(rng, 2.0, 2.0, size=1_000_000)
    assert_moments(draws, mean=2.0, nse=4.0, label="InvGamma(2,2)")
    # reciprocal-of-Gamma definition: quantiles must agree
    g = sample_gamma(RngHandle(99, 0), 3.0, 2.0, size=200_000)
    ig = sample_inverse_gamma(RngHandle(99, 1), 3.0, 2.0, size=200_000)
    for q in (0.1, 0.5, 0.9):
        assert np.quantile(1.0 / g, q) == pytest.approx(np.quantile(ig, q), rel=0.02)


def test_beta_uniform_identity_and_moments():
    rng = RngHandle(13, 0)
    draws = sample_beta(rng, 1.0, 1.0, size=100_000)
    # Kolmogorov-Smirnov distance to Uniform(0,1)
    sorted_draws = np.sort(draws)
    grid = (np.arange(draws.size) + 1) / draws.size
    assert np.max(np.abs(sorted_draws - grid)) < 0.01
    assert_moments(sample_beta(rng, 8.0, 4.0, size=1_000_000), mean=2 / 3, nse=3.0)
    assert_moments(sample_beta(rng, 0.5, 0.5, size=1_000_000), mean=0.5, nse=3.0)


def test_bernoulli_and_exponential():
    rng = RngHandle(14, 0)
    assert np.all(sample_bernoulli(rng, 0.0, size=1000) == 0)
    assert np.all(sample_bernoulli(rng, 1.0, size=1000) == 1)
    assert_moments(sample_bernoulli(rng, 0.25, size=1_000_000), mean=0.25, nse=3.0)
    assert_moments(sample_exponential(rng, 2.0, size=1_000_000), mean=0.5, nse=3.0)


def test_mvn_moments_and_degenerate_covariance():
    rng = RngHandle(15, 0)
    mean = np.array([1.0, -2.0])
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    draws = np.array([sample_mvn(rng, mean, cov) for _ in range(100_000)])
    emp_corr = np.corrcoef(draws.T)[0, 1]
    assert abs(emp_corr - 0.5) < 3.0 * 1.0 / np.sqrt(draws.shape[0])
    assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
    near_zero = np.array([sample_mvn(rng, mean, 1e-16 * np.eye(2)) for _ in range(100)])
    assert np.max(np.abs(near_zero - mean)) < 1e-7


def test_mvn_marginals_normal_moments():
    rng = RngHandle(16, 0)
    draws = np.array([sample_mvn(rng, np.zeros(2), np.eye(2)) for _ in range(50_000)])
    flat = draws.ravel()
    skew = np.mean(flat**3)
    kurt = np.mean(flat**4)
    assert abs(skew) < 0.05
    assert abs(kurt - 3.0) < 0.1


def test_mvn_rejects_non_spd():
    rng = RngHandle(17, 0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        sample_mvn(rng, np.zeros(2), bad)


def test_parameter_validation():
    rng = RngHandle(18, 0)
    with pytest.raises(ValueError):
        sample_gamma(rng, -1.0, 1.0)
    with pytest.raises(ValueError):
        sample_gamma(rng, 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_inverse_gamma(rng, 1.0, -2.0)
    with pytest.raises(ValueError):
        sample_bernoulli(rng, 1.5)
