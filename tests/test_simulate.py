"""Scenario generator: covariate laws, error centering, regeneration."""

import math

import numpy as np
import pytest
from scipy import stats

from bayesqvc.rng import RngHandle
from bayesqvc.simulate import (
    ScenarioSpec,
    TrueCurves,
    centered_error_sample,
    dichotomize_snp,
    error_quantile,
    generate_gene_covariates,
    generate_response,
    simulate_dataset,
)


def test_gene_covariates_ar1_structure():
    rng = RngHandle(21, 0)
    x = generate_gene_covariates(rng, 10_000, 6)
    emp = np.cov(x.T)
    se = 3.0 / math.sqrt(10_000)
    assert np.all(np.abs(np.diag(emp) - 1.0) < 4 * se)
    lag1 = [emp[j, j + 1] for j in range(5)]
    assert np.all(np.abs(np.array(lag1) - 0.5) < 4 * se)
    assert abs(emp[0, 3] - 0.125) < 4 * se


def test_dichotomize_quartile_rule():
    col = np.array([[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(dichotomize_snp(col).ravel(), [0, 1, 1, 2])
    const = np.full((5, 1), 3.3)
    np.testing.assert_array_equal(dichotomize_snp(const).ravel(), np.ones(5))


def test_dichotomize_proportions():
    rng = RngHandle(22, 0)
    x = generate_gene_covariates(rng, 10_000, 3)
    snp = dichotomize_snp(x)
    assert set(np.unique(snp)) <= {0.0, 1.0, 2.0}
    props = [(snp == k).mean(axis=0) for k in (0.0, 1.0, 2.0)]
    np.testing.assert_allclose(props[0], 0.25, atol=0.02)
    np.testing.assert_allclose(props[1], 0.50, atol=0.02)
    np.testing.assert_allclose(props[2], 0.25, atol=0.02)


def test_true_curves_values():
    curves = TrueCurves()
    assert curves.evaluate(0, 0.0) == pytest.approx(2.0)
    assert curves.evaluate(1, 0.5) == pytest.approx(2.0)
    assert curves.evaluate(2, 0.5) == pytest.approx(-1.5)
    assert curves.evaluate(3, 1.0) == pytest.approx(-4.0)
    assert curves.evaluate(7, 0.3) == 0.0
    hard = TrueCurves(hard_intercept=True)
    assert hard.evaluate(0, 0.25) == pytest.approx(2.0 + 2.0 * math.sin(6 * math.pi * 0.25))


def test_error_quantiles_analytic():
    assert error_quantile("normal", 0.5) == 0.0
    assert error_quantile("laplace", 0.3) == pytest.approx(math.log(0.6))
    assert error_quantile("t2", 0.5) == 0.0
    # t(2) closed form vs scipy
    for tau in (0.3, 0.7, 0.9):
        assert error_quantile("t2", tau) == pytest.approx(stats.t.ppf(tau, df=2), rel=1e-9)
    # mixture CDF at its own quantile returns tau
    for tau in (0.3, 0.5, 0.7):
        q = error_quantile("normal_mixture", tau)
        cdf = 0.8 * stats.norm.cdf(q) + 0.2 * stats.norm.cdf(q / math.sqrt(3.0))
        assert cdf == pytest.approx(tau, abs=1e-12)
    assert error_quantile("lognormal", 0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["normal", "normal_mixture", "laplace", "lognormal", "t2"])
@pytest.mark.parametrize("tau", [0.3, 0.5, 0.7])
def test_centered_errors_have_zero_tau_quantile(kind, tau):
    rng = RngHandle(33, 0)
    n = 1_000_000
    draws = centered_error_sample(rng, kind, tau, n)
    emp_q = np.quantile(draws, tau)
    # SE of a sample quantile: sqrt(tau(1-tau)/n) / f(q); estimate f near 0
    window = 0.02 * draws.std() if kind != "t2" else 0.05
    f_hat = np.mean(np.abs(draws) < window) / (2 * window)
    se = math.sqrt(tau * (1 - tau) / n) / max(f_hat, 1e-6)
    assert abs(emp_q) < 4 * se + 1e-4


def test_mixture_sd_reading_changes_scale():
    rng = RngHandle(5, 0)
    var_draws = centered_error_sample(rng, "normal_mixture", 0.5, 200_000, "var")
    rng2 = RngHandle(5, 0)
    sd_draws = centered_error_sample(rng2, "normal_mixture", 0.5, 200_000, "sd")
    assert sd_draws.std() > var_draws.std()


def test_generate_response_structure():
    v = np.linspace(0, 1, 50)
    curves = TrueCurves()
    x = np.zeros((50, 0))
    y = generate_response(x, v, curves, np.zeros(50))
    np.testing.assert_allclose(y, curves.evaluate(0, v))

    rng = RngHandle(9, 0)
    x = rng.gen.standard_normal((50, 4))
    eps = rng.gen.standard_normal(50)
    hom = generate_response(x, v, curves, eps, heteroscedastic=False)
    het = generate_response(x, v, curves, eps, heteroscedastic=True)
    np.testing.assert_allclose(het - hom, x[:, 1] * eps, atol=1e-12)

    # dense re-evaluation oracle
    manual = curves.evaluate(0, v) + sum(
        curves.evaluate(j, v) * x[:, j - 1] for j in range(1, 4)
    )
    np.testing.assert_allclose(hom, manual + eps, atol=1e-12)


def test_simulate_dataset_contract():
    spec = ScenarioSpec(n=60, p=7, seed=5, covariate_kind="snp", error_kind="laplace")
    ds, curves, support = simulate_dataset(spec)
    assert support == {1, 2, 3}
    assert ds.n == 60 and ds.p == 7 and ds.q == 0
    assert set(np.unique(ds.x)) <= {0.0, 1.0, 2.0}
    ds2, _, _ = simulate_dataset(spec)
    np.testing.assert_array_equal(ds.y, ds2.y)
    np.testing.assert_array_equal(ds.x, ds2.x)
    np.testing.assert_array_equal(ds.v, ds2.v)


def test_simulate_hard_intercept_override():
    spec = ScenarioSpec(n=30, p=4, seed=5, hard_intercept=True)
    _, curves, _ = simulate_dataset(spec)
    v = np.array([0.25])
    assert curves.evaluate(0, v)[0] == pytest.approx(2 + 2 * math.sin(6 * math.pi * 0.25))


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(n=0)
    with pytest.raises(ValueError):
        ScenarioSpec(error_kind="cauchy")
    with pytest.raises(ValueError):
        ScenarioSpec(tau=1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(mixture_sd_or_var="variance")
    with pytest.raises(ValueError, match="at least two predictors"):
        ScenarioSpec(p=1, heteroscedastic=True)
