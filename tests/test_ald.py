"""Check loss and asymmetric Laplace primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, stats

from bayesqvc.ald import ald_constants, ald_log_density, check_loss
from bayesqvc.rng import RngHandle, sample_exponential
from oracles import ald_cdf


def test_check_loss_values():
    assert check_loss(2.0, 0.3) == pytest.approx(0.6)
    assert check_loss(-2.0, 0.3) == pytest.approx(1.4)
    for tau in (0.1, 0.5, 0.9):
        assert check_loss(0.0, tau) == 0.0


@given(st.floats(-50, 50), st.floats(0.01, 0.99))
def test_check_loss_slopes(eps, tau):
    # piecewise linear with slope tau on the right, tau - 1 on the left
    expected = tau * eps if eps >= 0 else (tau - 1.0) * eps
    assert check_loss(eps, tau) == pytest.approx(expected, abs=1e-12)
    assert check_loss(eps, tau) >= 0.0


@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 1), st.floats(0.05, 0.95)
)
def test_check_loss_convexity(x, y, lam, tau):
    mid = lam * x + (1 - lam) * y
    assert check_loss(mid, tau) <= lam * check_loss(x, tau) + (1 - lam) * check_loss(
        y, tau
    ) + 1e-9


def test_ald_constants():
    c = ald_constants(0.5)
    assert c.kappa1 == 0.0
    assert c.kappa2_sq == pytest.approx(8.0)
    c3 = ald_constants(0.3)
    assert c3.kappa1 == pytest.approx((1 - 0.6) / 0.21)
    assert c3.kappa2_sq == pytest.approx(2 / 0.21)
    c7 = ald_constants(0.7)
    assert c7.kappa1 == pytest.approx(-c3.kappa1)
    assert c7.kappa2_sq == pytest.approx(c3.kappa2_sq)


def test_ald_constants_reject_a_tau_whose_squares_overflow():
    c = ald_constants(1e-154)
    assert math.isfinite(c.kappa1**2) and math.isfinite(c.kappa2_sq)
    for tau in (1e-155, 5e-324):
        with pytest.raises(ValueError, match=f"tau = {tau!r} is too close to 0 or 1"):
            ald_constants(tau)


@given(st.floats(0.01, 0.99))
def test_u_update_constant_identity(tau):
    # the ratio feeding the latent-u draw must be free of theta
    c = ald_constants(tau)
    assert (c.kappa1**2 + 2 * c.kappa2_sq) / c.kappa2_sq == pytest.approx(
        c.kappa1**2 / c.kappa2_sq + 2.0
    )


def test_ald_log_density_basics():
    assert ald_log_density(0.0, 1.0, 0.5) == pytest.approx(math.log(0.25))
    with pytest.raises(ValueError):
        ald_log_density(0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        ald_log_density(0.0, 1.0, 1.5)


def test_ald_density_integrates_to_one():
    theta, tau = 2.0, 0.3
    total, _ = integrate.quad(
        lambda e: math.exp(ald_log_density(e, theta, tau)), -np.inf, np.inf
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_ald_quantile_at_zero():
    # the tau-quantile of the centered ALD is 0: invert the CDF numerically
    for theta, tau in ((2.0, 0.3), (1.0, 0.5), (0.7, 0.8)):
        def cdf(x):
            val, _ = integrate.quad(
                lambda e: math.exp(ald_log_density(e, theta, tau)), -np.inf, x
            )
            return val

        root = optimize.brentq(lambda x: cdf(x) - tau, -50, 50, xtol=1e-10)
        assert abs(root) < 1e-8
        assert ald_cdf(0.0, theta, tau) == pytest.approx(tau)


def test_mixture_representation_matches_ald():
    # kappa1*u + kappa2*sqrt(u/theta)*W with u ~ Exp(theta) has the ALD law
    theta, tau = 1.7, 0.35
    c = ald_constants(tau)
    rng = RngHandle(404, 0)
    n = 100_000
    u = sample_exponential(rng, theta, size=n)
    w = rng.gen.standard_normal(n)
    eps = c.kappa1 * u + math.sqrt(c.kappa2_sq) * np.sqrt(u / theta) * w
    ks = stats.kstest(eps, lambda x: ald_cdf(x, theta, tau))
    assert ks.statistic < 0.01
