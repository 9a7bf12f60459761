"""Quantile-regression primitives: check loss and the asymmetric Laplace law.

The asymmetric Laplace density with inverse scale ``theta`` at quantile
level ``tau`` is ``tau*(1-tau)*theta * exp(-theta * check_loss(eps, tau))``.
Its normal-mixture form (exponential latent times a scaled normal) is what
makes the quantile Gibbs samplers conjugate; the two mixture constants are
collected in :class:`AldConstants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def validate_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    return tau


@dataclass(frozen=True)
class AldConstants:
    """Mixture constants kappa1 = (1-2*tau)/(tau*(1-tau)), kappa2^2 = 2/(tau*(1-tau))."""

    tau: float
    kappa1: float
    kappa2_sq: float

    @property
    def kappa2(self) -> float:
        return math.sqrt(self.kappa2_sq)


def ald_constants(tau: float) -> AldConstants:
    tau = validate_tau(tau)
    denom = tau * (1.0 - tau)
    kappa1, kappa2_sq = (1.0 - 2.0 * tau) / denom, 2.0 / denom
    if not (math.isfinite(kappa1 * kappa1) and math.isfinite(kappa2_sq)):
        raise ValueError(f"tau = {tau!r} is too close to 0 or 1: its ALD constants kappa1^2 = "
                         f"{kappa1 * kappa1!r} and kappa2^2 = {kappa2_sq!r} must be finite")
    return AldConstants(tau=tau, kappa1=kappa1, kappa2_sq=kappa2_sq)


def check_loss(residual, tau: float):
    """rho_tau(eps) = eps * (tau - 1{eps < 0}); zero iff eps == 0."""
    tau = validate_tau(tau)
    eps = np.asarray(residual, dtype=float)
    out = eps * (tau - (eps < 0.0))
    return float(out) if out.ndim == 0 else out


def ald_log_density(residual, theta: float, tau: float):
    """Log density of the asymmetric Laplace with inverse scale theta.

    Kept in log space: the joint working likelihood multiplies n of these
    and underflows in linear space for moderate theta.
    """
    tau = validate_tau(tau)
    theta = float(theta)
    if theta <= 0.0:
        raise ValueError("theta must be strictly positive")
    out = math.log(tau * (1.0 - tau) * theta) - theta * check_loss(residual, tau)
    return out


def ald_cdf(residual, theta: float, tau: float):
    """Exact CDF of the asymmetric Laplace (location 0, inverse scale theta)."""
    tau = validate_tau(tau)
    if theta <= 0.0:
        raise ValueError("theta must be strictly positive")
    eps = np.asarray(residual, dtype=float)
    upper = 1.0 - (1.0 - tau) * np.exp(-theta * tau * eps)
    lower = tau * np.exp(theta * (1.0 - tau) * eps)
    out = np.where(eps >= 0.0, upper, lower)
    return float(out) if out.ndim == 0 else out
