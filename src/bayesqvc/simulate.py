"""Simulation scenarios: correlated covariates, smooth truth, centered errors.

Four scenario families: {gene expression, SNP} x {i.i.d., heteroscedastic}
errors, each under five error laws and any quantile level.  Every draw
routes through one RngHandle, so a stored spec plus seed regenerates the
dataset bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from .data import Dataset
from .rng import RngHandle

TRUE_SUPPORT = (1, 2, 3)

# Reserved stream for data generation, disjoint from the chain streams
# (chain k samples from stream k), so simulated noise and sampler
# innovations never share a generator state.
DATA_STREAM_ID = 1 << 32

ERROR_KINDS = ("normal", "normal_mixture", "laplace", "lognormal", "t2")
COVARIATE_KINDS = ("gene", "snp")

AR1_CORRELATION = 0.5
MIXTURE_WEIGHT = 0.8          # 80% narrow component, 20% wide
MIXTURE_WIDE_VARIANCE = 3.0   # wide-component "3" read as a variance by default


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to regenerate one simulated dataset."""

    n: int = 200
    p: int = 100
    covariate_kind: str = "gene"
    error_kind: str = "normal"
    heteroscedastic: bool = False
    tau: float = 0.5
    seed: int = 0
    hard_intercept: bool = False        # gamma_0*(v) = 2 + 2 sin(6 pi v)
    mixture_sd_or_var: str = "var"      # wide mixture component: "3" as variance or SD

    def __post_init__(self) -> None:
        if self.n <= 0 or self.p <= 0:
            raise ValueError("n and p must be positive")
        if self.covariate_kind not in COVARIATE_KINDS:
            raise ValueError(f"covariate_kind must be one of {COVARIATE_KINDS}")
        if self.error_kind not in ERROR_KINDS:
            raise ValueError(f"error_kind must be one of {ERROR_KINDS}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.mixture_sd_or_var not in ("sd", "var"):
            raise ValueError("mixture_sd_or_var must be 'sd' or 'var'")
        if self.heteroscedastic and self.p < 2:
            raise ValueError("heteroscedastic errors need at least two predictors")


def _gamma0(v):
    return 2.0 + 2.0 * np.sin(2.0 * np.pi * np.asarray(v, dtype=float))


def _gamma0_hard(v):
    return 2.0 + 2.0 * np.sin(6.0 * np.pi * np.asarray(v, dtype=float))


def _gamma1(v):
    return 2.0 * np.exp(2.0 * np.asarray(v, dtype=float) - 1.0)


def _gamma2(v):
    v = np.asarray(v, dtype=float)
    return -6.0 * v * (1.0 - v)


def _gamma3(v):
    return -4.0 * np.asarray(v, dtype=float) ** 3


@dataclass(frozen=True)
class TrueCurves:
    """The data-generating coefficient curves; curves beyond index 3 are zero."""

    hard_intercept: bool = False
    curves: tuple[Callable, ...] = field(init=False)

    def __post_init__(self) -> None:
        intercept = _gamma0_hard if self.hard_intercept else _gamma0
        object.__setattr__(self, "curves", (intercept, _gamma1, _gamma2, _gamma3))

    def evaluate(self, j: int, v):
        if j < 0:
            raise IndexError("curve index must be non-negative")
        v = _unit_points(v)
        if j < len(self.curves):
            return self.curves[j](v)
        return np.zeros_like(v)

    def table(self, count: int, grid) -> np.ndarray:
        """Curves 0..count-1 on a 1-D ``grid``, one row each: the (count, G) truth."""
        grid = _unit_points(grid)
        out = np.zeros((count, grid.size))
        for j, curve in enumerate(self.curves[:count]):
            out[j] = curve(grid)
        return out


def _unit_points(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("curves are defined on [0, 1]")
    return v


def generate_gene_covariates(rng: RngHandle, n: int, p: int) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma) with the AR-1 covariance Sigma_jk = 0.5^|j-k|.

    Built by the stationary AR(1) recursion across columns, which realizes
    that covariance exactly with unit marginal variances.
    """
    rho = AR1_CORRELATION
    z = rng.gen.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - rho**2)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    return x


def dichotomize_snp(gene_matrix: np.ndarray) -> np.ndarray:
    """Per-column 3-level coding at the quartiles: <Q1 -> 0, >Q3 -> 2, else 1.

    Quartiles use linear interpolation between order statistics (numpy's
    default), and boundary ties fall in the middle class.
    """
    x = np.asarray(gene_matrix, dtype=float)
    q1 = np.quantile(x, 0.25, axis=0)
    q3 = np.quantile(x, 0.75, axis=0)
    out = np.ones_like(x)
    out[x < q1] = 0.0
    out[x > q3] = 2.0
    return out


def _bisect_quantile(cdf: Callable[[float], float], tau: float) -> float:
    """An x in [-60, 60] with cdf(x) = tau: bisection to an exact hit or to adjacent floats."""
    lo, hi = -60.0, 60.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        value = cdf(mid)
        if value == tau:
            return mid
        if value < tau:
            lo = mid
        else:
            hi = mid


def _mixture_wide_sd(mixture_sd_or_var: str) -> float:
    """SD of the wide mixture component, its "3" read as a variance ("var") or an SD."""
    if mixture_sd_or_var == "var":
        return math.sqrt(MIXTURE_WIDE_VARIANCE)
    return MIXTURE_WIDE_VARIANCE


def error_quantile(error_kind: str, tau: float, mixture_sd_or_var: str = "var") -> float:
    """tau-quantile of the uncentered base error law."""
    if error_kind == "normal":
        return NormalDist().inv_cdf(tau)
    if error_kind == "normal_mixture":
        narrow, wide = NormalDist(), NormalDist(0.0, _mixture_wide_sd(mixture_sd_or_var))

        def cdf(x):
            return MIXTURE_WEIGHT * narrow.cdf(x) + (1.0 - MIXTURE_WEIGHT) * wide.cdf(x)

        return _bisect_quantile(cdf, tau)
    if error_kind == "laplace":
        return math.log(2.0 * tau) if tau < 0.5 else -math.log(2.0 * (1.0 - tau))
    if error_kind == "lognormal":
        return math.exp(NormalDist().inv_cdf(tau))
    if error_kind == "t2":
        # Closed form for 2 degrees of freedom.
        return (2.0 * tau - 1.0) / math.sqrt(2.0 * tau * (1.0 - tau))
    raise ValueError(f"unknown error kind {error_kind!r}")


def centered_error_sample(
    rng: RngHandle,
    error_kind: str,
    tau: float,
    n: int,
    mixture_sd_or_var: str = "var",
) -> np.ndarray:
    """n error draws whose population tau-quantile is exactly zero."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    gen = rng.gen
    if error_kind == "normal":
        draws = gen.standard_normal(n)
    elif error_kind == "normal_mixture":
        wide = gen.random(n) >= MIXTURE_WEIGHT
        draws = gen.standard_normal(n)
        draws[wide] *= _mixture_wide_sd(mixture_sd_or_var)
    elif error_kind == "laplace":
        draws = gen.laplace(0.0, 1.0, size=n)
    elif error_kind == "lognormal":
        draws = gen.lognormal(0.0, 1.0, size=n)
    elif error_kind == "t2":
        draws = gen.standard_t(2, size=n)
    else:
        raise ValueError(f"unknown error kind {error_kind!r}")
    return draws - error_quantile(error_kind, tau, mixture_sd_or_var)


def generate_response(
    x: np.ndarray,
    v: np.ndarray,
    curves: TrueCurves,
    errors: np.ndarray,
    heteroscedastic: bool = False,
) -> np.ndarray:
    """y_i = sum_j gamma_j(v_i) x_ij + noise, with x_0 the implicit intercept.

    Heteroscedastic scenarios scale the error by (1 + x_i2), the second
    predictor.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n, p = x.shape
    y = np.asarray(curves.evaluate(0, v), dtype=float).copy()
    for j in range(1, min(p, 3) + 1):
        y += curves.evaluate(j, v) * x[:, j - 1]
    noise = np.asarray(errors, dtype=float)
    if heteroscedastic:
        if p < 2:
            raise ValueError("heteroscedastic errors need at least two predictors")
        noise = (1.0 + x[:, 1]) * noise
    return y + noise


def simulate_dataset(spec: ScenarioSpec):
    """Dataset plus the generating curves and the true support {1, 2, 3}."""
    rng = RngHandle(spec.seed, DATA_STREAM_ID)
    v = rng.gen.random(spec.n)
    x = generate_gene_covariates(rng, spec.n, spec.p)
    if spec.covariate_kind == "snp":
        x = dichotomize_snp(x)
    errors = centered_error_sample(
        rng, spec.error_kind, spec.tau, spec.n, spec.mixture_sd_or_var
    )
    curves = TrueCurves(hard_intercept=spec.hard_intercept)
    y = generate_response(x, v, curves, errors, heteroscedastic=spec.heteroscedastic)
    dataset = Dataset(y=y, x=x, v=v, e=None)
    return dataset, curves, set(TRUE_SUPPORT)
