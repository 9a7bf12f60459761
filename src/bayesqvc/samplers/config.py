"""Priors, MCMC run configuration and the method table of the four Gibbs samplers."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

DEFAULT_PRIOR_SCALE = 100.0


@dataclass(kw_only=True)
class _PriorBase:
    """Hyperparameters of both likelihoods; every field must be positive and finite, and so
    must 1 / prior_scale.

    prior_scale: the normal priors of the varying intercept alpha_0 and the
    clinical coefficients beta are N(0, prior_scale * I).
    """

    prior_scale: float = DEFAULT_PRIOR_SCALE

    def __post_init__(self) -> None:
        for name in (fld.name for fld in fields(self)):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"prior hyperparameter {name} must be positive and finite, "
                                 f"got {value!r}")
        # The fixed-effect systems add I / prior_scale to a precision.
        if not math.isfinite(1.0 / self.prior_scale):
            raise ValueError("prior hyperparameter prior_scale must have a finite reciprocal, "
                             f"got {self.prior_scale!r}")


@dataclass
class PriorConfig(_PriorBase):
    """Hyperparameters for the quantile samplers.

    a, b: Gamma prior on the inverse scale theta.
    c, m: Gamma prior on the squared shrinkage rate eta_sq.
    e, f: Beta prior on the spike weight pi0 (spike-and-slab variant only).
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    m: float = 1.0
    e: float = 1.0
    f: float = 1.0

    shrink_prior = property(lambda self: (self.c, self.m))  # read by the shared engine
    pi0_prior = property(lambda self: (self.e, self.f))


@dataclass
class GaussianPriorConfig(_PriorBase):
    """Hyperparameters for the Gaussian-likelihood samplers.

    s, h: Inverse-Gamma prior on the noise variance sigma_sq.
    t, psi: Gamma prior on the squared shrinkage rate lambda_sq.
    a, b: Beta prior on the spike weight pi0 (spike-and-slab variant only);
    unrelated to the a, b of :class:`PriorConfig`, which parameterize theta.
    """

    s: float = 1.0
    h: float = 1.0
    t: float = 1.0
    psi: float = 1.0
    a: float = 1.0
    b: float = 1.0

    shrink_prior = property(lambda self: (self.t, self.psi))  # read by the shared engine
    pi0_prior = property(lambda self: (self.a, self.b))


@dataclass
class McmcOptions:
    """Chain length bookkeeping; stored draw count is (iterations - burn_in) // thin, at least 1."""

    iterations: int = 10_000
    burn_in: int = 5_000
    thin: int = 1
    chains: int = 1
    seed: int = 0
    store_latents: bool = False

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.stored < 1:
            raise ValueError(f"iterations - burn_in must be at least thin, so that a chain "
                             f"stores a draw; got iterations={self.iterations}, "
                             f"burn_in={self.burn_in}, thin={self.thin}")

    @property
    def stored(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class Method:
    """One sampler: a likelihood, with or without the point mass at zero."""

    likelihood: str  # "quantile" or "gaussian"
    spike: bool
    prior: type  # hyperparameter class of the likelihood
    scale: str  # stored name of the likelihood's scale parameter

    @property
    def needs_tau(self) -> bool:
        return self.likelihood == "quantile"


METHODS = {
    "bqrvcss": Method("quantile", True, PriorConfig, "theta"),  # the proposed sampler
    "bqrvc": Method("quantile", False, PriorConfig, "theta"),
    "bvcss": Method("gaussian", True, GaussianPriorConfig, "sigma_sq"),
    "bvc": Method("gaussian", False, GaussianPriorConfig, "sigma_sq"),
}


def method_spec(method: str) -> Method:
    """The table row of ``method``; ValueError for an unknown name."""
    if not isinstance(method, str) or method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]
