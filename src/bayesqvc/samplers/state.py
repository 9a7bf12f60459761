"""Mutable per-iteration sampler states and stored posterior draws."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import method_spec


@dataclass(kw_only=True)
class _ChainState:
    """The quantities every sampler's MCMC iteration carries.

    ``resid`` caches the full residual y - E beta - sum_j Z_j alpha_j; it is
    derived state, refreshed from scratch at the top of every sweep.
    """

    alpha: np.ndarray        # (p+1, d) spline coefficient blocks
    beta: np.ndarray         # (q,)
    pi0: float
    inclusion: np.ndarray    # (p,) bool, True iff alpha block j != 0
    resid: np.ndarray = field(default=None, repr=False)

    positive = ()  # names of a subclass's scales, which must stay strictly positive

    def validate(self) -> None:
        for name in self.positive:
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must stay strictly positive")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("pi0 must lie in [0, 1]")
        nonzero = np.any(self.alpha[1:] != 0.0, axis=1)
        if not np.array_equal(nonzero, self.inclusion):
            raise ValueError("inclusion flags inconsistent with alpha blocks")


@dataclass(kw_only=True)
class SamplerState(_ChainState):
    """All latent quantities of one quantile-model MCMC iteration."""

    u_tilde: np.ndarray      # (n,) exponential-mixture latents
    g: np.ndarray            # (p,) slab scales
    theta: float
    eta_sq: float

    positive = ("u_tilde", "g", "theta", "eta_sq")
    # Names the shared engine reads and writes.  The quantile slab is not
    # scaled by a noise variance, so its noise scale is an exact 1.0.
    noise_scale = 1.0
    slab = property(lambda self: self.g, lambda self, value: setattr(self, "g", value))
    shrink = property(lambda self: self.eta_sq, lambda self, value: setattr(self, "eta_sq", value))


@dataclass(kw_only=True)
class GaussianSamplerState(_ChainState):
    """All latent quantities of one Gaussian-model MCMC iteration."""

    sigma_sq: float
    zeta_sq: np.ndarray      # (p,) slab scales
    lambda_sq: float

    positive = ("sigma_sq", "zeta_sq", "lambda_sq")
    # Names the shared engine reads and writes.
    noise_scale = property(lambda self: self.sigma_sq)
    slab = property(lambda self: self.zeta_sq, lambda self, value: setattr(self, "zeta_sq", value))
    shrink = property(
        lambda self: self.lambda_sq, lambda self, value: setattr(self, "lambda_sq", value)
    )


@dataclass
class ChainSamples:
    """Post-burn-in draws of a single chain, in iteration order."""

    seed: int
    stream_id: int
    iterations: int
    burn_in: int
    thin: int
    alpha: np.ndarray            # (M, p+1, d)
    beta: np.ndarray             # (M, q)
    inclusion: np.ndarray        # (M, p) uint8
    scalars: dict[str, np.ndarray]   # theta/eta_sq/pi0 or sigma_sq/lambda_sq/pi0
    latents: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def stored(self) -> int:
        return self.alpha.shape[0]


@dataclass
class PosteriorSamples:
    """Seed-reproducible posterior draws from one or more chains."""

    method: str
    tau: float | None
    spline_degree: int
    interior_knots: int
    chains: list[ChainSamples]

    def __post_init__(self) -> None:
        self.spec  # rejects an unknown method name
        if not self.chains:
            raise ValueError("at least one chain required")

    @property
    def spec(self):
        """This method's row of the method table."""
        return method_spec(self.method)

    @property
    def is_spike(self) -> bool:
        return self.spec.spike

    @property
    def p(self) -> int:
        return self.chains[0].alpha.shape[1] - 1

    @property
    def d(self) -> int:
        return self.chains[0].alpha.shape[2]

    def pooled_alpha(self) -> np.ndarray:
        """Draws pooled across chains, shape (M_total, p+1, d)."""
        return np.concatenate([c.alpha for c in self.chains], axis=0)

    def pooled_inclusion(self) -> np.ndarray:
        return np.concatenate([c.inclusion for c in self.chains], axis=0)

    def pooled_beta(self) -> np.ndarray:
        return np.concatenate([c.beta for c in self.chains], axis=0)

    def pooled_scalar(self, name: str) -> np.ndarray:
        return np.concatenate([c.scalars[name] for c in self.chains], axis=0)
