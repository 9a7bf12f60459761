"""Mutable per-iteration sampler states and stored posterior draws."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import method_spec


@dataclass(kw_only=True)
class _ChainState:
    """The quantities every sampler's MCMC iteration carries.

    ``resid`` caches the full residual y - E beta - sum_j Z_j alpha_j; it is
    derived state.  A spike sweep refreshes it from scratch at its start; a
    plain sweep sets it from the solve of its joint coefficient draw.
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
    """Post-burn-in draws of a single chain, in iteration order.

    The spline coefficients are stored sparsely: ``alpha0`` holds alpha_0 of
    every draw, and ``rows`` the coefficients of the included blocks 1..p,
    draw by draw and in block order within a draw, so row r belongs to the
    r-th nonzero of ``inclusion`` in C order.  An excluded block is exactly
    zero.  A plain sampler includes every block, so its rows hold them all.
    """

    seed: int
    stream_id: int
    iterations: int
    burn_in: int
    thin: int
    alpha0: np.ndarray           # (M, d)
    rows: np.ndarray             # (inclusion.sum(), d)
    beta: np.ndarray             # (M, q)
    inclusion: np.ndarray        # (M, p) uint8
    scalars: dict[str, np.ndarray]   # theta/eta_sq/pi0 or sigma_sq/lambda_sq/pi0
    latents: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def stored(self) -> int:
        return self.alpha0.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        """The dense (M, p+1, d) draws, built on each access; read-only."""
        dense = np.ascontiguousarray(
            block_draws([self], np.arange(self.inclusion.shape[1] + 1)).transpose(1, 0, 2))
        dense.flags.writeable = False
        return dense


def block_draws(chains: list[ChainSamples], blocks) -> np.ndarray:
    """(k, M, d) draws of the k distinct ``blocks`` (0 is alpha_0), the chains' M draws
    one after another; an excluded block's draws are +0.0.

    Each chain's rows of the requested blocks go into place in one scatter.
    """
    blocks = np.asarray(blocks, dtype=np.intp)
    p, d = chains[0].inclusion.shape[1], chains[0].alpha0.shape[1]
    slot = np.full(p + 1, -1, dtype=np.intp)  # output position of each block, -1 if not asked
    slot[blocks] = np.arange(blocks.size)
    out = np.zeros((blocks.size, sum(c.stored for c in chains), d))
    start = 0
    for chain in chains:
        draw, block = np.nonzero(chain.inclusion)
        at = slot[block + 1]
        keep = at >= 0
        out[at[keep], start + draw[keep]] = chain.rows[keep]
        out[blocks == 0, start : start + chain.stored] = chain.alpha0
        start += chain.stored
    return out


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
        return self.chains[0].inclusion.shape[1]

    @property
    def d(self) -> int:
        return self.chains[0].alpha0.shape[1]

    def pooled_inclusion(self) -> np.ndarray:
        return np.concatenate([c.inclusion for c in self.chains], axis=0)

    def pooled_beta(self) -> np.ndarray:
        return np.concatenate([c.beta for c in self.chains], axis=0)

    def pooled_scalar(self, name: str) -> np.ndarray:
        return np.concatenate([c.scalars[name] for c in self.chains], axis=0)
