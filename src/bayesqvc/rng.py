"""Seed-reproducible random variate generation for the Gibbs samplers.

Every chain owns one :class:`RngHandle`.  Handles are built on numpy's
counter-based Philox bit generator keyed by ``(seed, stream_id)``, so a
multi-chain run produces the same draws no matter how chains are scheduled.

Conventions used throughout the package:

* Gamma distributions are parameterized by (shape, rate), i.e. the density
  carries ``exp(-rate * x)``.
* Inverse-Gamma(shape, scale) is the law of ``1/G`` with
  ``G ~ Gamma(shape, rate=scale)``.
* Inverse-Gaussian(mean, shape) has density proportional to
  ``x**-1.5 * exp(-shape*(x-mean)**2 / (2*mean**2*x))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TINY = np.finfo(float).tiny


@dataclass
class RngHandle:
    """One reproducible random stream, owned by a single chain.

    Identical ``(seed, stream_id)`` pairs emit bit-identical sequences.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if not (0 <= self.stream_id < 2**64):
            raise ValueError("stream_id must fit in 64 unsigned bits")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))


def _require_positive(name: str, value) -> None:
    if isinstance(value, float):  # the per-sweep scalars; skips the array round trip
        if value <= 0.0:
            raise ValueError(f"{name} must be strictly positive")
    elif (np.asarray(value) <= 0.0).any():
        raise ValueError(f"{name} must be strictly positive")


def sample_exponential(rng: RngHandle, rate, size=None):
    """Exponential with the given rate (mean 1/rate)."""
    _require_positive("rate", rate)
    return rng.gen.exponential(1.0 / np.asarray(rate, dtype=float), size=size)


def sample_gamma(rng: RngHandle, shape, rate, size=None):
    """Gamma(shape, rate); mean shape/rate."""
    _require_positive("shape", shape)
    _require_positive("rate", rate)
    scale = 1.0 / rate if isinstance(rate, float) else 1.0 / np.asarray(rate, dtype=float)
    return rng.gen.gamma(shape, scale, size=size)


def sample_inverse_gamma(rng: RngHandle, shape, scale, size=None):
    """Inverse-Gamma(shape, scale): reciprocal of Gamma(shape, rate=scale)."""
    return 1.0 / sample_gamma(rng, shape, scale, size=size)


def sample_beta(rng: RngHandle, a, b, size=None):
    _require_positive("a", a)
    _require_positive("b", b)
    return rng.gen.beta(a, b, size=size)


def sample_bernoulli(rng: RngHandle, prob, size=None):
    """0/1 draw(s) with success probability ``prob``."""
    p = np.asarray(prob, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("prob must lie in [0, 1]")
    if size is None and p.ndim == 0:
        return int(rng.gen.random() < p)
    return (rng.gen.random(size=size if size is not None else p.shape) < p).astype(np.int64)


def sample_inverse_gaussian(rng: RngHandle, mean, shape, size=None):
    """Inverse-Gaussian(mean, shape) via the Michael-Schucany-Haas transform.

    One chi-square transform plus one uniform per draw; no rejection loop.
    Broadcasts over array-valued ``mean``/``shape``.  The smaller root is
    taken as mu / (1 + r + sqrt(r (r + 2))), r = mu y / (2 shape): the
    textbook form mu + mu^2 y / (2 shape) - ... cancels when mu y >> shape,
    and its draws then collapsed onto the positivity clamp.
    """
    mu = np.asarray(mean, dtype=float)
    # A float shape (the samplers' case) stays a Python float: its check and
    # its arithmetic then skip the 0-d array round trip, with the same values.
    if isinstance(shape, float):
        lam, lam_shape = shape, ()
    else:
        lam = np.asarray(shape, dtype=float)
        lam_shape = lam.shape
    _require_positive("mean", mu)
    _require_positive("shape", lam)
    out_shape = size
    if size is None:
        same = not lam_shape or lam_shape == mu.shape
        out_shape = mu.shape if same else np.broadcast_shapes(mu.shape, lam_shape)
    # Arrays are broadcast (and so checked) here; a scalar shape broadcasts in
    # the arithmetic below, which gives the same values elementwise.
    if mu.shape != out_shape:
        mu = np.broadcast_to(mu, out_shape)
    if lam_shape and lam_shape != out_shape:
        lam = np.broadcast_to(lam, out_shape)

    y = rng.gen.standard_normal(out_shape) ** 2
    # The roots of the quadratic in x implied by the IG density are mu / big
    # and mu * big; pick one with the MSH acceptance probability.
    r = mu * y / (2.0 * lam)
    big = 1.0 + r + np.sqrt(r * (r + 2.0))
    x = np.maximum(mu / big, _TINY)  # guards against underflow of a tiny mean
    u = rng.gen.random(out_shape)
    take_root = u <= mu / (mu + x)
    draws = np.where(take_root, x, mu * big)
    return float(draws) if out_shape == () and size is None else draws

