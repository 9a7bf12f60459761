"""Posterior summaries: selection decisions, curve bands, scalar credible intervals.

A fit's curves are one :class:`CurveBands` of stacked (p+1, G) arrays, and its
selection is one rule, :func:`selection`.  All quantiles are empirical with
linear interpolation between order statistics (numpy default), and medians
of even-length samples use the midpoint convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import SplineConfig, basis_values, default_grid
from .samplers.state import PosteriorSamples

MPM_THRESHOLD = 0.5
# Bytes of curve draws one chunk of all_curve_estimates may hold, over both layouts.
CURVE_CHUNK_BYTES = 1 << 20


@dataclass
class InclusionSummary:
    """Posterior inclusion probabilities and the median-probability model."""

    probs: np.ndarray
    threshold: float = MPM_THRESHOLD
    selected: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise ValueError("inclusion probabilities must lie in [0, 1]")
        # "no less than" the threshold: ties select.
        self.selected = [j + 1 for j in range(self.probs.size) if self.probs[j] >= self.threshold]


class CurveBands(NamedTuple):
    """Pointwise posterior medians and equal-tailed bands of curves 0..p on one grid.

    ``grid`` is (G,); ``median``, ``lower`` and ``upper`` are (p+1, G), with
    the curve index as the leading axis.
    """

    grid: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def inclusion_probabilities(
    samples: PosteriorSamples, threshold: float = MPM_THRESHOLD
) -> InclusionSummary:
    """Fraction of stored draws with each block active, pooled across chains."""
    if not samples.is_spike:
        raise ValueError(
            f"method {samples.method!r} has no point mass at zero; "
            "use ci_selection for credible-interval identification"
        )
    probs = samples.pooled_inclusion().astype(float).mean(axis=0)
    return InclusionSummary(probs=probs, threshold=threshold)


def ci_selection(samples: PosteriorSamples, level: float = 0.95) -> list[int]:
    """Blocks whose equal-tailed CI excludes zero for at least one coefficient.

    Identification rule for the pure-shrinkage samplers, which never set a
    block exactly to zero.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    alpha = samples.pooled_alpha()
    tail = 100.0 * (1.0 - level) / 2.0
    lower = np.percentile(alpha, tail, axis=0)
    upper = np.percentile(alpha, 100.0 - tail, axis=0)
    excludes = (lower > 0.0) | (upper < 0.0)
    return [j for j in range(1, alpha.shape[1]) if bool(np.any(excludes[j]))]


def selection(samples: PosteriorSamples) -> tuple[str, list[int], np.ndarray | None]:
    """The selected blocks of a fit: (rule, selected blocks, inclusion probabilities).

    Spike methods select by the median-probability model ("mpm"); the others,
    whose blocks are never exactly zero, by :func:`ci_selection` ("ci95") and
    have no inclusion probabilities (None).
    """
    if samples.is_spike:
        inc = inclusion_probabilities(samples)
        return "mpm", inc.selected, inc.probs
    return "ci95", ci_selection(samples), None


def all_curve_estimates(
    samples: PosteriorSamples, grid: np.ndarray | None = None, level: float = 0.95
) -> CurveBands:
    """Pointwise median curves and equal-tailed bands of every block 0..p.

    A block whose stored coefficients are all zero (the samplers' spike is
    +0.0) has +0.0 curve draws, so its median and band are +0.0 without
    computing the draws.  The other blocks go through :func:`_block_bands`
    in chunks of at most ``CURVE_CHUNK_BYTES`` of draws.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    basis = basis_values(grid, SplineConfig(samples.spline_degree, samples.interior_knots))
    alpha = samples.pooled_alpha()
    m, p1, _ = alpha.shape
    bands = np.zeros((3, p1, grid.size))
    live = np.flatnonzero(np.any(alpha != 0.0, axis=(0, 2)))
    per_chunk = max(1, CURVE_CHUNK_BYTES // (2 * m * grid.size * alpha.itemsize))
    for start in range(0, live.size, per_chunk):
        idx = live[start : start + per_chunk]
        bands[:, idx] = _block_bands(alpha, idx, basis, level)
    median, lower, upper = bands
    if np.any(lower > median) or np.any(median > upper):
        raise ValueError("bands must bracket the median pointwise")
    return CurveBands(grid, median, lower, upper)


def _block_bands(alpha: np.ndarray, blocks, basis: np.ndarray, level: float):
    """Median, lower and upper band of the curve draws of ``blocks``, each (k, G).

    Each block's draws come from one (M, d) @ (d, G) product, the shape whose
    rounding the stored curves have always had; a (1, d) @ (d, G) product per
    draw rounds differently.  The draws are then laid out as (k, G, M) so each
    pointwise quantile reads one contiguous lane.  The product and that copy
    are the two arrays ``CURVE_CHUNK_BYTES`` bounds.
    """
    draws = alpha.transpose(1, 0, 2)[blocks] @ basis.T
    draws = np.ascontiguousarray(draws.transpose(0, 2, 1))
    # The quantiles are order statistics, so sorting first leaves them as they
    # are, and numpy's selection runs faster on sorted lanes than on raw ones.
    draws.sort(axis=-1)
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(draws, [tail, 100.0 - tail], axis=-1)
    return np.median(draws, axis=-1), lower, upper


def scalar_summary(draws: np.ndarray, level: float = 0.95) -> dict:
    draws = np.asarray(draws, dtype=float)
    tail = 100.0 * (1.0 - level) / 2.0
    return {
        "median": float(np.median(draws)),
        "lower": float(np.percentile(draws, tail)),
        "upper": float(np.percentile(draws, 100.0 - tail)),
    }


def posterior_scalar_summaries(samples: PosteriorSamples, level: float = 0.95) -> dict:
    """Medians and equal-tailed CIs for the scalar parameters and beta."""
    out = {}
    for name in samples.chains[0].scalars:
        out[name] = scalar_summary(samples.pooled_scalar(name), level=level)
    beta = samples.pooled_beta()
    out["beta"] = [scalar_summary(beta[:, k], level=level) for k in range(beta.shape[1])]
    return out
