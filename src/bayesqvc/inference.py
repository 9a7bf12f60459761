"""Posterior summaries: selection decisions, curve bands, scalar credible intervals.

A fit's curves are one :class:`CurveBands` of stacked (p+1, G) arrays on the
:func:`basis.default_grid`, and its selection is one rule, :func:`selection`.
Every band and interval is equal-tailed at the 95% level, and a spike
method selects the blocks whose inclusion probability is at least 0.5 (the
median-probability model).  All quantiles are empirical with linear
interpolation between order statistics (Hyndman and Fan's type 7, numpy's
default), and medians of even-length samples use the midpoint convention.
The curve bands read these order statistics straight from sorted draws with
numpy's own arithmetic, so they equal ``np.median`` and ``np.percentile`` bit
for bit.  They assume finite draws, which every fit and every loaded samples
file holds: a NaN, which numpy's median would propagate, sorts last here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .basis import SplineConfig, basis_values, default_grid
from .samplers.state import PosteriorSamples, block_draws

MPM_THRESHOLD = 0.5
# Percentile of the lower end of a 95% band.  Computed, not written as 2.5: it
# is 2.500000000000002, and the stored bands and intervals have always used it.
TAIL = 100.0 * (1.0 - 0.95) / 2.0
# Bytes of curve draws one chunk of all_curve_estimates may hold, over both layouts.
CURVE_CHUNK_BYTES = 1 << 20


class CurveBands(NamedTuple):
    """Pointwise posterior medians and equal-tailed bands of curves 0..p on one grid.

    ``grid`` is (G,); ``median``, ``lower`` and ``upper`` are (p+1, G), with
    the curve index as the leading axis.
    """

    grid: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def inclusion_probabilities(samples: PosteriorSamples) -> np.ndarray:
    """Fraction of stored draws with each of blocks 1..p active, pooled across chains."""
    if not samples.is_spike:
        raise ValueError(
            f"method {samples.method!r} has no point mass at zero; "
            "use ci_selection for credible-interval identification"
        )
    return samples.pooled_inclusion().mean(axis=0, dtype=float)


def ci_selection(samples: PosteriorSamples) -> list[int]:
    """Blocks whose equal-tailed 95% CI excludes zero for at least one coefficient.

    Identification rule for the pure-shrinkage samplers, which never set a
    block exactly to zero.
    """
    alpha = block_draws(samples.chains, np.arange(samples.p + 1)).transpose(1, 0, 2)
    lower = np.percentile(alpha, TAIL, axis=0)
    upper = np.percentile(alpha, 100.0 - TAIL, axis=0)
    excludes = (lower > 0.0) | (upper < 0.0)
    return [j for j in range(1, alpha.shape[1]) if bool(np.any(excludes[j]))]


def selection(samples: PosteriorSamples) -> tuple[str, list[int], np.ndarray | None]:
    """The selected blocks of a fit: (rule, selected blocks, inclusion probabilities).

    Spike methods select by the median-probability model ("mpm"): the blocks
    whose inclusion probability is no less than ``MPM_THRESHOLD``, so ties
    select.  The others, whose blocks are never exactly zero, select by
    :func:`ci_selection` ("ci95") and have no inclusion probabilities (None).
    """
    if samples.is_spike:
        probs = inclusion_probabilities(samples)
        return "mpm", [j + 1 for j, prob in enumerate(probs) if prob >= MPM_THRESHOLD], probs
    return "ci95", ci_selection(samples), None


def all_curve_estimates(samples: PosteriorSamples) -> CurveBands:
    """Pointwise median curves and equal-tailed 95% bands of every block 0..p on the default grid.

    A block that no stored draw includes is all +0.0 (the samplers' spike),
    and so are its curve draws, so its median and band are +0.0 without
    computing the draws; so is alpha_0 if all its draws are zero.  The other
    blocks go through :func:`_block_bands` in chunks of at most
    ``CURVE_CHUNK_BYTES`` of draws.
    """
    grid = default_grid()
    basis = basis_values(grid, SplineConfig(samples.spline_degree, samples.interior_knots))
    m = sum(c.stored for c in samples.chains)
    bands = np.zeros((3, samples.p + 1, grid.size))
    intercept = any(np.any(c.alpha0 != 0.0) for c in samples.chains)
    live = np.flatnonzero(np.concatenate(([intercept], samples.pooled_inclusion().any(axis=0))))
    per_chunk = max(1, CURVE_CHUNK_BYTES // (2 * m * grid.size * 8))
    for start in range(0, live.size, per_chunk):
        idx = live[start : start + per_chunk]
        bands[:, idx] = _block_bands(block_draws(samples.chains, idx), basis)
    median, lower, upper = bands
    if np.any(lower > median) or np.any(median > upper):
        raise ValueError("bands must bracket the median pointwise")
    return CurveBands(grid, median, lower, upper)


def _block_bands(coef: np.ndarray, basis: np.ndarray):
    """Median, lower and upper band, each (k, G), of the curves of k blocks' draws ``coef``.

    Each block's draws come from one (M, d) @ (d, G) product, the shape whose
    rounding the stored curves have always had; a (1, d) @ (d, G) product per
    draw rounds differently.  The draws are then laid out as (k, G, M) and each
    lane is sorted, so every pointwise quantile is read off its lane by index
    (:func:`_sorted_median`, :func:`_sorted_percentile`).  The product and that
    copy are the two arrays ``CURVE_CHUNK_BYTES`` bounds.
    """
    draws = coef @ basis.T
    draws = np.ascontiguousarray(draws.transpose(0, 2, 1))
    draws.sort(axis=-1)
    return (_sorted_median(draws), _sorted_percentile(draws, TAIL),
            _sorted_percentile(draws, 100.0 - TAIL))


def _sorted_median(lanes: np.ndarray) -> np.ndarray:
    """``np.median(lanes, axis=-1)`` of lanes sorted along the last axis.

    numpy takes the mean of the middle one or two draws, and its sum starts
    from +0.0, so a -0.0 median comes out +0.0; the ``+ 0.0`` keeps that.
    """
    half = lanes.shape[-1] // 2
    if lanes.shape[-1] % 2:
        return lanes[..., half] + 0.0
    return (lanes[..., half - 1] + lanes[..., half] + 0.0) / 2


def _sorted_percentile(lanes: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(lanes, q, axis=-1)`` of lanes sorted along the last axis.

    The type-7 virtual index (M - 1) q / 100 falls between the order
    statistics a and b, and numpy's lerp weighs them from the nearer end.
    """
    m = lanes.shape[-1]
    index = (m - 1) * (q / 100)
    if index >= m - 1:  # only at M = 1; numpy then reads the last draw as -1
        below = above = -1
    else:
        below = math.floor(index)
        above = below + 1
    weight = index - below
    a, b = lanes[..., below], lanes[..., above]
    if weight >= 0.5:
        return b - (b - a) * (1 - weight)
    return a + (b - a) * weight


def scalar_summary(draws: np.ndarray) -> dict:
    draws = np.asarray(draws, dtype=float)
    return {
        "median": float(np.median(draws)),
        "lower": float(np.percentile(draws, TAIL)),
        "upper": float(np.percentile(draws, 100.0 - TAIL)),
    }


def posterior_scalar_summaries(samples: PosteriorSamples) -> dict:
    """Medians and equal-tailed 95% CIs for the scalar parameters and beta."""
    out = {}
    for name in samples.chains[0].scalars:
        out[name] = scalar_summary(samples.pooled_scalar(name))
    beta = samples.pooled_beta()
    out["beta"] = [scalar_summary(beta[:, k]) for k in range(beta.shape[1])]
    return out
