"""Split-chain potential scale reduction factor for convergence assessment.

PSRF for m chains of length n:
    B = n * Var(chain means),  W = mean(within-chain variances),
    var_plus = (n-1)/n * W + B/n,  PSRF = sqrt(var_plus / W),
with sample variances using the n-1 divisor.  Values at or below the 1.1
cutoff count as converged.

The reports split every chain into halves first (split PSRF: Gelman et al.,
Bayesian Data Analysis, 3rd ed., 2013, section 11.4; Vehtari et al. 2021,
arXiv:1903.08008).  Plain PSRF assumes over-dispersed starts, but every
chain here starts from the same deterministic state, the null model with
the noise scale at its conditional mean (``samplers.engine.initial_state``),
so it misses a transient the chains share; the halves of such a chain
differ.  A single chain can be diagnosed too.
"""

from __future__ import annotations

import numpy as np

from .inference import selection
from .samplers.state import PosteriorSamples, block_draws

PSRF_CUTOFF = 1.1


def psrf(chains: np.ndarray) -> tuple[float, bool]:
    """PSRF of one parameter from an (m, n) array; returns (value, degenerate).

    All chains constant and equal gives (1.0, True); constant but unequal
    chains diverge, giving (inf, True).
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2:
        raise ValueError("chains must be an (m, n_iter) array")
    m, n = x.shape
    if m < 2 or n < 2:
        raise ValueError("need at least two chains of length two")
    means = x.mean(axis=1)
    b = n * np.var(means, ddof=1)
    w = float(np.mean(np.var(x, axis=1, ddof=1)))
    if w == 0.0:
        return (1.0, True) if b == 0.0 else (float("inf"), True)
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w)), False


def tracked_parameters(samples: PosteriorSamples) -> dict[str, np.ndarray]:
    """Default tracked set: spline coefficients of the varying intercept and
    of the selected blocks, plus the likelihood scale.

    Blocks are selected by :func:`inference.selection`, the rule the fit's
    summary reports.

    Returns name -> (m_chains, n_draws) arrays.  Tracking every block is
    possible but deliberately not the default for memory reasons.
    """
    _, selected, _ = selection(samples)
    blocks = [0, *selected]
    per_chain = np.stack([block_draws([c], blocks) for c in samples.chains])  # (m, k, n, d)
    draws = np.ascontiguousarray(per_chain.transpose(1, 3, 0, 2))  # (k, d, m, n)
    out: dict[str, np.ndarray] = {}
    for i, j in enumerate(blocks):
        for s in range(samples.d):
            out[f"alpha[{j},{s}]"] = draws[i, s]
    scale = samples.spec.scale
    out[scale] = np.stack([c.scalars[scale] for c in samples.chains])
    return out


def split_psrf(chains: np.ndarray) -> tuple[float, bool]:
    """:func:`psrf` of the (2m, n // 2) halves of an (m, n) array; an odd last draw is dropped."""
    x = np.asarray(chains, dtype=float)
    m, n = x.shape
    if n < 4:
        raise ValueError(f"split PSRF needs at least 4 draws per chain, got {n}")
    return psrf(x[:, : n - n % 2].reshape(2 * m, n // 2))


def psrf_report(tracked: dict[str, np.ndarray]) -> tuple[dict[str, float], dict[str, bool]]:
    """Split PSRF of each (m, n) array of a :func:`tracked_parameters` set: two dicts by
    name, of the values and of the degenerate flags of :func:`psrf`."""
    values, degenerate = {}, {}
    for name, arr in tracked.items():
        values[name], degenerate[name] = split_psrf(arr)
    return values, degenerate


def psrf_report_trace(
    tracked: dict[str, np.ndarray], checkpoints
) -> dict[str, list[tuple[int, float]]]:
    """Split PSRF of the first c draws per chain of each tracked array, for each checkpoint c."""
    n = min(arr.shape[1] for arr in tracked.values())
    for stop in checkpoints:
        if not 4 <= stop <= n:
            raise ValueError(f"checkpoint {stop} is outside the 4..{n} draws per chain "
                             "that split PSRF needs")
    return {name: [(int(stop), split_psrf(arr[:, :stop])[0]) for stop in checkpoints]
            for name, arr in tracked.items()}
