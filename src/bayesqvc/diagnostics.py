"""Gelman-Rubin potential scale reduction factor for convergence assessment.

PSRF for m chains of length n:
    B = n * Var(chain means),  W = mean(within-chain variances),
    var_plus = (n-1)/n * W + B/n,  PSRF = sqrt(var_plus / W),
with sample variances using the n-1 divisor.  Values at or below the 1.1
cutoff count as converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inference import selection
from .samplers.state import PosteriorSamples

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


def psrf_trace(chains: np.ndarray, checkpoints) -> list[tuple[int, float]]:
    """PSRF computed on the chain prefixes ending at each checkpoint."""
    x = np.asarray(chains, dtype=float)
    out = []
    for stop in checkpoints:
        if not 2 <= stop <= x.shape[1]:
            raise ValueError(f"checkpoint {stop} outside the chain length")
        value, _ = psrf(x[:, :stop])
        out.append((int(stop), value))
    return out


@dataclass
class PsrfReport:
    values: dict[str, float]
    degenerate: dict[str, bool]
    cutoff: float = PSRF_CUTOFF
    converged: bool = field(init=False)

    def __post_init__(self) -> None:
        self.converged = all(v <= self.cutoff for v in self.values.values())


def tracked_parameters(samples: PosteriorSamples) -> dict[str, np.ndarray]:
    """Default tracked set: spline coefficients of the varying intercept and
    of the selected blocks, plus the likelihood scale.

    Blocks are selected by :func:`inference.selection`, the rule the fit's
    summary reports.

    Returns name -> (m_chains, n_draws) arrays.  Tracking every block is
    possible but deliberately not the default for memory reasons.
    """
    _, selected, _ = selection(samples)
    out: dict[str, np.ndarray] = {}
    for j in [0, *selected]:
        for s in range(samples.d):
            out[f"alpha[{j},{s}]"] = np.stack([c.alpha[:, j, s] for c in samples.chains])
    scale = samples.spec.scale
    out[scale] = np.stack([c.scalars[scale] for c in samples.chains])
    return out


def split_chains(samples: PosteriorSamples) -> PosteriorSamples:
    """Halve each stored chain into two pseudo-chains (single-chain convenience)."""
    import copy

    new_chains = []
    for chain in samples.chains:
        m = chain.stored // 2
        for half in (slice(0, m), slice(m, 2 * m)):
            c = copy.copy(chain)
            c.alpha = chain.alpha[half]
            c.beta = chain.beta[half]
            c.inclusion = chain.inclusion[half]
            c.scalars = {k: v[half] for k, v in chain.scalars.items()}
            c.latents = {k: v[half] for k, v in chain.latents.items()}
            new_chains.append(c)
    out = copy.copy(samples)
    out.chains = new_chains
    return out


def _tracked_chains(samples: PosteriorSamples, split: bool) -> dict[str, np.ndarray]:
    """The tracked set of ``samples``, halved first if ``split``; at least two chains."""
    if split:
        samples = split_chains(samples)
    if len(samples.chains) < 2:
        raise ValueError(
            "PSRF needs at least two chains; rerun with chains >= 2 or use split mode"
        )
    return tracked_parameters(samples)


def psrf_report(samples: PosteriorSamples, split: bool = False) -> PsrfReport:
    """Multi-chain PSRF over the default tracked parameter set."""
    values, degenerate = {}, {}
    for name, arr in _tracked_chains(samples, split).items():
        values[name], degenerate[name] = psrf(arr)
    return PsrfReport(values=values, degenerate=degenerate)


def psrf_report_trace(
    samples: PosteriorSamples, checkpoints, split: bool = False
) -> dict[str, list[tuple[int, float]]]:
    """PSRF of each tracked parameter at each checkpoint (draws per chain)."""
    tracked = _tracked_chains(samples, split)
    return {name: psrf_trace(arr, checkpoints) for name, arr in tracked.items()}
