"""Bulk effective sample size (Vehtari et al. 2021, arXiv:1903.08008).

The draws are rank-normalized and every chain is split in half, then the
multi-chain ESS is computed from FFT autocovariances truncated by Geyer's
initial monotone sequence.  Only numpy and scipy are used.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) autocovariance of a 1-D series at lags 0..n-1."""
    x = np.asarray(x, dtype=float)
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x - x.mean(), size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (m, n) array, without rank normalization or splitting.

    Returns nan when the draws are constant or there are fewer than 4 per chain.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2:
        raise ValueError("chains must be an (m, n) array")
    m, n = x.shape
    if n < 4:
        return float("nan")
    acov = np.stack([autocovariance(chain) for chain in x])
    within = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(x.mean(axis=1), ddof=1))
    if var_plus <= 0.0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while they stay positive, and force the
    # pair sums to be non-increasing.
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    positive = pairs > 0.0
    stop = int(np.argmin(positive)) if not positive.all() else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(m * n))
    return m * n / tau


def split_chains(chains: np.ndarray) -> np.ndarray:
    """Halve every chain, dropping the middle draw of an odd length."""
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)


def rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks, ties averaged (Blom offset 3/8)."""
    x = np.asarray(chains, dtype=float)
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def bulk_ess(chains: np.ndarray) -> float:
    """Rank-normalized split-chain ESS of an (m, n) array of one parameter."""
    return ess(rank_normalize(split_chains(chains)))
