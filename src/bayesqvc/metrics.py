"""Selection and estimation accuracy metrics for the simulation study."""

from __future__ import annotations

import numpy as np


def classify_fit(selected, truth) -> str:
    """'C' on exact match, 'U' if any true index is missed, 'O' otherwise."""
    selected = set(selected)
    truth = set(truth)
    if selected == truth:
        return "C"
    if truth - selected:
        return "U"
    return "O"


def _per_curve(values):
    """A float for one curve, else the (...) array of per-curve values."""
    return float(values) if values.ndim == 0 else values


def imse(est_curve, true_curve):
    """Mean squared pointwise error over the evaluation grid, the last axis.

    A float for one curve; for (..., grid) stacks of curves, one value per curve.
    """
    est = np.asarray(est_curve, dtype=float)
    tru = np.asarray(true_curve, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("curves must be evaluated on the same grid")
    return _per_curve(np.mean((est - tru) ** 2, axis=-1))


def timse(per_curve_imse) -> float:
    """Total IMSE: the sum over all coefficient curves, zero-truth ones included."""
    values = np.asarray(list(per_curve_imse), dtype=float)
    if np.any(values < 0.0):
        raise ValueError("IMSE values cannot be negative")
    return float(np.sum(values))


def coverage(lower, upper, true_curve):
    """Fraction of grid points, the last axis, whose band contains the truth.

    A float for one curve; for (..., grid) stacks of curves, one value per curve.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    tru = np.asarray(true_curve, dtype=float)
    if not lower.shape == upper.shape == tru.shape:
        raise ValueError("bands and truth must share the grid")
    return _per_curve(np.mean((lower <= tru) & (tru <= upper), axis=-1))


def mean_sd_cell(values, digits: int = 2) -> str:
    """Table-cell formatting: mean with the replicate SD in parentheses."""
    values = np.asarray(list(values), dtype=float)
    mean = np.mean(values)
    sd = np.std(values, ddof=1) if values.size > 1 else 0.0
    return f"{mean:.{digits}f}({sd:.{digits}f})"
