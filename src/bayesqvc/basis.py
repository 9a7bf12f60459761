"""Normalized B-spline bases on [0, 1] and the basis matrix of a dataset.

Knots are uniform in the interior with clamped boundaries (each endpoint
repeated degree+1 times), the standard normalized construction.  Evaluation
at v = 1 takes the left limit so the final basis function equals one there
instead of producing a zero row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

DEFAULT_GRID_SIZE = 200


def default_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Equally spaced curve-evaluation grid on [0, 1]."""
    return np.linspace(0.0, 1.0, size)


@dataclass(frozen=True)
class SplineConfig:
    """Degree and interior-knot count; the basis has degree+interior_knots+1 functions."""

    degree: int = 2
    interior_knots: int = 2

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.interior_knots < 0:
            raise ValueError("interior_knots must be non-negative")

    @property
    def basis_count(self) -> int:
        return self.interior_knots + self.degree + 1


def knot_sequence(config: SplineConfig) -> np.ndarray:
    """Clamped knot vector: 0 and 1 repeated degree+1 times around uniform interior knots."""
    interior = np.arange(1, config.interior_knots + 1) / (config.interior_knots + 1)
    return np.concatenate(
        [
            np.zeros(config.degree + 1),
            interior,
            np.ones(config.degree + 1),
        ]
    )


def basis_values(v, config: SplineConfig) -> np.ndarray:
    """Evaluate all basis functions at the points ``v``; returns an (m, d) matrix.

    Cox-de Boor triangular recursion, vectorized over evaluation points.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    knots = knot_sequence(config)
    deg = config.degree
    d = config.basis_count

    # Index of the knot span containing each point; v = 1 is folded into the
    # last nonempty span (left-limit convention).
    span = np.searchsorted(knots, v, side="right") - 1
    span = np.clip(span, deg, d - 1)

    m = v.size
    tri = np.zeros((m, deg + 1))
    tri[:, 0] = 1.0
    left = np.zeros((m, deg + 1))
    right = np.zeros((m, deg + 1))
    for j in range(1, deg + 1):
        left[:, j] = v - knots[span + 1 - j]
        right[:, j] = knots[span + j] - v
        saved = np.zeros(m)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = tri[:, r] / denom
            tri[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        tri[:, j] = saved

    out = np.zeros((m, d))
    cols = span[:, None] + np.arange(-deg, 1)[None, :]
    out[np.arange(m)[:, None], cols] = tri
    return out


def expand_design(dataset: Dataset, config: SplineConfig) -> np.ndarray:
    """The (n, d) basis matrix B at the index values v of ``dataset``.

    Raises ValueError unless its entries lie in [0, 1] and its rows sum to
    one.  Spline block j of the design is Z_j = diag(x_j) B; the samplers
    read B and the covariates and never build the blocks.  The name and
    signature stay because the traced benchmark wraps this function and
    reads ``dataset.n``, ``dataset.p`` and ``config.basis_count`` from its
    arguments.
    """
    basis = basis_values(dataset.v, config)
    if np.any(basis < 0.0) or np.any(basis > 1.0):
        raise ValueError("basis entries must lie in [0, 1]")
    if np.any(np.abs(basis.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("basis rows must sum to one")
    return basis
