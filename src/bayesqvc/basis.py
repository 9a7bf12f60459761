"""Normalized B-spline bases on [0, 1] and grouped design expansion.

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


def evaluate_basis(v: float, config: SplineConfig) -> np.ndarray:
    """Basis vector at a single point; non-negative entries summing to one."""
    return basis_values([float(v)], config)[0]


@dataclass
class BasisMatrix:
    """Basis rows for the observed index values."""

    config: SplineConfig
    values: np.ndarray

    def validate(self) -> None:
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("basis entries must lie in [0, 1]")
        if np.any(np.abs(self.values.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("basis rows must sum to one")


def basis_matrix(v: np.ndarray, config: SplineConfig) -> BasisMatrix:
    bm = BasisMatrix(config=config, values=basis_values(v, config))
    bm.validate()
    return bm


@dataclass
class ExpandedDesign:
    """Per-predictor spline blocks: block j has rows basis(V_i) * X_ij.

    Block 0 is the varying intercept (X_i0 = 1), i.e. the basis matrix itself.
    Only the n x d basis and the n x p covariates are stored; ``blocks``
    builds the (p+1, n, d) tensor on demand.
    """

    basis: BasisMatrix
    x: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        b = self.basis.values
        return np.concatenate([b[None], b[None] * self.x.T[:, :, None]])

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.basis.values.shape[1]


def expand_design(dataset: Dataset, config: SplineConfig) -> ExpandedDesign:
    """Deterministic expansion of the raw design into p+1 grouped spline blocks."""
    if dataset.x.shape[0] != dataset.v.shape[0]:
        raise ValueError("x and v must have the same number of rows")
    bm = basis_matrix(dataset.v, config)
    return ExpandedDesign(basis=bm, x=np.array(dataset.x, dtype=float))
