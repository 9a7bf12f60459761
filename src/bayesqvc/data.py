"""Core data container shared by the simulator, samplers, and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    """One sample of size n.

    ``x`` holds the p high-dimensional predictors (the always-present
    varying intercept is implicit and corresponds to a column of ones).
    ``e`` holds the q clinical covariates, or None when q = 0.
    ``v`` is the index variable, constrained to [0, 1].
    """

    y: np.ndarray
    x: np.ndarray
    v: np.ndarray
    e: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.e is not None:
            self.e = np.asarray(self.e, dtype=float)
        # NaN fails every comparison, so it would pass the range check on v.
        for name in ("y", "x", "v", "e"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains NaN or infinite values")
        if self.y.ndim != 1:
            raise ValueError("y must be a vector")
        n = self.y.size
        if self.x.ndim != 2 or self.x.shape[0] != n:
            raise ValueError(f"x must be an (n, p) matrix with n={n}")
        if self.v.shape != (n,):
            raise ValueError("v must align with y")
        if np.any(self.v < 0.0) or np.any(self.v > 1.0):
            raise ValueError("index variable v must lie in [0, 1]")
        if self.e is not None:
            if self.e.ndim != 2 or self.e.shape[0] != n:
                raise ValueError("e must be an (n, q) matrix")
            if self.e.shape[1] == 0:
                self.e = None

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return 0 if self.e is None else self.e.shape[1]
