"""Core data container shared by the simulator, samplers, and CLI."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """One sample of size n.

    ``x`` holds the p high-dimensional predictors (the always-present
    varying intercept is implicit and corresponds to a column of ones).
    ``e`` holds the q clinical covariates as an (n, q) matrix; None is
    accepted and stored as the (n, 0) matrix of q = 0.
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
        if self.e is None:
            self.e = np.empty((self.y.size, 0))
        self.e = np.asarray(self.e, dtype=float)
        # NaN fails every comparison, so it would pass the range check on v.
        for name in ("y", "x", "v", "e"):
            if not np.all(np.isfinite(getattr(self, name))):
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
        if self.e.ndim != 2 or self.e.shape[0] != n:
            raise ValueError(f"e must be an (n, q) matrix with n={n}")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.e.shape[1]

    def checksum(self) -> str:
        """CRC-32 of the shapes and float64 bytes of v, E, X and y, as 8 hex digits.

        It names the data a fit or a truth file came from.  The dataset
        CSV's ``%.17g`` round trip is exact, so a fit of the written file
        reproduces the checksum of the simulated dataset.
        """
        crc = 0
        for name in ("v", "e", "x", "y"):
            values = np.ascontiguousarray(getattr(self, name))
            crc = zlib.crc32(f"{name}:{values.shape}".encode(), crc)
            crc = zlib.crc32(values, crc)
        return f"{crc:08x}"
