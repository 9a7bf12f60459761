"""Fixed reference kernel that measures how fast the host runs right now.

The benchmark times this kernel next to every timed unit and divides the
unit's time by it, so a period in which a shared host runs every process
slower moves both and cancels out.  The kernel imitates the op mix of a
quantile Gibbs sweep at the paper shape (n=200, p=100, d=5): batched
weighted Gram matrices, batched Cholesky factors and inverses, then a
Python loop over the blocks with small matrix-vector products and scalar
draws.  It does not use bayesqvc, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

N, P, D = 200, 100, 5
SWEEPS = 60


def _kernel(sweeps: int) -> float:
    rng = np.random.default_rng(12345)
    blocks = rng.standard_normal((P + 1, N, D))
    alpha = np.zeros((P + 1, D))
    resid = rng.standard_normal(N)
    ridge = 0.5 * np.eye(D)[None, :, :]
    total = 0.0
    for _ in range(sweeps):
        weights = 1.0 / rng.wald(np.full(N, 1.5), 2.0)
        grams = np.einsum("jnd,n,jne->jde", blocks[1:], weights, blocks[1:], optimize=True)
        precisions = grams + ridge
        np.linalg.cholesky(precisions)
        cov = np.linalg.inv(precisions)
        cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
        chol = np.linalg.cholesky(cov)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        for j in range(1, P + 1):
            zj = blocks[j]
            partial = resid + zj @ alpha[j]
            b = zj.T @ (weights * partial)
            mu = cov[j - 1] @ b
            log_bf = 0.5 * float(logdet[j - 1]) + 0.5 * float(b @ mu) - 40.0
            if rng.random() < math.exp(-np.logaddexp(0.0, log_bf)):
                alpha[j] = 0.0
                resid = partial
            else:
                alpha[j] = mu + chol[j - 1] @ rng.standard_normal(D)
                resid = partial - zj @ alpha[j]
        resid = rng.standard_normal(N)
        total += float(np.abs(alpha).sum())
    return total


def reference_seconds(sweeps: int = SWEEPS) -> float:
    """Wall seconds of one pass of the kernel."""
    start = perf_counter()
    _kernel(sweeps)
    return perf_counter() - start
