"""Golden draws: the stored samples of every method, pinned by SHA-256.

Any change to the samplers' arithmetic or to the order of their RNG calls
changes these hashes, so a refactor that claims to keep the draws
bit-identical must leave this file untouched and passing.  The hashes were
taken with numpy 2.4.6 linked against OpenBLAS 0.3.31 (Python 3.11, x86-64);
another numpy or BLAS build may round differently and need new hashes.

The shape-A hashes changed by design with the structured block kernel: each
block-range update now draws one (k, d+1) normal array up front and decides
the spike by Phi(z), and the block algebra runs on the basis and covariates
instead of the block tensor.  Shape B has no spline blocks besides the
intercept, so its draws did not change.

Six hashes changed by design when the inverse-Gaussian sampler took its
smaller root in a cancellation-free form: every shape-A fit draws slab
scales from it and every quantile fit draws its latents from it.  Only the
Gaussian fits of shape B (bvcss, bvc) draw none and kept their hashes.

The four shape-A hashes changed by design when the spike decision stopped
using the normal CDF: each block row is now (k, d+2) normals, and the last
two give the Exp(1) variate E = (z^2 + z'^2) / 2 with the spike taken iff
-E < log P(spike).  The plain samplers draw the same rows.  Shape B has no
block rows, so its four hashes stayed.

The four shape-A hashes changed by design when the block stage began to
form L^-1 by forward substitution instead of a general inverse, to take the
spike decision as |L^-1 b|^2 below a threshold computed from E, and (for
the quantile fits) to run on the residual minus kappa1 u.  The decision law
is the same; only the last bits of the arithmetic moved.  Shape B has no
spline blocks, so its four hashes stayed.

The four plain-sampler hashes (bqrvc and bvc, both shapes) changed by
design when their sweep stopped running the block stage and the alpha_0 and
beta updates: it now draws all coefficients at once from their joint
conditional, from one standard-normal array per sweep.  The spike samplers'
four hashes stayed.

The two bvcss hashes (shapes A and B) changed by rounding only when the
engine began to form the alpha_0 and beta systems from the working
likelihood: the Gaussian gram is now (x * w)'x with w = 1/sigma_sq, where it
was x'x / sigma_sq.  The draws moved by at most about 5e-15 and every
inclusion flag stayed.  bvc draws its coefficients jointly and the quantile
fits already used this formula, so the other six hashes stayed.

The shape-A bqrvcss and bvcss hashes (and the bqrvcss golden output) changed
by rounding only when the block stage moved the working weights to the basis
side: the quantile grams became (x_j o x_j)' (w o vec(B_i B_i')) instead of
(w o x_j o x_j)' vec(B_i B_i'), the block right-hand sides read x_j against
B o (w r), and the residual refresh sums alpha_0 and the included blocks
only.  The bvcss draws moved by at most about 1.3e-14, and every inclusion
flag stayed over 1000 kept draws on three paper-shape datasets; the bqrvcss
chains part after a few sweeps, as any chain does under a last-bit change.
The plain samplers and shape B (no spline blocks) kept their hashes.

The four plain-sampler hashes (bqrvc and bvc, both shapes) changed by
design when the joint draw began to set the residual from its solve,
s + (delta + v) / sqrt(w), and to treat alpha_0 as block 0 with covariate
row 1, so that one (p+1, n) product serves the prior draw, M and the
posterior update.  For bvc that moved the last bits only.  The plain
quantile sweep also now draws the coefficients before the latents u: it no
longer refreshes the residual at sweep start, and u read after the joint
draw sees the residual of the current y, also when a caller replaces y
between sweeps (the Geweke test).  So the bqrvc chains differ from the
first sweep on, under the same target.  The spike samplers' four hashes
stayed.

The four spike-sampler hashes (bqrvcss and bvcss, both shapes) changed by
design when the alpha_0 and beta draws began to read the Cholesky factor of
their precision, P = L L', as L^-T (L^-1 b + z), in place of the lower
Cholesky factor of the inverted covariance.  Both are exact draws from the
same Gaussian and use the same normals, but they map z through different
square roots of the covariance, so the spike chains differ from their first
alpha_0 draw on.  The plain samplers draw all coefficients jointly and kept
their four hashes.
"""

import hashlib

import numpy as np
import pytest

from bayesqvc import Dataset, McmcOptions, SplineConfig, fit


def _shape_a() -> Dataset:
    """n=30, p=4, q=1; block 1 carries signal, so blocks cross spike and slab."""
    rng = np.random.default_rng(2024)
    n = 30
    v = rng.random(n)
    x = rng.normal(size=(n, 4))
    e = rng.normal(size=(n, 1))
    y = 1.0 + np.sin(2.0 * np.pi * v) + 1.5 * x[:, 0] + 0.5 * e[:, 0] + 0.3 * rng.normal(size=n)
    return Dataset(y=y, x=x, v=v, e=e)


def _shape_b() -> Dataset:
    """n=30, p=0, q=0: the varying intercept alone."""
    rng = np.random.default_rng(2025)
    n = 30
    v = rng.random(n)
    y = 2.0 * v + 0.5 * rng.normal(size=n)
    return Dataset(y=y, x=np.zeros((n, 0)), v=v)


SHAPES = {"A": _shape_a, "B": _shape_b}

GOLDEN = {
    ("bqrvcss", "A"):
        "b4805546f9b9080b505e7fee773de8d2ec3cbfb73a9e5164dd47612811fbf4fe",
    ("bqrvc", "A"):
        "6206caa0fb38920bc70e266afb9d5e1c38195bb0b6e69301343eee627b552a5a",
    ("bvcss", "A"):
        "82055f2fa1092e06585882fa1fa909e5e78bc528ebf6803e8bda5cb8b7a25d5f",
    ("bvc", "A"):
        "1999d2b03588ee0b83b1e9558210330f0d8c0b581bf2e96573ca1a361e9eec68",
    ("bqrvcss", "B"):
        "57555b85a0efc2060ec845fbbb5f8e7a608c0235d22683507986dca6c235333a",
    ("bqrvc", "B"):
        "4dca39f51cb547f0b47ee48eba78288065feb51a988d210af3435f9b80fda9c4",
    ("bvcss", "B"):
        "5fd12662288a37250770e685b5e556a9f189ad55666129e2ec5481f49007fc72",
    ("bvc", "B"):
        "e8793c822eee7c74f43e997c02a5c5366b86c16a6577927716218da9ca8588a4",
}


def draws_digest(samples) -> str:
    """SHA-256 over every stored array of every chain, in a fixed order."""
    h = hashlib.sha256()
    for chain in samples.chains:
        arrays = [("alpha", chain.alpha), ("beta", chain.beta), ("inclusion", chain.inclusion)]
        arrays += [(k, chain.scalars[k]) for k in sorted(chain.scalars)]
        arrays += [(k, chain.latents[k]) for k in sorted(chain.latents)]
        for name, arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("method, shape", sorted(GOLDEN))
def test_golden_draws(method, shape):
    opts = McmcOptions(iterations=60, burn_in=20, chains=2, seed=17, store_latents=True)
    tau = 0.3 if method in ("bqrvcss", "bqrvc") else None
    samples = fit(SHAPES[shape](), method, spline_config=SplineConfig(2, 1), tau=tau, opts=opts)
    assert draws_digest(samples) == GOLDEN[(method, shape)]
