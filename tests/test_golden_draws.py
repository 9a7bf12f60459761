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
        "f5385edad43d5471005673e012b8f1bb07b5dca2cd116c9a46eb8abc738c22ef",
    ("bqrvc", "A"):
        "e9896c41b1ef78bfbc9c7ded926eab4470689b15f8d652dee84b8de01ba0fd3b",
    ("bvcss", "A"):
        "24f2b3e8c8195fe4ad8a20c62324ac2255357b6b20154ebfdb8752bdd71e6dd9",
    ("bvc", "A"):
        "f8dce9121b831154aef627a58f5a4a46c01fd073a0789e89b985a593f2719f1f",
    ("bqrvcss", "B"):
        "1e76584967a8f1adbde421437e96d76482c9fde1655adb7efbde67f01ac2faf3",
    ("bqrvc", "B"):
        "2182aab6e5c304d569ba3d6ad6db779245db4b9b5977b85d293c3d6a16012a5e",
    ("bvcss", "B"):
        "47186c9b5f61b8ef268065582cdb70d25ee34085db6471ab72a63694e8a5595d",
    ("bvc", "B"):
        "3d3db91ce306b1847f8907a1fb267ff08eb7ca35a39b7d52de27e9265a28e114",
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
