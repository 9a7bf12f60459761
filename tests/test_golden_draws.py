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
        "3a6bf329473edc17faad8d63c906f0d1a0afc0176b782101ed93299a729c30b3",
    ("bqrvc", "A"):
        "c1133e7644246081ebd5166bc54f907da01e3a98938c62124e60bd9a8c334205",
    ("bvcss", "A"):
        "3bb586bd97a5658596e0b03326f0959a65172ea9072cbf2cc9bfb49be825912e",
    ("bvc", "A"):
        "dd82b2a3a1c771c17e8c92dd77583b390899ef11d96f7744457bc91477bd8b73",
    ("bqrvcss", "B"):
        "8acd0fec4bea40ca002ce04ca51d8cb6030fec81de7e21cec1cc99b37971787d",
    ("bqrvc", "B"):
        "c13755edf7f7688a10cb04ea27f91602de5f24b2f5adf1a67abf424643d560a6",
    ("bvcss", "B"):
        "47186c9b5f61b8ef268065582cdb70d25ee34085db6471ab72a63694e8a5595d",
    ("bvc", "B"):
        "03fc8d229480668f8ef2379ddb8942f23d5069434e152b6182e858d388eed13c",
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
