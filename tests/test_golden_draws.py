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
        "80c4dd4a5c78e27cdb51f189aded3fd4c83d619d4c478607e08fc774dd49592f",
    ("bqrvc", "A"):
        "9f5046e5a8fd069de6cff7072805f19501060ccdc8b52dfe72e87522178a9e94",
    ("bvcss", "A"):
        "171fd67284d3011c56add1e86c3c6c18b8d9c7501c8e92b41e2bd7a802f73ed8",
    ("bvc", "A"):
        "426372273f15d8de2841a472a8ce5e9c3a0585353e3efb904f2ebc211eea8b0e",
    ("bqrvcss", "B"):
        "1e76584967a8f1adbde421437e96d76482c9fde1655adb7efbde67f01ac2faf3",
    ("bqrvc", "B"):
        "a8774da6749d8cfe142a1d44ccfd362ae398466d462b91914245cba52a98b5d5",
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
