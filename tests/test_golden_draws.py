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

Five hashes changed by design when two scale updates were collapsed.  theta
is now drawn with the latents u integrated out, Gamma(a + n, b + sum of the
check loss), and u right after it, given it; the spike sweep draws theta and
u before the blocks, and the plain sweep after the joint draw.  So all four
quantile hashes moved.  The shrinkage rate now reads the slab scales of the
included blocks only (the excluded ones are redrawn from their prior right
after it), which moved bvcss shape A.  A plain state includes every block,
so bvc kept both hashes; bvcss shape B has no blocks and kept its hash.

Six hashes changed by rounding only when the sweep stages were trimmed to
fewer array passes.  Two changes moved the last bits.  The spline predictor
became rowsum(B o ([1; X']' alpha)), one (n, p+1) @ (p+1, d) product with
alpha_0 as block 0; it serves the joint draw's target and the spike
residual refresh, so it moved both shape-A plain hashes and both shape-A
spike hashes.  theta's rate became one dot product, r . (tau - 1{r < 0}),
which moved all four quantile hashes.  The other trims (the slab scales
split on the inclusion flags, the in-place inverse-Gaussian, the joint
draw's in-place scaling and posterior update, the scans sharing B o (w r))
keep every bit.  The shape-B Gaussian fits have no blocks and draw no
theta, so bvcss and bvc kept their shape-B hashes.

Five hashes changed by design when the chain start began to set the
likelihood's precision to the mean of its full conditional given the
all-null coefficients: theta = (a + n) / (b + sum of the check loss of y)
and sigma_sq = (h + y'y/2) / (s + n/2), where both had started at 1.  The
plain samplers read that scale in their first joint draw, so bqrvc and bvc
moved on both shapes, and bvcss shape A moved from its first block stage on.
bvcss shape B moved too, but its chains, which have no blocks, coalesce
with the old ones bit for bit before the 20 burn-in sweeps end, so its hash
stayed.  The spike quantile sweep draws theta, with u integrated out,
before anything reads theta or u, so both bqrvcss hashes stayed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from bayesqvc import Dataset, McmcOptions, RngHandle, SplineConfig, fit
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.engine import draw_state_from_prior
from bayesqvc.samplers.variants import METHODS


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
        "a78e14f502db32fc57b771dedf231ae0f9826d3287b8fff49df71be9e5ad1165",
    ("bqrvc", "A"):
        "f4a1d0fe340e9cedf15e74fb75b7768ee09341266975e42c65fbf39496240872",
    ("bvcss", "A"):
        "dcfe40e203701513164d8fc696a75fd02f0cb8be6b2b3764b56c75c2198d632f",
    ("bvc", "A"):
        "adda1b3e6e44aa6b148222011c8fe25776d0510162ad83a84986ad85d11af43f",
    ("bqrvcss", "B"):
        "87d5e626142e9ef202336d975e48214c3e7e7eeb5219a22822bc35227985c295",
    ("bqrvc", "B"):
        "d68b8e1241786481cf33c7acfe70ef6f1097972bcee069522d07f2702722ae7d",
    ("bvcss", "B"):
        "5fd12662288a37250770e685b5e556a9f189ad55666129e2ec5481f49007fc72",
    ("bvc", "B"):
        "b90e73785a34b958b34be2455168c0caaff2363e094aa04c30e60d8767d4f4d3",
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


def _model(method: str, shape: str):
    """The model ``fit`` builds for ``method`` on ``shape``, with the golden test's settings."""
    spec = METHODS[method]
    if spec.needs_tau:
        return quantile.build_quantile_model(
            SHAPES[shape](), SplineConfig(2, 1), spec.prior(), tau=0.3, spike=spec.spike)
    return gaussian.build_gaussian_model(
        SHAPES[shape](), SplineConfig(2, 1), spec.prior(), spike=spec.spike)


def state_digest(states) -> str:
    """SHA-256 over every field of every state, in field order."""
    h = hashlib.sha256()
    for state in states:
        for item in dataclasses.fields(state):
            arr = np.ascontiguousarray(getattr(state, item.name))
            h.update(f"{item.name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


# draw_state_from_prior overwrites every field of the chain start it builds
# on, so a change to the start must leave these hashes unchanged: the Geweke
# test and the fixtures that draw states from the prior rely on its output.
PRIOR_GOLDEN = {
    "bqrvcss":
        "e2ca03192c6202d56908c6429ebc8afd3e0bb1e6087a5df3c154d7a2d72414a4",
    "bqrvc":
        "011f5cff4d63af586139782bf8517de4912ff543f9f94e62ec608366f9cdb56c",
    "bvcss":
        "4b43eabfe046dddea4f5eaf5f2136f5fd582a587c7a0374b825817f39b40e469",
    "bvc":
        "04245dd91e5aa8a111d162e155ab27b6f7da1f2c6e18f8f67ca3888455698710",
}


@pytest.mark.parametrize("method", sorted(PRIOR_GOLDEN))
def test_prior_draw_digest(method):
    model, rng = _model(method, "A"), RngHandle(23, 2)
    states = [draw_state_from_prior(model, rng) for _ in range(3)]
    assert state_digest(states) == PRIOR_GOLDEN[method]
