"""Geweke's joint-distribution test of the composed Gibbs sweep.

The successive-conditional simulator (Geweke 2004, "Getting it right",
JASA 99:799) starts from a forward draw of the parameters and of y, then
alternates one full sweep given y with a fresh draw of y given the
parameters.  If the sweep leaves the posterior invariant, the parameter
draws of that chain have the prior as their stationary law, so their moments
must match those of independent forward draws from the prior.  Each
conditional has its own oracle test; this one checks the sweep they compose,
including the update order and the residual cache.

The priors are proper with shape 3 so that the compared moments exist
(InvGamma(1, 1) on sigma_sq has no mean).  Standard errors of the chain come
from batch means.
"""

import math

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, PriorConfig, RngHandle, SplineConfig
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.config import METHODS
from bayesqvc.samplers.engine import draw_response, draw_state_from_prior

METHOD_NAMES = ("bqrvcss", "bqrvc", "bvcss", "bvc")
Z_LIMIT = 4.0
BATCHES = 20


def _model(method: str):
    """n=6, p=2, q=1, d=2 model with proper priors; y is replaced by the test."""
    rng = np.random.default_rng(606)
    ds = Dataset(
        y=np.zeros(6), x=rng.normal(size=(6, 2)), v=rng.random(6), e=rng.normal(size=(6, 1))
    )
    spec = METHODS[method]
    cfg = SplineConfig(1, 0)
    if spec.needs_tau:
        prior = PriorConfig(a=3.0, b=3.0, c=3.0, m=3.0, e=2.0, f=2.0, prior_scale=1.0)
        return quantile.build_quantile_model(ds, cfg, prior, tau=0.3, spike=spec.spike)
    prior = GaussianPriorConfig(s=3.0, h=3.0, t=3.0, psi=3.0, a=2.0, b=2.0, prior_scale=1.0)
    return gaussian.build_gaussian_model(ds, cfg, prior, spike=spec.spike)


def _summaries(state, method: str) -> list[float]:
    """log scale, log shrinkage rate, pi0, active-block count, theta * mean(u), alpha_0[0],
    alpha_1[0], beta[0], alpha_0[0]^2 and beta[0]^2.

    The squares see a fixed-effect update whose conditional has the right
    mean but the wrong spread, such as one that leaves the term's own
    contribution out of its partial residual.  theta * mean(u) (prior mean 1,
    quantile methods only) sees the pairing of theta and the latents u: theta
    is drawn with u integrated out, so u must be drawn after it, given it.
    """
    spec = METHODS[method]
    out = [math.log(getattr(state, spec.scale)), math.log(state.shrink)]
    if spec.spike:
        out += [state.pi0, float(np.sum(state.inclusion))]
    if spec.needs_tau:
        out.append(state.theta * float(np.mean(state.u_tilde)))
    a0, b0 = state.alpha[0, 0], state.beta[0]
    return out + [a0, state.alpha[1, 0], b0, a0 * a0, b0 * b0]


def geweke_z_scores(method: str, iterations: int, seed: int) -> np.ndarray:
    """z-scores of successive-conditional vs forward (marginal-conditional) means."""
    model = _model(method)
    forward_rng = RngHandle(seed, 0)
    forward = np.array(
        [_summaries(draw_state_from_prior(model, forward_rng), method) for _ in range(iterations)]
    )

    rng = RngHandle(seed, 1)
    state = draw_state_from_prior(model, rng)
    chain = np.empty_like(forward)
    for it in range(iterations):
        model.y = draw_response(state, model, rng)
        model.sweep(state, rng)
        chain[it] = _summaries(state, method)

    batch_means = chain[: iterations // BATCHES * BATCHES].reshape(BATCHES, -1, chain.shape[1])
    var_chain = batch_means.mean(axis=1).var(axis=0, ddof=1) / BATCHES
    var_forward = forward.var(axis=0, ddof=1) / iterations
    return (chain.mean(axis=0) - forward.mean(axis=0)) / np.sqrt(var_chain + var_forward)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_geweke_composed_sweep(method):
    z = geweke_z_scores(method, iterations=2000, seed=11)
    assert np.all(np.abs(z) < Z_LIMIT), f"{method} z-scores {np.round(z, 2)}"


@pytest.mark.slow
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_geweke_composed_sweep_long(method):
    z = geweke_z_scores(method, iterations=8000, seed=12)
    assert np.all(np.abs(z) < Z_LIMIT), f"{method} z-scores {np.round(z, 2)}"
