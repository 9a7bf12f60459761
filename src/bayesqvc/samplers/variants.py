"""The method table of the four samplers and the multi-chain driver.

Chains are independent tasks: chain k draws from the stream
(seed, stream_id=k), so results do not depend on scheduling and can be
reproduced chain by chain.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..basis import SplineConfig
from ..data import Dataset
from ..rng import RngHandle
from . import gaussian, quantile
from .config import GaussianPriorConfig, McmcOptions, PriorConfig
from .engine import run_chain
from .state import ChainSamples, PosteriorSamples


@dataclass(frozen=True)
class Method:
    """One sampler: a likelihood, with or without the point mass at zero."""

    likelihood: str  # "quantile" or "gaussian"
    spike: bool
    prior: type  # hyperparameter class of the likelihood
    scale: str  # stored name of the likelihood's scale parameter

    @property
    def needs_tau(self) -> bool:
        return self.likelihood == "quantile"


METHODS = {
    "bqrvcss": Method("quantile", True, PriorConfig, "theta"),  # the proposed sampler
    "bqrvc": Method("quantile", False, PriorConfig, "theta"),
    "bvcss": Method("gaussian", True, GaussianPriorConfig, "sigma_sq"),
    "bvc": Method("gaussian", False, GaussianPriorConfig, "sigma_sq"),
}


def method_spec(method: str) -> Method:
    """The table row of ``method``; ValueError for an unknown name."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]


def _run_one_chain(args) -> ChainSamples:
    model, opts, stream_id = args
    return run_chain(
        model, opts.iterations, opts.burn_in, opts.thin, RngHandle(opts.seed, stream_id),
        store_latents=opts.store_latents,
    )


def fit(
    dataset: Dataset,
    method: str,
    spline_config: SplineConfig | None = None,
    prior: PriorConfig | GaussianPriorConfig | None = None,
    tau: float | None = None,
    opts: McmcOptions | None = None,
    workers: int = 1,
) -> PosteriorSamples:
    """Run all requested chains of one method and merge the results.

    The model is built once and shared by every chain; ``workers`` > 1 runs
    chains in separate processes, each receiving a pickled copy, and with
    one worker the chains run sequentially in-process.  Either way chain k
    consumes the stream (seed, k), so the merged samples are identical.
    """
    spec = method_spec(method)
    spline_config = spline_config or SplineConfig()
    opts = opts or McmcOptions()
    prior = prior or spec.prior()
    if not spec.needs_tau:
        tau = None
    elif tau is None:
        raise ValueError("quantile methods require a quantile level tau")
    if spec.needs_tau:
        model = quantile.build_quantile_model(dataset, spline_config, prior, tau, spike=spec.spike)
    else:
        model = gaussian.build_gaussian_model(dataset, spline_config, prior, spike=spec.spike)
    jobs = [(model, opts, k) for k in range(opts.chains)]
    if workers > 1 and opts.chains > 1:
        with ProcessPoolExecutor(max_workers=min(workers, opts.chains)) as pool:
            chains = list(pool.map(_run_one_chain, jobs))
    else:
        chains = [_run_one_chain(job) for job in jobs]
    return PosteriorSamples(
        method=method,
        tau=tau,
        spline_degree=spline_config.degree,
        interior_knots=spline_config.interior_knots,
        chains=chains,
    )
