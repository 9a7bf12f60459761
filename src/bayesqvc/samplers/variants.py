"""The multi-chain fit of the four samplers and its process pool.

Chains are independent tasks: chain k draws from the stream
(seed, stream_id=k), so results do not depend on scheduling and can be
reproduced chain by chain.  :func:`map_in_order` runs such tasks on a
process pool; the replicate study uses it too.
"""

from __future__ import annotations

import os

from ..basis import SplineConfig
from ..data import Dataset
from . import gaussian, quantile
from .config import METHODS  # noqa: F401  (re-exported; callers import the table from here)
from .config import GaussianPriorConfig, McmcOptions, PriorConfig, method_spec
from .engine import run_chain
from .state import ChainSamples, PosteriorSamples


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_workers(workers: int | None, tasks: int) -> int:
    """Processes to run ``tasks`` independent tasks on.

    ``workers`` None means one per usable CPU; an integer >= 1 caps the
    count.  The result is at most ``tasks`` and at least 1, and 1 means the
    tasks run in this process.
    """
    if workers is None:
        workers = usable_cpus()
    elif isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer or null (auto), got {workers!r}")
    return max(1, min(workers, tasks))


def _pool_context():
    # Forked workers inherit the imported package; a spawned worker imports
    # the package and numpy again, about 0.4 s per worker on a 2-vCPU Xeon,
    # longer than a short chain or a study replicate.  The pool modules are
    # imported here and in map_in_order, so a one-worker process never loads them.
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def map_in_order(func, jobs: list, workers: int):
    """Yield ``func(job)`` for each job, in job order, on ``workers`` processes.

    With one worker the jobs run here, one after another.  Otherwise
    ``func`` and each job are pickled to a pool of ``workers`` processes,
    and results are yielded in job order as they come in.  If a job raises,
    the jobs not yet started are cancelled and the error is raised here.
    ``func`` must not start a pool of its own.
    """
    if workers <= 1:
        for job in jobs:
            yield func(job)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
        futures = [pool.submit(func, job) for job in jobs]
        try:
            for future in futures:
                yield future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_one_chain(args) -> ChainSamples:
    return run_chain(*args)


def fit(
    dataset: Dataset,
    method: str,
    spline_config: SplineConfig | None = None,
    prior: PriorConfig | GaussianPriorConfig | None = None,
    tau: float | None = None,
    opts: McmcOptions | None = None,
    workers: int | None = None,
) -> PosteriorSamples:
    """Run all requested chains of one method and merge the results.

    The model is built once and shared by every chain.  By default
    (``workers`` None) the chains run on one process per usable CPU, at most
    one per chain; an integer caps the process count, and 1 runs the chains
    one after another in this process.  Each worker process receives a
    pickled copy of the model.  Chain k always consumes the stream (seed, k),
    so the draws do not depend on ``workers``.

    With more than one worker, set ``OPENBLAS_NUM_THREADS=1`` (or the thread
    variable of numpy's BLAS) before numpy loads; this package sets no
    environment variable.  Each worker otherwise runs the default BLAS
    threads and they oversubscribe the cores in the plain samplers' n x n
    solve: on a 2-vCPU host, a 2-chain paper-shape bqrvc fit of 300 sweeps
    took 1.82 s with default threads and 0.49 s with one thread.
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
    chains = list(map_in_order(_run_one_chain, jobs, resolve_workers(workers, opts.chains)))
    return PosteriorSamples(
        method=method,
        tau=tau,
        spline_degree=spline_config.degree,
        interior_knots=spline_config.interior_knots,
        chains=chains,
    )
