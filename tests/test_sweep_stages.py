"""The sweeps reach the stage names the traced benchmark wraps.

``bench/layers.py`` times a sweep by replacing module attributes with
wrappers: each name of its ``ENGINE_STAGES`` on the likelihood's module, and
``weighted_block_grams`` on the quantile module.  A stage the sweep reaches
some other way is not timed.  This wraps the same names with counters, runs
two sweeps of each method and checks the counts.  A plain sweep draws all
coefficients at once, so it calls neither the block, alpha_0, beta and pi0
stages nor the block grams; the benchmark's per-sweep division, which counts
sweeps by block-stage calls, sees no plain sweep.  Nor does a plain sweep
call ``refresh_residual``: the joint draw comes first and sets the residual
from its own solve.  It reads ``bench/`` and changes nothing there.
"""

import numpy as np
import pytest

from bayesqvc import Dataset, GaussianPriorConfig, PriorConfig, RngHandle, SplineConfig
from bayesqvc.samplers import gaussian, quantile
from bayesqvc.samplers.config import METHODS
from bayesqvc.samplers.engine import initial_state

from test_bench_names import _load

SWEEPS = 2
SPIKE_ONLY = {"update_alpha_blocks", "update_alpha0", "update_beta", "update_pi0",
              "weighted_block_grams", "refresh_residual"}


def _model(method: str):
    """n=8, p=3, q=1 model, so that every stage has work to do."""
    rng = np.random.default_rng(5)
    ds = Dataset(y=rng.normal(size=8), x=rng.normal(size=(8, 3)), v=rng.random(8),
                 e=rng.normal(size=(8, 1)))
    spec = METHODS[method]
    if spec.needs_tau:
        return quantile.build_quantile_model(ds, SplineConfig(1, 0), PriorConfig(), 0.3,
                                             spike=spec.spike)
    return gaussian.build_gaussian_model(ds, SplineConfig(1, 0), GaussianPriorConfig(),
                                         spike=spec.spike)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_sweeps_call_each_traced_stage_once(method, monkeypatch):
    spec = METHODS[method]
    module = quantile if spec.needs_tau else gaussian
    model = _model(method)
    traced = [(module, stage) for stage in _load("layers").ENGINE_STAGES[spec.likelihood]]
    traced.append((quantile, "weighted_block_grams"))
    calls = {}
    for owner, name in traced:
        key = f"{owner.__name__.rsplit('.', 1)[1]}.{name}"
        calls[key] = 0

        def counting(*args, _key=key, _original=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    state, rng = initial_state(model), RngHandle(8, 0)
    for _ in range(SWEEPS):
        model.sweep(state, rng)

    expected = {}
    for key in calls:
        owner, name = key.split(".")
        reached = owner == spec.likelihood and (spec.spike or name not in SPIKE_ONLY)
        expected[key] = SWEEPS if reached else 0
    assert calls == expected
