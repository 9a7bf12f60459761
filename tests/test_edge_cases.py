"""Fits on edge-case data: extreme quantile levels, collinear or empty
covariate columns and responses with exact zeros.

Each fit runs with warnings as errors and must return finite draws.
"""

import warnings

import numpy as np
import pytest

from bayesqvc import Dataset, McmcOptions, fit
from bayesqvc.samplers.variants import METHODS
from bayesqvc.simulate import ScenarioSpec, simulate_dataset

OPTS = McmcOptions(iterations=200, burn_in=100, seed=5)


def _base() -> Dataset:
    dataset, _, _ = simulate_dataset(ScenarioSpec(n=60, p=8, seed=3))
    return dataset


def _duplicated_column(ds):
    x = ds.x.copy()
    x[:, 1] = x[:, 0]
    return Dataset(y=ds.y, x=x, v=ds.v)


def _zero_column(ds):
    x = ds.x.copy()
    x[:, 2] = 0.0
    return Dataset(y=ds.y, x=x, v=ds.v)


def _integer_y(ds):
    # Rounding leaves some residuals of exactly zero at the all-null start.
    y = np.round(ds.y)
    assert np.any(y == 0.0)
    return Dataset(y=y, x=ds.x, v=ds.v)


def _zero_y(ds):
    return Dataset(y=np.zeros(ds.n), x=ds.x, v=ds.v)


def _fit_finite(dataset, method, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = fit(dataset, method, tau=tau if METHODS[method].needs_tau else None,
                      opts=OPTS, workers=1)
    for chain in samples.chains:
        for draws in (chain.alpha, chain.beta, *chain.scalars.values()):
            assert np.isfinite(draws).all()


@pytest.mark.parametrize("method", ["bqrvcss", "bqrvc"])
@pytest.mark.parametrize("tau", [0.001, 0.999])
def test_extreme_quantile_levels(method, tau):
    _fit_finite(_base(), method, tau)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("make", [_duplicated_column, _zero_column, _integer_y, _zero_y])
def test_degenerate_data(method, make):
    _fit_finite(make(_base()), method, 0.5)
