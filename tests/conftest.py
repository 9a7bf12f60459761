import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bayesqvc import Dataset, PriorConfig, RngHandle, SplineConfig
from bayesqvc.samplers import quantile
from bayesqvc.samplers.engine import draw_state_from_prior


@pytest.fixture
def tiny_dataset():
    """n=4, p=2 fixture with a clinical covariate block, fixed numbers."""
    rng = np.random.default_rng(1234)
    x = rng.normal(size=(4, 2))
    v = np.array([0.1, 0.4, 0.6, 0.9])
    e = rng.normal(size=(4, 2))
    y = rng.normal(size=4)
    return Dataset(y=y, x=x, v=v, e=e)


@pytest.fixture
def tiny_model(tiny_dataset):
    return quantile.build_quantile_model(
        tiny_dataset, SplineConfig(1, 0), PriorConfig(), tau=0.3, spike=True
    )


@pytest.fixture
def tiny_state(tiny_model):
    rng = RngHandle(77, 5)
    state = draw_state_from_prior(tiny_model, rng)
    return state
