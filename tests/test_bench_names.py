"""The traced benchmark wraps bayesqvc functions by module attribute name.

``bench/layers.py`` replaces each attribute it traces with a wrapper, so a
renamed or deleted name (such as a likelihood module's re-export of
``covariance_factors``) makes a traced benchmark run fail at start-up.  This
reads ``bench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_unwraps():
    layers, tracer = _load("layers"), _load("tracer").Tracer()
    layers.install(tracer)
    patched = [(owner, attr, getattr(owner, attr), original)
               for owner, attr, original in tracer._patches]
    assert patched
    assert all(wrapper is not original for _, _, wrapper, original in patched)
    tracer.unwrap_all()
    assert all(getattr(owner, attr) is original for owner, attr, _, original in patched)
