"""Span recording, self times and unwrapping of the benchmark's tracer."""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer  # noqa: E402


def make_module():
    mod = types.SimpleNamespace()

    def inner(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return mod.inner(seconds) + mod.inner(seconds)

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_excludes_children():
    mod = make_module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(0.01) == pytest.approx(0.02)
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["calls"] == 1
    outer = totals["outer"]
    assert outer["total_s"] == pytest.approx(outer["self_s"] + totals["inner"]["total_s"])
    assert 0.009 < outer["self_s"] < outer["total_s"]
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert tracer.spans[parents["inner"]][0] == "outer"


def test_unwrap_restores_the_original_functions():
    mod = make_module()
    original = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", count=lambda args, kwargs: ("sleeps", 1))
    mod.inner(0.0)
    tracer.unwrap_all()
    assert mod.inner is original
    mod.inner(0.0)
    assert tracer.counters["sleeps"] == 1
    assert len(tracer.spans) == 1


def test_spans_from_another_process_nest_under_a_parent():
    tracer = Tracer()
    with tracer.span("setup"):
        pass
    tracer.add_spans([["child", 1.0, 2.0, -1], ["grandchild", 1.2, 1.5, 0]], parent=0)
    assert [row[3] for row in tracer.spans] == [-1, 0, 1]
