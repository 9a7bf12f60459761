"""In-memory span recorder that wraps the public functions of bayesqvc modules.

A function is traced by replacing the module attribute its caller looks up,
so ``quantile.gibbs_sweep`` reaching ``update_alpha_blocks`` through its
module globals enters the wrapper.  Spans are (name, start, end, parent)
rows kept in a list; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        """Span around a call made by the benchmark itself."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unwrap_all`.

        ``count(args, kwargs)`` may return ``(counter_name, amount)`` to add
        per call, for quantities the span alone cannot show.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(args, kwargs)
                self.counters[key] += amount
            index = self._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def add_spans(self, rows: list[list], parent: int) -> None:
        """Append spans recorded in another process under the span ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux, so
        spans from a child process share the parent's time base.
        """
        base = len(self.spans)
        for name, start, end, up in rows:
            self.spans.append([name, start, end, parent if up < 0 else base + up])

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children of one span run one after another, so their
        intervals do not overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counters": dict(self.counters)}, fh, separators=(",", ":"))
