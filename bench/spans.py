"""In-memory span recorder for the traced pass.

The benchmark measures every layer from outside, so spans are opened by
``bench/`` code around calls into a layer's public functions — either
explicitly (``with rec.span(...)``) or by temporarily wrapping a bound
method on one *instance* (``rec.wrapping(model.dycore, "step", ...)``),
which leaves the class and every other instance untouched.  Spans stay
in memory and are written once, as Chrome trace-event JSON, when the run
ends.

``span`` keeps one open-span stack and is meant for the benchmark's own
(main) thread; work that ran on other threads is recorded after the fact
with ``add`` from timestamps the layer exposes (``ForecastJob``'s
``submitted_at``/``started_at``/``finished_at``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index into SpanRecorder.spans
    sample: str | None     # spans of one sample/request share this id
    tid: int = 0


class NullRecorder:
    """What untraced rounds pass: records nothing, wraps nothing."""

    def span(self, name, sample=None):
        return nullcontext()

    def wrapping(self, obj, attr, name):
        return nullcontext()

    def add(self, *args, **kwargs):
        return None


OFF = NullRecorder()


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, sample: str | None = None):
        parent = self._open[-1] if self._open else None
        if sample is None and parent is not None:
            sample = self.spans[parent].sample
        sp = Span(name, time.perf_counter(), 0.0, parent, sample)
        idx = len(self.spans)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield idx
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def add(self, name, start, end, parent=None, sample=None, tid=0) -> int:
        """Record a span from timestamps taken elsewhere."""
        if sample is None and parent is not None:
            sample = self.spans[parent].sample
        self.spans.append(Span(name, start, end, parent, sample, tid))
        return len(self.spans) - 1

    @contextmanager
    def wrapping(self, obj, attr: str, name: str):
        """Record a span around every call of ``obj.attr`` while active."""
        inner = getattr(obj, attr)
        shadowed = attr in vars(obj)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)
        try:
            yield
        finally:
            if shadowed:
                setattr(obj, attr, inner)
            else:
                delattr(obj, attr)  # back to the class's bound method

    def chrome_trace(self) -> dict:
        t0 = min((sp.start for sp in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": sp.name, "ph": "X", "pid": 0, "tid": sp.tid,
                    "ts": (sp.start - t0) * 1e6,
                    "dur": (sp.end - sp.start) * 1e6,
                    "args": {"id": i, "parent": sp.parent, "sample": sp.sample},
                }
                for i, sp in enumerate(self.spans)
            ],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
