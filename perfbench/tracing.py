"""Spans recorded by the benchmark around its calls into ``ncmoduli``.

A span is ``[name, start, end, parent, op]``: the name is
``<module>.<function>``, start and end are ``time.perf_counter`` readings,
parent is the index of the enclosing span (-1 at top level) and op is the
id of the operation the span belongs to (-1 outside the timed loop).
Spans stay in memory and are written out once, when the run ends.

Untraced runs use ``NullTracer``, whose ``call`` is a plain call, so the
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)


def module_summary(spans):
    """Per module: call count, total time and self time in milliseconds.

    Self time is a span's duration minus the time its child spans cover;
    children never overlap because the benchmark runs one caller.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        module = name.split(".", 1)[0]
        row = out.setdefault(module, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - child_time[k]) * 1e3
    return dict(sorted(out.items()))
