"""In-memory spans recorded around calls into learcov's layers.

A span is (name, start, end, parent, op): ``parent`` indexes the enclosing
span (-1 at top level) and spans of one op share ``op``. Nothing is written
until :meth:`Tracer.write` at the end of the run.
"""
from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name, op_prefix=""):
        return [end - start for n, start, end, _, op in self.spans
                if n == name and str(op).startswith(op_prefix)]

    def self_times(self, op_prefix=""):
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if str(op).startswith(op_prefix):
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Same interface with nothing recorded, for the untraced replays."""

    op = None

    @contextlib.contextmanager
    def span(self, name):
        yield
