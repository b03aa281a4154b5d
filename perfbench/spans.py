"""In-memory spans for the traced benchmark run.

A span records one call from the benchmark into a library layer: its
name, start and end (``time.perf_counter`` seconds), the index of the
enclosing span, and the trial it belongs to. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Name of the root span of every trial; its self time is the time spent
# in no layer span (the benchmark's own bookkeeping).
TRIAL = "trial"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, trial id]
        self._open = []
        self.trial = None

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self.trial]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, trial):
        """Self time per span name within one trial: each span's duration
        minus the durations of its direct children. The ``trial`` root's
        self time is the remainder outside every layer span, so the values
        sum to the trial's wall time."""
        spans = [(idx, s) for idx, s in enumerate(self.spans) if s[4] == trial]
        child_time = {}
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for idx, (name, start, end, _, _) in spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time.get(idx, 0.0)
        return out

    def durations(self, trial, name):
        return [s[2] - s[1] for s in self.spans if s[4] == trial and s[0] == name]

    def dump(self, path, header):
        """Write the header and every span as one JSON document."""
        keys = ("name", "start", "end", "parent", "trial")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


class NullTracer:
    """Stand-in for the untraced path: a span is one no-op context."""

    trial = None

    @contextmanager
    def span(self, name):
        yield
