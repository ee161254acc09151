"""Span recorder for the traced benchmark run.

Spans are wrapped from outside around the calls the benchmark makes into
finring's public functions; nothing inside finring is instrumented.  They
are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Nested spans of one process: name, start, end, parent, workload, item."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str):
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "item": item}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def append(spans: list[dict], more: list[dict]) -> None:
    """Append another process's spans, keeping their parent links."""
    offset = len(spans)
    for s in more:
        spans.append(dict(s, parent=None if s["parent"] is None else s["parent"] + offset))


def self_times(spans: list[dict]) -> dict:
    """Seconds per span name not covered by the span's children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s, c in zip(spans, covered):
        out[s["name"]] += s["end"] - s["start"] - c
    return dict(out)
