"""In-memory spans for the traced run.

A span records a name, its start and end on the process's monotonic
clock, the span that caused it and the job it belongs to. Spans stay in
memory until the job ends; the job then prints them as JSON.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class Tracer:
    """Span recorder for one job. Spans nest by call order: the innermost
    open span is the parent of a new one."""

    def __init__(self, job: str):
        self.job = job
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, on_path: bool = True):
        """Time the body as span `name`. on_path=False marks work the CLI
        command itself does not do (the benchmark's own cross-checks)."""
        rec = {"name": name, "job": self.job,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None,
               "on_path": on_path}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are indexed within one job; children of one parent run one after
    another, so their durations do not overlap.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(jobs_spans: List[List[dict]]) -> Dict[str, float]:
    """Summed self time per span name over all jobs."""
    totals: Dict[str, float] = {}
    for spans in jobs_spans:
        for s, t in zip(spans, self_times(spans)):
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def off_path_time(jobs_spans: List[List[dict]]) -> float:
    """Total duration of the spans the CLI command does not run."""
    return sum(s["end"] - s["start"] for spans in jobs_spans for s in spans
               if not s["on_path"])
