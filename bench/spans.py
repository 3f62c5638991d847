"""In-memory span recorder for the traced benchmark run.

Rules (the same for every workload):

* A span is opened by the benchmark around one call into a layer's public
  function; nothing inside the package is instrumented.  Spans are kept in a
  list in memory and only reduced to metrics when the run ends.
* Every operation of a workload opens one root span (name ``op``); the layer
  spans of that operation are its descendants and share its ``op`` index.
* Self time of a span is its duration minus the durations of its direct
  children.  The benchmark is single-threaded, so children never overlap and
  their sum equals the part of the interval they cover.
* An exception is charged to the innermost span it leaves, and to that span's
  layer (the text before the first dot of the span name).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Collects spans of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self):
        """Root span of one workload operation."""
        self._op += 1
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name=name, op=self._op, parent=parent, start=time.perf_counter())
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException as exc:
            if not getattr(exc, "_bench_charged", False):
                rec.error = True
                try:
                    exc._bench_charged = True
                except AttributeError:
                    pass
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record a span measured elsewhere (for example inside a child
        process) as a child of the open span, ending now."""
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, op=self._op, parent=parent,
                               start=now - seconds, end=now))

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
