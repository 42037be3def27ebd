"""Hierarchical tracing spans with a near-zero-cost disabled default.

The pipeline's wall-clock lives in a handful of nested stages —
``campaign.run`` → ``profile`` → ``gpusim.launch`` →
``gpusim.resolve_access`` on the collection side, ``blackforest.fit`` →
``forest.fit`` → ``forest.grow``/``forest.oob`` on the statistics side.
A :class:`Tracer` records those stages as a tree of timed
:class:`SpanRecord` objects; :func:`span` is the single instrumentation
primitive threaded through the hot layers.

Design constraints, in order:

1. **Disabled must cost (almost) nothing.** Tracing is off by default;
   ``span()`` then amounts to one module-global load, one ``is None``
   check and returning a shared no-op context manager. No allocation,
   no clock read. The numeric outputs of every pipeline stage are
   identical whether tracing is on or off (pinned by
   ``tests/obs/test_instrumentation.py``).
2. **Process fan-out must merge.** ``Campaign.run(n_jobs)`` and
   ``RandomForestRegressor.fit(n_jobs)`` ship work to a process pool
   through :func:`repro.parallel.process_map`, which carries the active
   collectors and fault plan: each worker records spans into a fresh
   tracer, and the parent grafts them under its current span with
   :meth:`Tracer.adopt`.
   ``time.perf_counter`` is CLOCK_MONOTONIC on Linux (system-wide), so
   child timestamps line up with the parent's on the platforms this
   project targets.
3. **No global mutable state leaks.** :func:`trace` is a context
   manager that installs a tracer and always restores the previous one;
   nested traces are allowed (the inner one simply shadows the outer).

Tracing state is per-process and not thread-safe by design — the
pipeline parallelizes with processes, never threads.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "trace",
    "current_tracer",
]


@dataclass
class SpanRecord:
    """One completed (or still-open) span: a timed node of the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    labels: dict[str, object] = field(default_factory=dict)
    #: pid of the process that recorded the span — distinguishes the
    #: campaign/forest fan-out children from the parent in exports.
    pid: int = 0

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


class _SpanHandle:
    """Context manager for one live span of one tracer."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._record)
        return None


class _NoopSpan:
    """Shared do-nothing span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


_NOOP = _NoopSpan()


class Tracer:
    """Collects a tree of spans for one traced run."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **labels) -> _SpanHandle:
        """Open a child span of the current innermost span."""
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_s=time.perf_counter(),
            labels=labels,
            pid=self._pid,
        )
        self.records.append(record)
        self._stack.append(record.span_id)
        return _SpanHandle(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.end_s = time.perf_counter()
        # Tolerate mispaired exits (a worker crash mid-span): pop down
        # to — and including — this span if it is anywhere on the stack.
        if record.span_id in self._stack:
            while self._stack and self._stack.pop() != record.span_id:
                pass

    @property
    def current_span_id(self) -> int | None:
        return self._stack[-1] if self._stack else None

    # -- cross-process merge ------------------------------------------------

    def adopt(
        self,
        child_records: list[SpanRecord],
        parent_id: int | None = None,
    ) -> None:
        """Graft a worker's span records under ``parent_id``.

        Children get fresh ids in this tracer's id space (their internal
        parent/child structure is preserved); root spans of the child
        trace attach under ``parent_id`` (default: the tracer's current
        innermost span). Timestamps are kept as recorded — see the
        module docstring for the clock-domain caveat.
        """
        if parent_id is None:
            parent_id = self.current_span_id
        id_map: dict[int, int] = {}
        for rec in child_records:
            id_map[rec.span_id] = next(self._ids)
        for rec in child_records:
            self.records.append(
                SpanRecord(
                    span_id=id_map[rec.span_id],
                    parent_id=(
                        id_map[rec.parent_id]
                        if rec.parent_id in id_map
                        else parent_id
                    ),
                    name=rec.name,
                    start_s=rec.start_s,
                    end_s=rec.end_s,
                    labels=dict(rec.labels),
                    pid=rec.pid,
                )
            )

    # -- queries ------------------------------------------------------------

    def names(self) -> set[str]:
        return {r.name for r in self.records}

    def find(self, name: str) -> list[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def children_of(self, span_id: int | None) -> list[SpanRecord]:
        return [r for r in self.records if r.parent_id == span_id]


# -- module-level tracing state ---------------------------------------------

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _ACTIVE


def span(name: str, **labels):
    """Open a span on the active tracer — or do nothing, cheaply.

    The disabled path performs no allocation and no clock read, which is
    what keeps always-on instrumentation out of the hot-path budget
    (``repro bench`` regression bound, see docs/api.md).
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, **labels)


@contextmanager
def trace():
    """Install a fresh tracer for the duration of the block.

    Yields the :class:`Tracer`; the previously installed tracer (if
    any) is restored on exit, so traces nest without leaking state.
    """
    global _ACTIVE
    previous = _ACTIVE
    tracer = Tracer()
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous

