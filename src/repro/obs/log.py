"""Structured event log: discrete pipeline lifecycle events.

Spans measure *where time went*; metrics count *how often things
happened*; the event log records *what happened, in order* — one
:class:`Event` per discrete lifecycle step (a launch retried, a run
quarantined, a worker crashed and was recovered, a fit started and
finished), correlated back to the span tree via the recording span's id
and pid. The report layer renders the merged stream as a timeline
(:func:`repro.obs.report.build_report`), and an opt-in JSONL sink makes
the stream a durable artifact an operator can tail.

Like spans and metrics, collection is **off by default**: the disabled
:func:`emit` path is one module-global load plus an ``is None`` check —
no allocation, no clock read — so emit sites can live permanently in
the campaign/fit layers. Worker processes collect into their own fresh
log (:func:`child_event_log`) and ship the events back for the parent
to :meth:`EventLog.merge`, exactly the way spans are adopted.

The JSONL sink is a :class:`repro.io.Journal`: every line is flushed
and fsynced, and :func:`read_events` tolerates a torn trailing line
(discarded, not fatal), so a crash mid-write never poisons the log.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.io import Journal

__all__ = [
    "Event",
    "EventLog",
    "event_log",
    "child_event_log",
    "current_event_log",
    "event_log_enabled",
    "emit",
    "read_events",
]

#: Schema tag written as the first field of every JSONL event line.
SCHEMA = "repro-events/1"


@dataclass
class Event:
    """One discrete lifecycle occurrence.

    ``kind`` is a dotted lowercase identifier (``campaign.retry``,
    ``fit.start``, ``repository.save``); ``fields`` carries the
    kind-specific payload (kernel, problem, error text, ...). ``span_id``
    and ``pid`` correlate the event with the span tree recorded by the
    same process — an adopted worker span and the worker's events share
    a pid, which is how the report's timeline lines them up.
    """

    kind: str
    t_s: float
    seq: int
    pid: int = 0
    span_id: int | None = None
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "t_s": self.t_s,
            "seq": self.seq,
            "pid": self.pid,
            "span_id": self.span_id,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=str(data["kind"]),
            t_s=float(data["t_s"]),
            seq=int(data["seq"]),
            pid=int(data.get("pid", 0)),
            span_id=data.get("span_id"),
            fields=dict(data.get("fields") or {}),
        )


class EventLog:
    """Ordered in-memory event collection, with an optional JSONL sink.

    ``path=None`` (default) keeps events purely in memory. With a path,
    every recorded event is also appended to the file — flushed and
    fsynced, one JSON document per line — so the log survives the
    process that wrote it.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.events: list[Event] = []
        self.path = Path(path) if path is not None else None
        self._sink = Journal(self.path, SCHEMA) if path is not None else None
        self._seq = 0
        self._pid = os.getpid()

    def emit(self, kind: str, **fields) -> Event:
        """Record one event (timestamped now, on the span clock)."""
        from .spans import current_tracer

        tracer = current_tracer()
        self._seq += 1
        event = Event(
            kind=kind,
            t_s=time.perf_counter(),
            seq=self._seq,
            pid=self._pid,
            span_id=tracer.current_span_id if tracer is not None else None,
            fields=fields,
        )
        self.events.append(event)
        if self._sink is not None:
            self._sink.append(event.to_dict())
        return event

    # -- cross-process merge -------------------------------------------------

    def merge(self, events: list[Event]) -> None:
        """Fold a worker's events into this log (and its sink, if any).

        Events keep their own pid/seq/span_id — they are worker-local
        facts — and the merged stream is re-sorted by timestamp so the
        timeline reads in wall-clock order regardless of which chunk's
        future resolved first. ``perf_counter`` is CLOCK_MONOTONIC
        system-wide on the platforms this project targets (see
        :mod:`repro.obs.spans`), so cross-process timestamps compare.
        """
        self.events.extend(events)
        self.events.sort(key=lambda e: (e.t_s, e.pid, e.seq))
        if self._sink is not None:
            for event in events:
                self._sink.append(event.to_dict())

    # -- queries -------------------------------------------------------------

    def kinds(self) -> set[str]:
        return {e.kind for e in self.events}

    def find(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


def read_events(path: str | os.PathLike) -> list[Event]:
    """Load a JSONL event log written by an :class:`EventLog` sink.

    Tolerant of a torn trailing line — a crash mid-append loses at most
    the event being written. Lines with an unknown schema tag, or
    tagged lines that do not conform to the registered
    ``repro-events/1`` schema, are refused loudly with the violated
    BF6xx rule named: a silent partial parse of a drifted format is
    worse than an error.
    """
    return [Event.from_dict(d) for d in Journal(path, SCHEMA).read()]


# -- module-level collection state ------------------------------------------

_ACTIVE: EventLog | None = None


def current_event_log() -> EventLog | None:
    """The installed event log, or None when event logging is disabled."""
    return _ACTIVE


def event_log_enabled() -> bool:
    return _ACTIVE is not None


def emit(kind: str, **fields) -> None:
    """Record an event on the active log — or do nothing, cheaply."""
    log = _ACTIVE
    if log is not None:
        log.emit(kind, **fields)


@contextmanager
def event_log(path: str | os.PathLike | None = None):
    """Install a fresh :class:`EventLog` for the block.

    ``path`` opts into the JSONL sink. The previously installed log (if
    any) is restored on exit, so logs nest without leaking state.
    """
    global _ACTIVE
    previous = _ACTIVE
    log = EventLog(path)
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous


@contextmanager
def child_event_log():
    """Worker-side collection for process fan-outs.

    A forked worker inherits the parent's ``_ACTIVE`` log object —
    including every event the parent recorded before the fork — so
    workers must *not* append to it (and a parent's *file sink* must
    not be written from two processes). This installs a guaranteed-fresh
    in-memory log and yields it; the worker returns ``log.events``
    alongside its results and the parent merges them with
    :meth:`EventLog.merge`.
    """
    global _ACTIVE
    previous = _ACTIVE
    log = EventLog()
    _ACTIVE = log
    try:
        yield log
    finally:
        _ACTIVE = previous
