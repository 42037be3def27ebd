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
the campaign/fit layers. :func:`repro.parallel.process_map` carries
the active collectors and fault plan: each worker records into a fresh
log, and the parent folds its events back with :meth:`EventLog.merge`,
exactly the way spans are adopted.

The JSONL sink is a :class:`repro.io.Journal`: every line is flushed
and fsynced, and :func:`read_events` tolerates a torn trailing line
(discarded, not fatal), so a crash mid-write never poisons the log.

A log given a ``capacity`` is a bounded, thread-safe ring that keeps
the newest events and counts the ones it dropped. The prediction
server keeps its ``serve.*`` events in one, and :meth:`EventLog.dump`
writes the ring atomically as a ``repro-flightrec/1`` artifact — the
flight recorder — when the server hits a crash trigger.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.io import Journal, atomic_write

from .manifest import provenance

__all__ = [
    "Event",
    "EventLog",
    "event_log",
    "current_event_log",
    "emit",
    "read_events",
    "read_flightrec",
]

#: Schema tag written as the first field of every JSONL event line.
SCHEMA = "repro-events/1"

#: Schema tag of a dumped ring (:meth:`EventLog.dump`).
FLIGHTREC_SCHEMA = "repro-flightrec/1"


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
    process that wrote it. ``capacity`` bounds the in-memory events to
    the newest ``capacity``; ``recorded`` counts every event ever added
    and ``dropped`` the ones the bound pushed out. Recording, merging
    and dumping are serialized by a lock, so threads may share a log.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)
        self.path = Path(path) if path is not None else None
        self._sink = Journal(self.path, SCHEMA) if path is not None else None
        self.recorded = 0
        self.dump_count = 0
        self._seq = 0
        self._pid = os.getpid()
        # Re-entrant: a signal handler may emit while the main thread
        # is inside emit().
        self._lock = threading.RLock()

    @property
    def dropped(self) -> int:
        return self.recorded - len(self.events)

    def emit(self, kind: str, /, **fields) -> Event:
        """Record one event (timestamped now, on the span clock).

        ``kind`` is positional-only so a field may itself be named
        ``kind`` (the server's error events carry one).
        """
        from .spans import current_tracer

        tracer = current_tracer()
        span_id = tracer.current_span_id if tracer is not None else None
        with self._lock:
            self._seq += 1
            self.recorded += 1
            event = Event(
                kind=kind,
                t_s=time.perf_counter(),
                seq=self._seq,
                pid=self._pid,
                span_id=span_id,
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
        with self._lock:
            merged = sorted(
                [*self.events, *events], key=lambda e: (e.t_s, e.pid, e.seq)
            )
            self.events.clear()
            self.events.extend(merged)
            self.recorded += len(events)
            if self._sink is not None:
                for event in events:
                    self._sink.append(event.to_dict())

    # -- flight-recorder dump ------------------------------------------------

    def dump(self, path: str | os.PathLike, reason: str) -> Path:
        """Write the events atomically as a ``repro-flightrec/1`` artifact.

        Each dump replaces the file; ``dump_count`` in the payload says
        how many dumps this log produced, so a post-mortem can tell a
        lone incident from a repeating one.
        """
        with self._lock:
            self.dump_count += 1
            doc = {
                "schema": FLIGHTREC_SCHEMA,
                "reason": reason,
                "dump_count": self.dump_count,
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "provenance": provenance(),
                "events": [e.to_dict() for e in self.events],
            }
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, json.dumps(doc, sort_keys=True))
        return path

    def dump_once(self, path: str | os.PathLike, reason: str) -> Path | None:
        """:meth:`dump` only if nothing was dumped yet (edge trigger).

        The server's breaker-open trigger uses this: the first open
        captures the ring, later flaps do not overwrite the state at
        first failure. Returns ``None`` when a dump already exists.
        """
        with self._lock:
            return None if self.dump_count else self.dump(path, reason)

    # -- queries -------------------------------------------------------------

    def kinds(self) -> set[str]:
        with self._lock:
            return {e.kind for e in self.events}

    def find(self, kind: str) -> list[Event]:
        with self._lock:
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


def read_flightrec(path: str | os.PathLike) -> dict:
    """Load and schema-validate a dumped ``repro-flightrec/1`` artifact."""
    from repro.analysis.schemas import validate_fields

    path = Path(path)
    data = json.loads(path.read_text())
    if data.get("schema") != FLIGHTREC_SCHEMA:
        raise ValueError(
            f"{path}: unknown flight-recorder schema {data.get('schema')!r} "
            f"(expected {FLIGHTREC_SCHEMA!r})"
        )
    problems = validate_fields(data, FLIGHTREC_SCHEMA)
    if problems:
        raise ValueError(
            f"{path}: artifact does not conform to {FLIGHTREC_SCHEMA} — "
            + "; ".join(problems)
        )
    return data


# -- module-level collection state ------------------------------------------

_ACTIVE: EventLog | None = None


def current_event_log() -> EventLog | None:
    """The installed event log, or None when event logging is disabled."""
    return _ACTIVE


def emit(kind: str, /, **fields) -> None:
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

