"""Flight recorder: a bounded ring of recent events, dumped on crash.

Telemetry journals (:mod:`repro.obs.telemetry`) answer "what do the
aggregates look like"; the flight recorder answers "what were the last
N things that actually happened" at the moment something went wrong.
A :class:`FlightRecorder` keeps a fixed-capacity in-memory ring of
recent occurrences — request outcomes, breaker transitions, reloads,
drain steps — at a few hundred nanoseconds per record, and dumps the
whole ring atomically as a ``repro-flightrec/1`` artifact when the
serving layer hits one of its triggers: SIGTERM, an unhandled worker
exception, or a circuit breaker opening. Post-mortems then start from
the captured tail instead of a reproduction attempt.

The dump goes through :func:`repro.io.atomic_write` (a crash mid-dump
never leaves a torn artifact) and re-entrant callers are serialized by
a lock, so the signal path and a concurrent worker-exception path cannot interleave.
:meth:`FlightRecorder.dump_once` is the edge-triggered variant used by
the breaker-open hook: only the *first* trigger dumps, so a flapping
breaker cannot overwrite the state captured at first failure.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path

from repro.io import atomic_write

from .manifest import provenance

__all__ = [
    "FlightRecorder",
    "read_flightrec",
]

#: Schema tag of the dumped artifact.
SCHEMA = "repro-flightrec/1"

#: Default ring capacity (most recent records kept).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Fixed-capacity ring of recent records with atomic crash dumps."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        self.dump_count = 0
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._seq = 0
        self._t0 = time.monotonic()
        self._lock = threading.Lock()

    def record(self, kind: str, /, **fields) -> None:
        """Append one record; O(1), bounded, never raises on content
        (fields must be JSON-serializable by dump time). ``kind`` is
        positional-only so a field may itself be named ``kind``."""
        with self._lock:
            self._seq += 1
            self._ring.append(
                {
                    "kind": kind,
                    "seq": self._seq,
                    "t_s": time.monotonic() - self._t0,
                    "fields": fields,
                }
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def events(self) -> list[dict]:
        """Point-in-time copy of the ring, oldest record first."""
        with self._lock:
            return list(self._ring)

    # -- dumping -------------------------------------------------------------

    def _snapshot_doc(self, reason: str) -> dict:
        return {
            "schema": SCHEMA,
            "reason": reason,
            "dump_count": self.dump_count,
            "capacity": self.capacity,
            "recorded": self._seq,
            "dropped": max(0, self._seq - len(self._ring)),
            "provenance": provenance(),
            "events": list(self._ring),
        }

    def dump(self, reason: str) -> Path:
        """Dump the ring now (SIGTERM / worker-exception triggers).

        Each dump atomically replaces the artifact; ``dump_count`` in
        the payload says how many dumps this process produced, so a
        post-mortem can tell a lone incident from a repeating one.
        """
        with self._lock:
            self.dump_count += 1
            doc = self._snapshot_doc(reason)
        atomic_write(self.path, json.dumps(doc, sort_keys=True))
        return self.path

    def dump_once(self, reason: str) -> Path | None:
        """Dump only if nothing has been dumped yet (edge trigger).

        The breaker-open hook uses this: the first open transition
        captures the ring, later flaps (or a later drain) do not
        overwrite the state at first failure. Returns ``None`` when a
        dump already exists.
        """
        with self._lock:
            if self.dump_count:
                return None
            self.dump_count += 1
            doc = self._snapshot_doc(reason)
        atomic_write(self.path, json.dumps(doc, sort_keys=True))
        return self.path


def read_flightrec(path: str | os.PathLike) -> dict:
    """Load and schema-validate a dumped flight-recorder artifact."""
    from repro.analysis.schemas import validate_fields

    path = Path(path)
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown flight-recorder schema {data.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    problems = validate_fields(data, SCHEMA)
    if problems:
        raise ValueError(
            f"{path}: artifact does not conform to {SCHEMA} — "
            + "; ".join(problems)
        )
    return data
