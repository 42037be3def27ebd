"""Periodic telemetry snapshots: rotating JSONL journal + exposition.

The metrics registry (:mod:`repro.obs.metrics`) answers "what happened
in this process so far"; this module makes that answer *continuously
observable from outside*. A :class:`TelemetryExporter` periodically
samples a snapshot callable and

* appends one ``repro-telemetry/1`` JSONL record per sample to a
  :class:`repro.io.Journal` (flush + fsync per line, torn tail
  repaired before the first append after a restart and discarded by
  :func:`read_telemetry`), with size-based
  rotation that keeps the ``.jsonl`` suffix on rotated generations so
  artifact lint still recognises them, and a manifest-style provenance
  stamp on the first record of every file;
* renders the same snapshot as a Prometheus-style text exposition
  (:func:`render_prometheus`) — counters, gauges, and the bounded
  timer histograms as ``_bucket``/``_sum``/``_count`` families — which
  the serving frontend exposes through a ``telemetry`` RPC.

Sampling runs on a daemon thread (:meth:`TelemetryExporter.start`);
a failing export is counted and swallowed — telemetry must never take
down the system it observes. The exporter holds no model state and
reads only aggregate snapshots, so predictions are bit-identical with
telemetry on or off.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from pathlib import Path

from repro.io import Journal

from .manifest import provenance

__all__ = [
    "TelemetryExporter",
    "read_telemetry",
    "render_prometheus",
    "snapshot_doc",
]

#: Schema tag written as the first field of every telemetry record.
SCHEMA = "repro-telemetry/1"

#: Default seconds between background samples.
DEFAULT_INTERVAL_S = 5.0

#: Default journal size that triggers rotation (1 MiB).
DEFAULT_MAX_BYTES = 1 << 20

#: Default number of rotated generations kept next to the live file.
DEFAULT_MAX_FILES = 3


def snapshot_doc(registry) -> dict:
    """Telemetry body for a :class:`~repro.obs.metrics.MetricsRegistry`.

    Counters and gauges export as rendered-key scalars; each timer
    series exports its full bounded-histogram view (summary fields plus
    cumulative buckets) so downstream scrapes can re-render quantiles
    and expositions without the raw samples.
    """
    from .metrics import _render_key

    return {
        "counters": {
            _render_key(k): v for k, v in sorted(registry.counters.items())
        },
        "gauges": {
            _render_key(k): v for k, v in sorted(registry.gauges.items())
        },
        "timers": {
            _render_key(k): registry.timers[k].to_dict()
            for k in sorted(registry.timers)
        },
    }


class TelemetryExporter:
    """Samples a snapshot callable into a rotating JSONL journal.

    ``snapshot_fn`` returns the record body — at minimum the
    ``counters``/``gauges``/``timers`` maps of :func:`snapshot_doc`;
    the serving layer adds ``breakers`` and ``server`` sections, the
    campaign layer a ``progress`` section. The exporter wraps each body
    with the schema tag, a monotonic ``seq``/``elapsed_s``, and the
    configured ``source``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        snapshot_fn,
        *,
        source: str = "serve",
        interval_s: float = DEFAULT_INTERVAL_S,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        self.path = Path(path)
        self._journal = Journal(self.path, SCHEMA)
        self.snapshot_fn = snapshot_fn
        self.source = source
        self.interval_s = float(interval_s)
        self.max_bytes = int(max_bytes)
        self.max_files = int(max_files)
        self.export_errors = 0
        self._seq = 0
        self._t0 = time.monotonic()
        self._stamp_next = True
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- rotation ------------------------------------------------------------

    def _generation(self, index: int) -> Path:
        """Rotated generation path, keeping the ``.jsonl`` suffix
        (``telemetry.jsonl`` -> ``telemetry.1.jsonl``) so directory
        scans that collect artifacts by suffix still pick them up."""
        stem = self.path.name
        if stem.endswith(".jsonl"):
            stem = stem[: -len(".jsonl")]
        return self.path.with_name(f"{stem}.{index}.jsonl")

    def _rotate_if_needed(self) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size < self.max_bytes:
            return
        oldest = self._generation(self.max_files)
        if oldest.exists():
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            gen = self._generation(index)
            if gen.exists():
                os.replace(gen, self._generation(index + 1))
        os.replace(self.path, self._generation(1))
        self._stamp_next = True

    # -- export --------------------------------------------------------------

    def export_once(self, extra: dict | None = None) -> dict:
        """Sample, wrap, and append one record; returns the record."""
        body = dict(self.snapshot_fn() or {})
        if extra:
            body.update(extra)
        with self._lock:
            self._rotate_if_needed()
            record = {
                "schema": SCHEMA,
                "seq": self._seq,
                "source": self.source,
                "elapsed_s": time.monotonic() - self._t0,
            }
            if self._stamp_next:
                record["provenance"] = provenance()
                self._stamp_next = False
            record.update(body)
            record.setdefault("counters", {})
            record.setdefault("gauges", {})
            record.setdefault("timers", {})
            self._journal.append(record)
            self._seq += 1
        return record

    def sample(self) -> None:
        """:meth:`export_once`, with failures counted and swallowed —
        a broken disk or a mid-reload snapshot race must never take
        down the process telemetry is observing."""
        try:
            self.export_once()
        except Exception:
            self.export_errors += 1

    # -- background thread ---------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self, *, final_export: bool = True) -> None:
        """Stop the sampler thread; by default flush one last record so
        the journal's tail reflects the state at shutdown."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            self._thread = None
        if final_export:
            self.sample()


def read_telemetry(path: str | os.PathLike) -> list[dict]:
    """Load a telemetry journal; a torn trailing line is discarded.

    A crash (or a SIGTERM landing mid-append) loses at most the record
    being written; records that do not conform to the registered
    ``repro-telemetry/1`` schema are refused with the violated BF6xx
    rule named.
    """
    path = Path(path)
    return Journal(path, SCHEMA).read() if path.exists() else []


# -- Prometheus-style exposition ---------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _parse_rendered(key: str) -> tuple[str, list[tuple[str, str]]]:
    """Split a rendered ``name{k=v,...}`` metric key back into parts."""
    if "{" not in key:
        return key, []
    name, _, inner = key.partition("{")
    labels = []
    for pair in inner.rstrip("}").split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels.append((k, v))
    return name, labels


def _metric_name(name: str, suffix: str = "") -> str:
    return "repro_" + _NAME_RE.sub("_", name) + suffix


def _labels_text(labels: list[tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def render_prometheus(doc: dict) -> str:
    """Text exposition of a telemetry body (or full record).

    Counters become ``<name>_total``, gauges plain gauges, timers full
    histogram families (``_seconds_bucket`` with cumulative ``le``
    bounds, ``_seconds_sum``, ``_seconds_count``, plus exact
    ``_seconds_min``/``_seconds_max`` gauges). Breaker states and the
    serving section export as labelled gauges. Output is sorted, so two
    scrapes of identical state render identical text.
    """
    lines: list[str] = []

    for key in sorted(doc.get("counters", {})):
        name, labels = _parse_rendered(key)
        metric = _metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f"{metric}{_labels_text(labels)} "
            f"{_format_value(doc['counters'][key])}"
        )

    for key in sorted(doc.get("gauges", {})):
        name, labels = _parse_rendered(key)
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(
            f"{metric}{_labels_text(labels)} "
            f"{_format_value(doc['gauges'][key])}"
        )

    for key in sorted(doc.get("timers", {})):
        hist = doc["timers"][key]
        name, labels = _parse_rendered(key)
        metric = _metric_name(name, "_seconds")
        lines.append(f"# TYPE {metric} histogram")
        for bound, cum in hist.get("buckets", []):
            le = "+Inf" if bound is None else _format_value(float(bound))
            bucket_labels = labels + [("le", le)]
            lines.append(
                f"{metric}_bucket{_labels_text(bucket_labels)} {cum}"
            )
        lines.append(
            f"{metric}_sum{_labels_text(labels)} "
            f"{_format_value(hist.get('total_s', 0.0))}"
        )
        lines.append(
            f"{metric}_count{_labels_text(labels)} {hist.get('count', 0)}"
        )
        for stat in ("min", "max"):
            value = hist.get(f"{stat}_s")
            if value is not None:
                lines.append(
                    f"{metric}_{stat}{_labels_text(labels)} "
                    f"{_format_value(value)}"
                )

    breakers = doc.get("breakers") or {}
    for key in sorted(breakers):
        lines.append(
            "repro_breaker_state"
            + _labels_text([("key", key), ("state", str(breakers[key]))])
            + " 1"
        )

    server = doc.get("server") or {}
    for field in sorted(server):
        value = server[field]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metric = _metric_name("server." + field)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")

    return "\n".join(lines) + "\n"
