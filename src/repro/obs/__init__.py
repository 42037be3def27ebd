"""Observability layer: tracing spans, metrics, manifests, exporters.

PPT-style toolkits make per-stage cost measurable; ``repro.obs`` is
that substrate for this pipeline. It is **off by default** and its
disabled fast path is a module-global load plus an ``is None`` check,
so instrumentation can stay in the hot layers permanently without
numeric or timing consequences (pinned by ``tests/obs/``).

Four coordinated pieces:

* **spans** (:func:`span`, :func:`trace`) — hierarchical timed spans
  over the pipeline (``campaign.run`` → ``profile`` →
  ``gpusim.launch`` → ``gpusim.resolve_access``; ``blackforest.fit`` →
  ``forest.fit`` → ``forest.grow``, ``forest.oob``);
  :func:`repro.parallel.process_map` carries the active collectors and
  fault plan, so worker-process spans are merged back into the parent
  trace (:meth:`Tracer.adopt`);
* **metrics** (:func:`collect`, :func:`inc`, :func:`timer`,
  :func:`set_gauge`) — labelled counters/timers/gauges, e.g. the
  ``campaign.retries`` and ``tree.nodes`` counters;
* **events** (:func:`event_log`, :func:`emit`) — a structured log of
  discrete lifecycle occurrences (launch, retry, quarantine, worker
  crash, fit start/end), correlated to the span tree, with an opt-in
  torn-tail-tolerant JSONL sink and an optional bound that makes it a
  thread-safe ring (:class:`EventLog`);
* **manifests** (:class:`Manifest`, :func:`build_manifest`) —
  provenance sidecars (seed, arch, kernel, git rev, config, span
  timings) written alongside repository artifacts.

On top of those, the *telemetry pipeline* makes a live process
observable from outside: :class:`TelemetryExporter` samples metric
snapshots into a rotating ``repro-telemetry/1`` JSONL journal and
renders Prometheus-style text (:func:`render_prometheus`), while the
serving layer's bounded :class:`EventLog` ring is dumped atomically as
a ``repro-flightrec/1`` flight-recorder artifact
(:func:`read_flightrec`) when the server crashes, drains on SIGTERM,
or trips a circuit breaker. Timer metrics are bounded too:
:class:`LogHistogram` caps retained raw samples and keeps quantiles
merge-order-independent at any scale.

Exporters turn a trace into ``repro trace`` text output
(:func:`render_text_tree`) or Chrome-trace JSON
(:func:`to_chrome_trace`, loadable in chrome://tracing / Perfetto).
The report layer (:func:`build_report`, ``repro report``) joins a fit
artifact, campaign, trace and event log into one text/Markdown/HTML
document; :mod:`repro.obs.history` keeps the bench-history journal the
``repro bench --check`` regression watchdog reads.

Quickstart::

    from repro import Campaign, GTX580, ReductionKernel, obs

    with obs.trace() as tracer:
        Campaign(ReductionKernel(1), GTX580, rng=0).run(n_jobs=2)
    print(obs.render_text_tree(tracer.records))
"""

from .export import render_text_tree, span_totals, to_chrome_trace
from .history import append_history, compare_results, read_history
from .log import (
    Event,
    EventLog,
    current_event_log,
    emit,
    event_log,
    read_events,
    read_flightrec,
)
from .manifest import Manifest, build_manifest, git_revision
from .metrics import (
    LogHistogram,
    MetricsRegistry,
    collect,
    current_metrics,
    inc,
    observe,
    set_gauge,
    timer,
)
from .report import Report, ReportSection, build_report
from .telemetry import (
    TelemetryExporter,
    read_telemetry,
    render_prometheus,
    snapshot_doc,
)
from .spans import (
    SpanRecord,
    Tracer,
    current_tracer,
    span,
    trace,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "trace",
    "current_tracer",
    "LogHistogram",
    "MetricsRegistry",
    "collect",
    "current_metrics",
    "inc",
    "set_gauge",
    "observe",
    "timer",
    "Event",
    "EventLog",
    "event_log",
    "current_event_log",
    "emit",
    "read_events",
    "Manifest",
    "build_manifest",
    "git_revision",
    "render_text_tree",
    "to_chrome_trace",
    "span_totals",
    "Report",
    "ReportSection",
    "build_report",
    "append_history",
    "read_history",
    "compare_results",
    "TelemetryExporter",
    "read_telemetry",
    "render_prometheus",
    "snapshot_doc",
    "read_flightrec",
]
