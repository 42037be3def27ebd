"""Which public calls the traced run times, and the per-layer metrics.

Each :class:`~tracing.Probe` names a callable where its caller looks it
up, so the wrapper sits on the path the program really takes. The
layers are the package's modules: ``repro.profiling``, ``repro.gpusim``,
``repro.parallel``, ``repro.analysis`` (the plan preflight inside
``Campaign.run``), ``repro.ml``, ``repro.core``, ``repro.serve`` and
``repro.obs``.
"""

from __future__ import annotations

import json
import statistics
import time

import repro.core.importance
import repro.core.model
import repro.ml.forest
import repro.profiling.campaign
from repro.core.counter_models import CounterModelSet
from repro.core.model import BlackForest
from repro.core.prediction import ProblemScalingFit, ProblemScalingPredictor
from repro.gpusim.simulator import GPUSimulator
from repro.ml.forest import RandomForestRegressor
from repro.ml.mars import Mars
from repro.ml.pca import PCA
from repro.profiling.campaign import Campaign
from repro.profiling.profiler import Profiler
from repro.serve.artifact import ServableFit
from repro.serve.cache import FitCache
from repro.serve.registry import FitRegistry
from repro.serve.server import PredictionServer

from repro.obs.export import span_totals

from tracing import Probe


def _campaign_counts(result, args, kwargs) -> dict:
    return {"runs": len(result.records), "quarantined": len(result.quarantined)}


def _forest_trees(args, kwargs) -> dict:
    return {"trees": args[0].n_trees}


def _predict_rows(args, kwargs) -> dict:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": len(X)}


def _handle_labels(args, kwargs) -> dict:
    """Request ids and queue waits (handle start minus arrival stamps)."""
    lines = args[1]
    arrivals = args[2] if len(args) > 2 else kwargs.get("arrivals")
    now = time.monotonic()
    ids = []
    for line in lines:
        try:
            ids.append(json.loads(line).get("id"))
        except (ValueError, AttributeError):
            ids.append(None)
    waits = [now - a for a in (arrivals or ()) if a is not None]
    return {"ids": ids, "lines": len(lines), "queue_wait_s": waits}


def _cache_hit(args, kwargs) -> dict:
    cache, key = args[0], args[1]
    return {"hit": key in cache}


def _predict_many_rows(args, kwargs) -> dict:
    return {"rows": sum(len(q) for q in args[1])}


def pipeline_probes() -> list[Probe]:
    """Probes for the campaign → fit → prediction pipelines."""
    return [
        Probe(Campaign, "run", "profiling.campaign", after=_campaign_counts),
        Probe(Profiler, "profile", "profiling.profile"),
        Probe(GPUSimulator, "launch", "gpusim.launch"),
        Probe(repro.profiling.campaign, "process_map", "parallel.process_map",
              fan_out=True),
        Probe(repro.ml.forest, "process_map", "parallel.process_map",
              fan_out=True),
        Probe(repro.profiling.campaign, "preflight", "analysis.preflight"),
        Probe(RandomForestRegressor, "fit", "ml.forest_fit",
              before=_forest_trees),
        Probe(repro.core.importance, "partial_dependence",
              "ml.partial_dependence"),
        Probe(RandomForestRegressor, "predict", "ml.forest_predict",
              before=_predict_rows),
        Probe(RandomForestRegressor, "predict_many", "ml.forest_predict_many"),
        Probe(PCA, "fit", "ml.pca"),
        Probe(Mars, "fit", "ml.mars_fit"),
        Probe(BlackForest, "fit", "core.blackforest_fit"),
        Probe(repro.core.model, "rank_importance", "core.rank_importance"),
        Probe(repro.core.model, "reduced_model_check", "core.reduced_check"),
        Probe(ProblemScalingPredictor, "fit", "core.problem_scaling_fit"),
        Probe(CounterModelSet, "fit_arrays", "core.counter_models"),
        Probe(ProblemScalingFit, "assess", "core.assess"),
    ]


def server_probes() -> list[Probe]:
    """Probes installed inside the ``repro serve`` process."""
    return [
        Probe(PredictionServer, "handle_lines", "serve.handle",
              before=_handle_labels),
        Probe(ServableFit, "predict_many", "serve.predict_many",
              before=_predict_many_rows),
        Probe(FitRegistry, "watch_digests", "serve.watch"),
        Probe(FitRegistry, "load", "serve.registry_load"),
        Probe(FitCache, "get", "serve.cache_get", before=_cache_hit),
        Probe(RandomForestRegressor, "predict", "ml.forest_predict",
              before=_predict_rows),
        Probe(RandomForestRegressor, "predict_many", "ml.forest_predict_many"),
    ]


def client_probes() -> list[Probe]:
    """Probes on the benchmark side of ``serve_mixed`` (the writer)."""
    return [Probe(FitRegistry, "publish", "serve.publish")]


#: Per-layer metric → (span, statistic). ``self`` is exclusive time from
#: ``span_totals``; ``total`` is inclusive; ``count`` is calls;
#: ``sum:<label>`` adds a numeric label over the calls.
SPAN_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "profiling.campaign_s": (("profiling.campaign",), "self"),
    "profiling.runs": (("profiling.campaign",), "sum:runs"),
    "profiling.quarantined": (("profiling.campaign",), "sum:quarantined"),
    "profiling.profile_s": (("profiling.profile",), "self"),
    "gpusim.launch_s": (("gpusim.launch",), "self"),
    "gpusim.launches": (("gpusim.launch",), "count"),
    "parallel.process_map_s": (("parallel.process_map",), "total"),
    "parallel.tasks": (("parallel.process_map",), "sum:tasks"),
    "analysis.preflight_s": (("analysis.preflight",), "self"),
    "ml.forest_fit_s": (("ml.forest_fit",), "self"),
    "ml.forest_fits": (("ml.forest_fit",), "count"),
    "ml.trees_grown": (("ml.forest_fit",), "sum:trees"),
    "ml.partial_dependence_s": (("ml.partial_dependence",), "self"),
    "ml.partial_dependence_calls": (("ml.partial_dependence",), "count"),
    "ml.forest_predict_s": (
        ("ml.forest_predict", "ml.forest_predict_many"), "self"),
    "ml.forest_predict_rows": (("ml.forest_predict",), "sum:rows"),
    "ml.pca_s": (("ml.pca",), "self"),
    "ml.mars_fit_s": (("ml.mars_fit",), "self"),
    "core.blackforest_fit_s": (("core.blackforest_fit",), "self"),
    "core.rank_importance_s": (("core.rank_importance",), "self"),
    "core.reduced_check_s": (("core.reduced_check",), "self"),
    "core.problem_scaling_fit_s": (("core.problem_scaling_fit",), "self"),
    "core.counter_models_s": (("core.counter_models",), "self"),
    "core.assess_s": (("core.assess",), "self"),
    "serve.handle_s": (("serve.handle",), "self"),
    "serve.passes": (("serve.handle",), "count"),
    "serve.predict_many_s": (("serve.predict_many",), "self"),
    "serve.watch_s": (("serve.watch",), "self"),
    "serve.watches": (("serve.watch",), "count"),
    "serve.registry_load_s": (("serve.registry_load",), "self"),
    "serve.reloads": (("serve.registry_load",), "count"),
    "serve.publish_s": (("serve.publish",), "self"),
    # Inclusive times of the calls that mostly orchestrate other layers:
    # their self time is glue, their total is what a user waits for.
    "profiling.campaign_total_s": (("profiling.campaign",), "total"),
    "ml.partial_dependence_total_s": (("ml.partial_dependence",), "total"),
    "core.blackforest_fit_total_s": (("core.blackforest_fit",), "total"),
    "core.rank_importance_total_s": (("core.rank_importance",), "total"),
    "serve.handle_total_s": (("serve.handle",), "total"),
}


def _label_sum(records, names, label) -> float:
    return float(sum(
        r.labels.get(label, 0) for r in records if r.name in names
    ))


def layer_metrics(records) -> dict[str, float]:
    """Every per-layer metric that comes straight from the spans.

    Layers a workload never enters read 0. The serve-only derived
    figures (rows per pass, queue wait, cache hit ratio) are computed
    here too; ``serve.publish_to_live_ms``, ``serve.telemetry_records``
    and ``obs.trace_overhead_ratio`` come from the workload itself.
    """
    totals = span_totals(records)
    out: dict[str, float] = {}
    for metric, (names, stat) in SPAN_METRICS.items():
        if stat.startswith("sum:"):
            out[metric] = _label_sum(records, names, stat[4:])
            continue
        key = {"self": "self_s", "total": "total_s", "count": "count"}[stat]
        out[metric] = float(sum(totals[n][key] for n in names if n in totals))
    handles = [r for r in records if r.name == "serve.handle"]
    out["serve.rows_per_pass"] = (
        statistics.fmean(r.labels["lines"] for r in handles) if handles else 0.0
    )
    waits = [w for r in handles for w in r.labels.get("queue_wait_s", ())]
    out["serve.queue_wait_ms"] = (
        1e3 * statistics.median(waits) if waits else 0.0
    )
    gets = [r for r in records if r.name == "serve.cache_get"]
    out["serve.cache_hit_ratio"] = (
        sum(bool(r.labels.get("hit")) for r in gets) / len(gets) if gets else 0.0
    )
    return out


def self_time_ranking(records) -> list[tuple[str, float, float, int]]:
    """``(span, self_s, total_s, count)`` of the package's layers, sorted
    by self time, largest first. The benchmark's own ``bench.*`` spans
    (an iteration, a client's wait for a reply) are not layers."""
    totals = span_totals(records)
    rows = [
        (name, agg["self_s"], agg["total_s"], agg["count"])
        for name, agg in totals.items()
        if not name.startswith("bench.")
    ]
    return sorted(rows, key=lambda row: row[1], reverse=True)


def hot_path(records) -> list[str]:
    """The largest self-time span name and its ancestors' names.

    Reads the span tree, so the answer says *where* the biggest layer
    was called from (e.g. ``ml.forest_predict`` under
    ``ml.partial_dependence`` under ``core.rank_importance``).
    """
    ranking = self_time_ranking(records)
    if not ranking:
        return []
    top = ranking[0][0]
    by_id = {r.span_id: r for r in records}
    # The longest call of that span shows the usual path to it.
    heaviest = max((r for r in records if r.name == top),
                   key=lambda r: r.duration_s)
    path = [heaviest.name]
    parent = by_id.get(heaviest.parent_id)
    while parent is not None:
        if parent.name != path[-1]:
            path.append(parent.name)
        parent = by_id.get(parent.parent_id)
    return path
