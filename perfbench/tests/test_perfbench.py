"""Tests of the benchmark's own machinery, on tiny seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

import math
import os

import numpy as np
import pytest

import probes
import tracing
from repro.obs.spans import SpanRecord
from repro.parallel import process_map
from stats import Tally, percentile
from workloads import MIN_QUERIES, AnalyzeReduce1, repeat_for


# -- percentiles with sample counts -------------------------------------------


def test_percentile_reports_value_count_and_samples_beyond():
    p50 = percentile(range(1, 101), 50)
    assert (p50.value, p50.n, p50.beyond) == (50.5, 100, 50)
    p99 = percentile(range(1, 101), 99)
    assert math.isclose(p99.value, 99.01)
    assert (p99.n, p99.beyond) == (100, 1)
    assert "100 samples" in p99.describe()


def test_percentile_matches_numpy_default_and_rejects_empty():
    data = np.random.default_rng(3).exponential(size=57)
    for q in (0, 10, 50, 95, 99, 100):
        assert math.isclose(percentile(data, q).value, np.percentile(data, q))
    with pytest.raises(ValueError):
        percentile([], 50)


# -- operation accounting -----------------------------------------------------


def test_error_rate_is_failed_over_attempted_with_kinds():
    tally = Tally()
    tally.record("requests", n=97)
    tally.record("requests", "overloaded", n=2)
    tally.record("requests", "deadline_exceeded")
    tally.record("campaign_runs", n=79)
    tally.record("campaign_runs", "quarantined")
    assert (tally.attempted, tally.failed) == (180, 4)
    assert tally.error_rate() == 4 / 180
    assert tally.success_ratio() == 1 - 4 / 180
    lines = tally.lines()
    assert "requests: attempted=100 succeeded=97 failed=3" in lines[1]
    assert "deadline_exceeded=1" in lines[1] and "overloaded=2" in lines[1]
    assert tally.to_dict()["campaign_runs"]["errors"] == {"quarantined": 1}


def test_empty_tally_has_no_errors():
    assert Tally().error_rate() == 0.0


# -- self time over a hand-built span tree ------------------------------------


def _rec(span_id, parent, name, start, end, **labels):
    return SpanRecord(span_id, parent, name, start, end, labels=labels)


def _tree():
    # core.rank_importance [0, 10]
    #   ml.partial_dependence [1, 9]
    #     ml.forest_predict [2, 5] rows=16, ml.forest_predict [6, 8] rows=16
    #   ml.pca [9, 9.5]
    return [
        _rec(1, None, "core.rank_importance", 0.0, 10.0),
        _rec(2, 1, "ml.partial_dependence", 1.0, 9.0),
        _rec(3, 2, "ml.forest_predict", 2.0, 5.0, rows=16),
        _rec(4, 2, "ml.forest_predict", 6.0, 8.0, rows=16),
        _rec(5, 1, "ml.pca", 9.0, 9.5),
    ]


def test_layer_metrics_take_self_time_from_span_totals():
    m = probes.layer_metrics(_tree())
    assert m["core.rank_importance_s"] == pytest.approx(10 - 8 - 0.5)
    assert m["core.rank_importance_total_s"] == pytest.approx(10.0)
    assert m["ml.partial_dependence_s"] == pytest.approx(8 - 5)
    assert m["ml.partial_dependence_total_s"] == pytest.approx(8.0)
    assert m["ml.forest_predict_s"] == pytest.approx(5.0)
    assert m["ml.forest_predict_rows"] == 32
    assert m["ml.partial_dependence_calls"] == 1
    assert m["gpusim.launches"] == 0 and m["serve.cache_hit_ratio"] == 0


def test_ranking_and_hot_path_skip_benchmark_spans():
    records = [_rec(9, None, "bench.iteration", -1.0, 20.0)] + _tree()
    records[1].parent_id = 9
    ranking = probes.self_time_ranking(records)
    assert [row[0] for row in ranking][:2] == [
        "ml.forest_predict", "ml.partial_dependence"]
    assert probes.hot_path(records) == [
        "ml.forest_predict", "ml.partial_dependence", "core.rank_importance",
        "bench.iteration"]


def test_serve_derived_metrics():
    records = [
        _rec(1, None, "serve.handle", 0.0, 1.0, lines=1, queue_wait_s=[0.002]),
        _rec(2, None, "serve.handle", 1.0, 2.0, lines=3,
             queue_wait_s=[0.004, 0.006, 0.010]),
        _rec(3, 1, "serve.cache_get", 0.1, 0.2, hit=False),
        _rec(4, 2, "serve.cache_get", 1.1, 1.2, hit=True),
    ]
    m = probes.layer_metrics(records)
    assert m["serve.passes"] == 2
    assert m["serve.rows_per_pass"] == 2.0
    assert m["serve.queue_wait_ms"] == pytest.approx(5.0)
    assert m["serve.cache_hit_ratio"] == 0.5


def test_server_spans_round_trip_and_graft_under_their_request(tmp_path):
    tracer = tracing.SpanTracer()
    with tracer.span("bench.request", id="0-7"):
        pass
    server = [
        _rec(1, None, "serve.handle", 0.0, 1.0, ids=["0-7"]),
        _rec(2, 1, "ml.forest_predict", 0.1, 0.9),
        _rec(3, None, "serve.handle", 2.0, 3.0, ids=["unknown"]),
    ]
    path = str(tmp_path / "spans.jsonl.gz")
    tracing.dump_records(server, path)
    assert tracing.load_records(path) == server
    tracing.graft_server_spans(tracer, tracing.load_records(path))
    by_name = {}
    for rec in tracer.records:
        by_name.setdefault(rec.name, []).append(rec)
    request = by_name["bench.request"][0]
    grafted, orphan = sorted(by_name["serve.handle"], key=lambda r: r.start_s)
    assert grafted.parent_id == request.span_id
    assert orphan.parent_id is None
    assert by_name["ml.forest_predict"][0].parent_id == grafted.span_id


# -- wrappers restore the originals -------------------------------------------


class _Base:
    def inherited(self, x):
        return x + 1


class _Target(_Base):
    def own(self, x):
        return self.inherited(x) * 2


def _module_function(x):
    return -x


def test_instrument_records_nested_spans_and_restores_originals():
    import sys

    module = sys.modules[__name__]
    own, fn = _Target.__dict__["own"], module._module_function
    tracer = tracing.SpanTracer()
    probe_list = [
        tracing.Probe(_Target, "own", "t.own",
                      before=lambda a, k: {"x": a[1]}),
        tracing.Probe(_Target, "inherited", "t.inherited",
                      after=lambda r, a, k: {"result": r}),
        tracing.Probe(module, "_module_function", "t.fn"),
    ]
    with tracing.instrument(tracer, probe_list):
        assert _Target().own(2) == 6
        assert module._module_function(3) == -3
    assert _Target.__dict__["own"] is own
    assert "inherited" not in _Target.__dict__
    assert module._module_function is fn
    outer, inner, free = tracer.records
    assert (outer.name, inner.name, free.name) == ("t.own", "t.inherited", "t.fn")
    assert inner.parent_id == outer.span_id and free.parent_id is None
    assert outer.labels == {"x": 2} and inner.labels == {"result": 3}
    _Target().own(1)
    assert len(tracer.records) == 3  # nothing recorded once restored


def test_instrument_restores_after_an_exception():
    own = _Target.__dict__["own"]
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.SpanTracer(),
                                [tracing.Probe(_Target, "own", "t.own")]):
            raise RuntimeError("boom")
    assert _Target.__dict__["own"] is own
    assert tracing._INSTALLED is None


def _square(x):
    return _module_function(x) * _module_function(x)


def test_fan_out_collects_worker_spans_under_process_map():
    import sys

    module = sys.modules[__name__]
    tracer = tracing.SpanTracer()
    probe_list = [
        tracing.Probe(module, "process_map", "parallel.process_map",
                      fan_out=True),
        tracing.Probe(module, "_module_function", "t.fn"),
    ]
    with tracing.instrument(tracer, probe_list):
        assert module.process_map(_square, [1, 2, 3], 2) == [1, 4, 9]
    fan = [r for r in tracer.records if r.name == "parallel.process_map"]
    workers = [r for r in tracer.records if r.name == "parallel.worker"]
    calls = [r for r in tracer.records if r.name == "t.fn"]
    assert len(fan) == 1 and fan[0].labels == {"tasks": 3}
    assert len(workers) == 3 and len(calls) == 6
    assert all(w.parent_id == fan[0].span_id for w in workers)
    assert {c.parent_id for c in calls} == {w.span_id for w in workers}
    assert all(w.pid != os.getpid() for w in workers)
    assert module.process_map is process_map


# -- a tiny seeded workload ---------------------------------------------------


class _TinyAnalyze(AnalyzeReduce1):
    trees = 12

    def build_inputs(self):
        super().build_inputs()
        self.problems = self.problems[::8]


def test_repeat_for_runs_at_least_once_and_honours_a_count():
    calls = []
    assert repeat_for(0.0, calls.append) == 1
    assert repeat_for(0.0, calls.append, count=3) == 3
    assert calls == [0, 0, 1, 2]


def test_tiny_pipeline_is_deterministic_and_traced_output_identical(tmp_path):
    wl = _TinyAnalyze(seed=5, work=tmp_path)
    wl.build_inputs()
    untraced = wl.run(0.0, count=2)
    assert untraced.iterations == 2
    assert all(c.ok for c in untraced.checks)
    assert {"workflow_s", "serve_rps", "serve_p50_ms", "serve_p99_ms",
            "heldout_ev", "predict_mre"} <= set(untraced.metrics)
    ops = untraced.tally.ops
    assert ops["campaign_runs"].attempted == 2 * len(wl.problems)
    assert ops["fits"].attempted == 2
    assert ops["queries"].attempted >= 2 * MIN_QUERIES
    assert untraced.tally.failed == 0
    tracer = tracing.SpanTracer()
    traced = wl.run(0.0, tracer=tracer, count=1)
    assert traced.fingerprint == untraced.fingerprint
    m = probes.layer_metrics(tracer.records)
    assert m["profiling.runs"] == len(wl.problems)
    assert m["ml.forest_fits"] == 4 and m["ml.trees_grown"] == 4 * 12
    assert m["ml.partial_dependence_calls"] > 0
    assert tracing._INSTALLED is None


def test_claims_are_gated_at_the_claim_seed_and_cached(tmp_path):
    wl = _TinyAnalyze(seed=0, work=tmp_path)
    wl.build_inputs()
    out = wl.run(0.0, count=1)
    first = wl.gated_claims(out, tmp_path, "key")
    assert [c.name for c in first] == [
        "fig2.bank_conflict_top5", "fig2.oob_ev", "fig2.heldout_ev"]
    other = _TinyAnalyze(seed=9, work=tmp_path)
    other.build_inputs()
    cached = other.gated_claims(other.run(0.0, count=1), tmp_path, "key")
    assert [(c.name, c.ok) for c in cached] == [(c.name, c.ok) for c in first]
    assert all("cached verdict" in c.detail for c in cached)


def test_span_tracer_keeps_one_parent_stack_per_thread():
    import threading

    tracer = tracing.SpanTracer()
    with tracer.span("outer") as outer:
        worker = threading.Thread(
            target=lambda: tracer.span("other").__exit__(None, None, None))
        worker.start()
        worker.join()
        with tracer.span("inner") as inner:
            pass
    other = tracer.find("other")[0]
    assert other.parent_id is None
    assert inner.parent_id == outer.span_id


def test_peak_memory_sees_an_allocation():
    from stats import PeakMemory, with_children

    with PeakMemory(lambda: with_children(os.getpid()), 0.01) as memory:
        block = np.ones(16 * 1024 * 1024 // 8)
        block[::512] = 2.0
        before = memory.peak_mb
    assert memory.samples >= 2
    assert memory.peak_mb >= before > 0
    assert memory.peak_mb > 16
