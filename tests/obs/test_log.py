"""Tests for the structured event log (repro.obs.log)."""

import json

import pytest

from repro.obs import (
    Event,
    EventLog,
    current_event_log,
    emit,
    event_log,
    read_events,
    span,
    trace,
)
from repro.obs.log import SCHEMA


class TestDisabledDefault:
    def test_disabled_by_default(self):
        assert current_event_log() is None

    def test_emit_is_noop_when_disabled(self):
        emit("campaign.retry", attempt=1)
        assert current_event_log() is None


class TestEventLog:
    def test_emit_records_kind_and_fields(self):
        log = EventLog()
        event = log.emit("fit.start", kernel="mm", arch="GTX580")
        assert event.kind == "fit.start"
        assert event.fields == {"kernel": "mm", "arch": "GTX580"}
        assert len(log) == 1

    def test_seq_is_monotonic(self):
        log = EventLog()
        events = [log.emit("tick") for _ in range(3)]
        assert [e.seq for e in events] == [1, 2, 3]

    def test_kinds_and_find(self):
        log = EventLog()
        log.emit("a")
        log.emit("b", x=1)
        log.emit("a")
        assert log.kinds() == {"a", "b"}
        assert len(log.find("a")) == 2
        assert log.find("b")[0].fields == {"x": 1}

    def test_span_id_correlates_with_active_span(self):
        log = EventLog()
        with trace() as tracer:
            with span("outer"):
                log.emit("inside")
            log.emit("outside")
        inside, outside = log.events
        outer = next(r for r in tracer.records if r.name == "outer")
        assert inside.span_id == outer.span_id
        assert outside.span_id is None

    def test_no_span_id_without_tracer(self):
        log = EventLog()
        assert log.emit("lonely").span_id is None


class TestModuleState:
    def test_event_log_installs_and_restores(self):
        with event_log() as log:
            assert current_event_log() is log
            emit("seen", n=1)
        assert current_event_log() is None
        assert log.kinds() == {"seen"}

    def test_nested_event_log_shadows(self):
        with event_log() as outer:
            emit("tick")
            with event_log() as inner:
                emit("tick")
            emit("tick")
        assert len(outer) == 2
        assert len(inner) == 1

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with event_log():
                raise RuntimeError("boom")
        assert current_event_log() is None


class TestMerge:
    def test_merge_sorts_by_timestamp(self):
        log = EventLog()
        log.events = [Event("late", t_s=5.0, seq=1, pid=1)]
        log.merge([
            Event("early", t_s=1.0, seq=1, pid=2),
            Event("mid", t_s=3.0, seq=2, pid=2),
        ])
        assert [e.kind for e in log.events] == ["early", "mid", "late"]

    def test_merge_order_independent(self):
        # Whatever order worker chunks resolve in, the merged stream is
        # identical — the report timeline depends on it.
        chunks = [
            [Event("a", t_s=2.0, seq=1, pid=10)],
            [Event("b", t_s=1.0, seq=1, pid=20)],
            [Event("c", t_s=1.0, seq=1, pid=5)],
        ]
        fwd, rev = EventLog(), EventLog()
        for chunk in chunks:
            fwd.merge(chunk)
        for chunk in reversed(chunks):
            rev.merge(chunk)
        assert [e.kind for e in fwd.events] == [e.kind for e in rev.events]
        assert [e.kind for e in fwd.events] == ["c", "b", "a"]

    def test_tie_break_by_pid_then_seq(self):
        log = EventLog()
        log.merge([
            Event("y", t_s=1.0, seq=2, pid=7),
            Event("x", t_s=1.0, seq=1, pid=7),
            Event("w", t_s=1.0, seq=9, pid=3),
        ])
        assert [e.kind for e in log.events] == ["w", "x", "y"]


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with event_log(path) as log:
            emit("fit.start", kernel="mm")
            emit("fit.end", oob=0.5)
        loaded = read_events(path)
        assert [e.kind for e in loaded] == ["fit.start", "fit.end"]
        assert loaded[0].fields == {"kernel": "mm"}
        assert loaded[1].fields == {"oob": 0.5}
        assert [e.seq for e in loaded] == [e.seq for e in log.events]

    def test_merge_appends_to_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("local")
        log.merge([Event("remote", t_s=0.0, seq=1, pid=99)])
        kinds = {e.kind for e in read_events(path)}
        assert kinds == {"local", "remote"}

    def test_sink_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        EventLog(path).emit("tick")
        assert len(read_events(path)) == 1

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"schema": "repro-events/99"}) + "\n")
        with pytest.raises(ValueError, match="unknown schema"):
            read_events(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with event_log(path):
            emit("one")
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert [e.kind for e in read_events(path)] == ["one"]

    def test_line_schema_tag(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with event_log(path):
            emit("tick")
        data = json.loads(path.read_text().splitlines()[0])
        assert data["schema"] == SCHEMA


class TestPipelineEmitsEvents:
    def test_campaign_and_fit_lifecycle(self):
        from repro.core import BlackForest
        from repro.gpusim import GTX580
        from repro.kernels import ReductionKernel

        from repro.profiling import Campaign

        with event_log() as log:
            campaign = Campaign(
                ReductionKernel(1), GTX580, rng=0
            ).run(problems=[1 << 12, 1 << 14, 1 << 16, 1 << 18],
                  replicates=2)
            BlackForest(n_trees=10, importance_repeats=1, rng=1).fit(
                campaign
            )
        kinds = log.kinds()
        assert "campaign.start" in kinds
        assert "campaign.end" in kinds
        assert "profiler.launch" in kinds
        assert "fit.start" in kinds
        assert "fit.end" in kinds
        fit_end = log.find("fit.end")[0]
        assert fit_end.fields["stage"] == "blackforest"
        assert "oob_explained_variance" in fit_end.fields

    def test_no_events_collected_when_disabled(self):
        from repro.gpusim import GTX580
        from repro.kernels import ReductionKernel
        from repro.profiling import Campaign

        Campaign(ReductionKernel(1), GTX580, rng=0).run(
            problems=[4096], replicates=1
        )
        assert current_event_log() is None
