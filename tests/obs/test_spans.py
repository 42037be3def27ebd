"""Tests for the hierarchical tracing spans (repro.obs.spans)."""

import pytest

from repro.obs import (
    SpanRecord,
    Tracer,
    current_tracer,
    span,
    trace,
)
from repro.obs.spans import _NOOP


class TestDisabledDefault:
    def test_tracing_disabled_by_default(self):
        assert current_tracer() is None

    def test_span_is_shared_noop_singleton(self):
        # the no-op path must not allocate per call
        assert span("anything") is _NOOP
        assert span("other", k=1) is _NOOP

    def test_noop_span_is_context_manager(self):
        with span("outer"):
            with span("inner", label="x"):
                pass


class TestTracer:
    def test_records_nested_spans(self):
        with trace() as tracer:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        names = [r.name for r in tracer.records]
        assert names == ["a", "b", "c"]  # recorded in open order
        a = tracer.find("a")[0]
        b = tracer.find("b")[0]
        c = tracer.find("c")[0]
        assert b.parent_id == a.span_id
        assert a.parent_id is None
        assert c.parent_id is None

    def test_labels_and_duration(self):
        with trace() as tracer:
            with span("op", kernel="mm", n=3):
                pass
        rec = tracer.records[0]
        assert rec.labels == {"kernel": "mm", "n": 3}
        assert rec.duration_s >= 0.0

    def test_trace_context_restores_previous(self):
        assert current_tracer() is None
        with trace() as outer:
            assert current_tracer() is outer
            with trace() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_children_of(self):
        with trace() as tracer:
            with span("root"):
                with span("kid"):
                    pass
                with span("kid"):
                    pass
        root = tracer.find("root")[0]
        assert len(tracer.children_of(root.span_id)) == 2


class TestAdopt:
    def test_adopt_remaps_ids_under_parent(self):
        child = Tracer()
        prev = current_tracer()
        with trace() as parent:
            with span("parent.op"):
                # simulate a worker recording independently
                with _install(child):
                    with span("worker.op"):
                        with span("worker.inner"):
                            pass
                parent.adopt(child.records)
        assert current_tracer() is prev
        worker = parent.find("worker.op")[0]
        inner = parent.find("worker.inner")[0]
        parent_op = parent.find("parent.op")[0]
        assert worker.parent_id == parent_op.span_id
        assert inner.parent_id == worker.span_id
        ids = [r.span_id for r in parent.records]
        assert len(ids) == len(set(ids))


class _install:
    """Temporarily swap the active tracer (worker simulation)."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        import repro.obs.spans as spans

        self.prev = spans._ACTIVE
        spans._ACTIVE = self.tracer
        return self.tracer

    def __exit__(self, *exc):
        import repro.obs.spans as spans

        spans._ACTIVE = self.prev
        return False


class TestSpanRecord:
    def test_duration(self):
        rec = SpanRecord(
            span_id=1, parent_id=None, name="x",
            start_s=1.0, end_s=3.5, labels={}, pid=0,
        )
        assert rec.duration_s == pytest.approx(2.5)
