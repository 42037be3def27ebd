"""Tests for the flight recorder: a bounded EventLog ring and its
``repro-flightrec/1`` dump (repro.obs.log)."""

import json

import pytest

from repro.obs import EventLog, read_flightrec
from repro.obs.log import FLIGHTREC_SCHEMA, SCHEMA


class TestRing:
    def test_bounded_capacity_keeps_newest(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("serve.request", i=i)
        assert len(log) == 4
        assert [e.fields["i"] for e in log.events] == [6, 7, 8, 9]

    def test_sequence_and_drop_accounting(self, tmp_path):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("x")
        assert (log.recorded, log.dropped) == (5, 2)
        doc = json.loads(log.dump(tmp_path / "f.json", "test").read_text())
        assert doc["capacity"] == 3
        assert doc["recorded"] == 5
        assert doc["dropped"] == 2
        assert [e["seq"] for e in doc["events"]] == [3, 4, 5]

    def test_field_named_kind_is_allowed(self):
        # The server's error events carry a 'kind' field; it must not
        # collide with the event kind itself.
        log = EventLog(capacity=8)
        log.emit("serve.error", kind="internal_error", code=-32603)
        [event] = log.events
        assert event.kind == "serve.error"
        assert event.fields["kind"] == "internal_error"

    def test_events_returns_a_copy(self):
        log = EventLog(capacity=8)
        log.emit("a")
        found = log.find("a")
        log.emit("a")
        assert len(found) == 1
        assert len(log.find("a")) == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestDump:
    def test_dump_writes_a_valid_artifact(self, tmp_path):
        path = tmp_path / "flightrec.json"
        log = EventLog(capacity=8)
        log.emit("serve.breaker", state="open", model="gemm@volta")
        assert log.dump(path, "sigterm") == path
        doc = read_flightrec(path)
        assert doc["schema"] == FLIGHTREC_SCHEMA
        assert doc["reason"] == "sigterm"
        assert doc["dump_count"] == 1
        [event] = doc["events"]
        # Ring entries are repro-events/1 event dicts.
        assert event["schema"] == SCHEMA
        assert event["kind"] == "serve.breaker"
        assert event["fields"]["model"] == "gemm@volta"
        assert {"seq", "t_s"} <= set(event)
        assert "git_rev" in doc["provenance"]

    def test_dump_replaces_and_counts(self, tmp_path):
        path = tmp_path / "f.json"
        log = EventLog(capacity=8)
        log.emit("a")
        log.dump(path, "worker_exception")
        log.emit("b")
        log.dump(path, "sigterm")
        doc = read_flightrec(path)
        assert doc["reason"] == "sigterm"
        assert doc["dump_count"] == 2
        assert len(doc["events"]) == 2

    def test_dump_once_is_edge_triggered(self, tmp_path):
        path = tmp_path / "f.json"
        log = EventLog(capacity=8)
        log.emit("serve.breaker", state="open")
        assert log.dump_once(path, "breaker_open") == path
        log.emit("serve.breaker", state="open")
        # A flapping breaker must not overwrite first-failure state.
        assert log.dump_once(path, "breaker_open") is None
        doc = read_flightrec(path)
        assert doc["dump_count"] == 1
        assert len(doc["events"]) == 1

    def test_dump_after_dump_once_still_works(self, tmp_path):
        # SIGTERM after a breaker-open dump must still capture the
        # (newer) ring: dump() is unconditional.
        path = tmp_path / "f.json"
        log = EventLog(capacity=8)
        log.emit("serve.breaker", state="open")
        log.dump_once(path, "breaker_open")
        log.emit("serve.signal", signum=15)
        log.dump(path, "sigterm")
        doc = read_flightrec(path)
        assert doc["reason"] == "sigterm"
        assert doc["dump_count"] == 2

    def test_no_tmp_file_left_behind(self, tmp_path):
        log = EventLog(capacity=8)
        log.emit("a")
        log.dump(tmp_path / "f.json", "test")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_read_refuses_foreign_schema(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="unknown flight-recorder"):
            read_flightrec(path)

    def test_read_refuses_missing_fields(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema": FLIGHTREC_SCHEMA, "reason": "x"}))
        with pytest.raises(ValueError, match="does not conform"):
            read_flightrec(path)


class TestServerIntegration:
    def test_breaker_open_dumps_exactly_once(self, tmp_path):
        # Unit-level mirror of the chaos --serve assertion: corrupt the
        # stored fit so the server's breaker opens, and check the one
        # edge-triggered dump of its event ring.
        from repro.faults import FaultPlan, FaultSpec, fault_injection
        from repro.serve import FitRegistry, PredictionServer

        from ..serve.conftest import FEATURES, make_servable

        registry = FitRegistry(tmp_path / "models")
        registry.publish(make_servable(kernel="k", arch="a", trees=4))
        path = tmp_path / "flightrec.json"
        server = PredictionServer(
            registry, breaker_threshold=2, breaker_cooldown=2,
            flightrec_path=str(path),
        )
        line = json.dumps({
            "id": "r1", "method": "predict",
            "params": {"kernel": "k", "arch": "a",
                       "X": [[1.0] * len(FEATURES)]},
        })
        plan = FaultPlan(
            [FaultSpec("registry.load", "corrupt", payload={"times": 4})],
            seed=0,
        )
        with fault_injection(plan):
            for _ in range(6):
                server.handle_batch([line])
        doc = read_flightrec(path)
        assert doc["reason"] == "breaker_open"
        assert doc["dump_count"] == 1
        kinds = {e["kind"] for e in doc["events"]}
        assert "serve.error" in kinds
