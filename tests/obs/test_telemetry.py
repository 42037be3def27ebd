"""Tests for the telemetry exporter and exposition (repro.obs.telemetry)."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    TelemetryExporter,
    read_telemetry,
    render_prometheus,
    snapshot_doc,
)
from repro.obs.telemetry import SCHEMA


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("requests", 3)
    reg.inc("hits", kind="load")
    reg.set_gauge("depth", 7)
    for v in (0.01, 0.02, 0.4):
        reg.observe("step", v)
    return reg


class TestSnapshotDoc:
    def test_shape(self):
        doc = snapshot_doc(make_registry())
        assert doc["counters"]["requests"] == pytest.approx(3.0)
        assert doc["counters"]["hits{kind=load}"] == pytest.approx(1.0)
        assert doc["gauges"]["depth"] == pytest.approx(7.0)
        timer = doc["timers"]["step"]
        assert timer["count"] == 3
        assert timer["exact"] is True
        assert timer["buckets"][-1][1] == 3

    def test_json_serializable(self):
        json.dumps(snapshot_doc(make_registry()))


class TestExporter:
    def test_export_once_round_trips(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        reg = make_registry()
        exp = TelemetryExporter(path, lambda: snapshot_doc(reg))
        exp.export_once()
        exp.export_once()
        records = read_telemetry(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["schema"] == SCHEMA
        assert records[0]["source"] == "serve"
        assert records[0]["counters"]["requests"] == pytest.approx(3.0)

    def test_provenance_stamped_on_first_record_only(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        exp = TelemetryExporter(path, dict)
        exp.export_once()
        exp.export_once()
        records = read_telemetry(path)
        assert "provenance" in records[0]
        assert "git_rev" in records[0]["provenance"]
        assert "provenance" not in records[1]

    def test_extra_section_lands_in_the_record(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        exp = TelemetryExporter(path, dict, source="campaign")
        exp.export_once(extra={"progress": {"completed": 2, "total": 4}})
        [record] = read_telemetry(path)
        assert record["source"] == "campaign"
        assert record["progress"] == {"completed": 2, "total": 4}

    def test_rotation_keeps_jsonl_suffix(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        exp = TelemetryExporter(path, dict, max_bytes=1, max_files=2)
        for _ in range(4):
            exp.export_once()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "telemetry.1.jsonl", "telemetry.2.jsonl", "telemetry.jsonl",
        ]
        # Every generation is independently readable (each rotation
        # restamps provenance on the new live file).
        for name in names:
            records = read_telemetry(tmp_path / name)
            assert records
            assert "provenance" in records[0]

    def test_rotation_drops_the_oldest_generation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        exp = TelemetryExporter(path, dict, max_bytes=1, max_files=1)
        for _ in range(5):
            exp.export_once()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["t.1.jsonl", "t.jsonl"]
        # Sequence numbers never reset across rotations.
        assert read_telemetry(tmp_path / "t.jsonl")[0]["seq"] == 4

    def test_schema_drift_is_refused(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"schema": "other/1"}\n')
        with pytest.raises(ValueError, match="unknown schema"):
            read_telemetry(path)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_telemetry(tmp_path / "nope.jsonl") == []

    def test_sample_swallows_and_counts_failures(self, tmp_path):
        def broken():
            raise RuntimeError("mid-reload race")

        exp = TelemetryExporter(tmp_path / "t.jsonl", broken)
        exp.sample()
        exp.sample()
        assert exp.export_errors == 2
        assert read_telemetry(tmp_path / "t.jsonl") == []

    def test_background_thread_samples_and_stops(self, tmp_path):
        path = tmp_path / "t.jsonl"
        exp = TelemetryExporter(path, dict, interval_s=0.01)
        exp.start()
        try:
            import time

            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            exp.stop()
        # stop() flushes a final record even if the thread never fired.
        assert len(read_telemetry(path)) >= 1

    def test_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryExporter(tmp_path / "t.jsonl", dict, interval_s=0)
        with pytest.raises(ValueError):
            TelemetryExporter(tmp_path / "t.jsonl", dict, max_bytes=0)
        with pytest.raises(ValueError):
            TelemetryExporter(tmp_path / "t.jsonl", dict, max_files=0)


class TestPrometheusRendering:
    def test_families(self):
        text = render_prometheus(snapshot_doc(make_registry()))
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_hits_total{kind="load"} 1' in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_step_seconds histogram" in text
        assert 'repro_step_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_step_seconds_count 3" in text
        assert "repro_step_seconds_sum 0.43" in text

    def test_breakers_and_server_sections(self):
        doc = {
            "counters": {},
            "gauges": {},
            "timers": {},
            "breakers": {"gemm@volta": "open"},
            "server": {"requests_served": 12, "draining": 0},
        }
        text = render_prometheus(doc)
        assert (
            'repro_breaker_state{key="gemm@volta",state="open"} 1' in text
        )
        assert "repro_server_requests_served 12" in text

    def test_rendering_is_deterministic(self):
        doc = snapshot_doc(make_registry())
        assert render_prometheus(doc) == render_prometheus(
            json.loads(json.dumps(doc))
        )


class TestCampaignHeartbeat:
    def test_campaign_run_emits_progress(self, tmp_path):
        from repro.gpusim import GTX580
        from repro.profiling.campaign import Campaign
        from repro import kernel_registry

        kernel = kernel_registry()["reduce1"]
        path = tmp_path / "heartbeat.jsonl"
        result = Campaign(kernel, GTX580, rng=0).run(
            problems=[1024, 2048], telemetry=str(path)
        )
        assert len(result.records) == 2
        records = read_telemetry(path)
        assert records, "campaign heartbeat journal is empty"
        assert all(r["source"] == "campaign" for r in records)
        last = records[-1]["progress"]
        assert last["total"] == 2
        assert last["completed"] == 2
        assert last["quarantined"] == 0

    def test_campaign_results_identical_with_telemetry(self, tmp_path):
        from repro.gpusim import GTX580
        from repro.profiling.campaign import Campaign
        from repro import kernel_registry

        kernel = kernel_registry()["reduce1"]
        plain = Campaign(kernel, GTX580, rng=0).run(problems=[1024])
        observed = Campaign(kernel, GTX580, rng=0).run(
            problems=[1024], telemetry=str(tmp_path / "t.jsonl")
        )
        assert [r.counters for r in plain.records] == [
            r.counters for r in observed.records
        ]
        assert [r.time_s for r in plain.records] == [
            r.time_s for r in observed.records
        ]
