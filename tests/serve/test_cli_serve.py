"""CLI wiring for ``repro publish`` and ``repro serve``."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_publish_defaults(self):
        args = build_parser().parse_args(["publish", "reduce1"])
        assert args.registry == "./models"
        assert args.response == "time"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.registry == "./models"
        assert args.max_batch == 32
        assert args.cache_size == 8
        assert args.socket is None


class TestPublishCommand:
    def test_publish_then_serve_roundtrip(
        self, tmp_path, capsys, monkeypatch
    ):
        registry = tmp_path / "models"
        rc = main([
            "publish", "reduce1", "--arch", "GTX580",
            "--registry", str(registry),
            "--sizes", "16384,65536,262144,1048576",
            "--trees", "10", "--format", "json",
        ])
        assert rc == 0
        published = json.loads(capsys.readouterr().out)
        assert published["kernel"] == "reduce1"
        assert (
            registry / "reduce1__GTX580" / published["version"] / "fit.json"
        ).exists()

        # Serve a query against the published fit over stdio.
        import io

        fit = json.loads(
            (registry / "reduce1__GTX580" / published["version"]
             / "fit.json").read_text()
        )
        row = {name: 1.0 for name in fit["feature_names"]}
        request = json.dumps({
            "id": 1, "method": "predict",
            "params": {"kernel": "reduce1", "arch": "GTX580", "rows": [row]},
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        rc = main(["serve", "--registry", str(registry)])
        assert rc == 0
        out = capsys.readouterr().out
        response = json.loads(out.splitlines()[-1])
        assert response["id"] == 1
        assert len(response["result"]["predictions"]) == 1

    def test_publish_unknown_kernel_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["publish", "definitely-not-a-kernel",
                  "--registry", str(tmp_path)])


class TestHardenedFlags:
    def test_serve_hardening_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 4
        assert args.queue_size == 64
        assert args.linger_ms == 0.0
        assert args.request_timeout is None
        assert args.breaker_threshold == 5
        assert args.breaker_cooldown == 8

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "ping"])
        assert args.connect == "127.0.0.1:7070"
        assert args.retries == 4
        assert args.timeout == 10.0

    def test_chaos_serve_flags(self):
        args = build_parser().parse_args([
            "chaos", "matrixMul", "--serve", "--clients", "4",
            "--requests", "24", "--corrupt-times", "3",
        ])
        assert args.serve is True
        assert args.clients == 4
        assert args.requests == 24
        assert args.corrupt_times == 3


class TestObservabilityFlags:
    def test_serve_telemetry_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.telemetry is None
        assert args.telemetry_interval == 5.0
        assert args.flight_recorder is None

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.connect == "127.0.0.1:7070"
        assert args.interval == 2.0
        assert args.once is False

    def test_chaos_campaign_telemetry_flag(self):
        args = build_parser().parse_args(
            ["chaos", "reduce1", "--telemetry", "hb.jsonl"]
        )
        assert args.telemetry == "hb.jsonl"

    def test_analyze_telemetry_flag(self):
        args = build_parser().parse_args(
            ["analyze", "reduce1", "--telemetry", "hb.jsonl"]
        )
        assert args.telemetry == "hb.jsonl"


@pytest.fixture()
def live_server(tmp_path):
    """A real serve_tcp frontend over a freshly published fit."""
    import threading

    import numpy as np

    from repro.ml.forest import RandomForestRegressor
    from repro.serve import (
        FitRegistry,
        PredictionServer,
        ServableFit,
        serve_tcp,
    )

    features = ["a", "b"]
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 2))
    y = X @ np.array([1.0, 2.0])
    forest = RandomForestRegressor(n_trees=8, rng=1).fit(
        X, y, feature_names=features
    )
    registry = FitRegistry(tmp_path / "models")
    registry.publish(ServableFit(
        kernel="cliKernel", arch="volta", tag=None, forest=forest,
        feature_names=features, source={"n_runs": 60},
    ))
    server = PredictionServer(registry)
    ready = threading.Event()
    addr = {}

    def on_ready(host, port):
        addr["hp"] = (host, port)
        ready.set()

    thread = threading.Thread(
        target=serve_tcp, args=(server, "127.0.0.1", 0),
        kwargs={"workers": 2, "on_ready": on_ready, "announce": False},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    yield addr["hp"]
    try:
        main([
            "query", "shutdown",
            "--connect", f"{addr['hp'][0]}:{addr['hp'][1]}",
        ])
    except SystemExit:
        pass
    thread.join(timeout=10)


class TestQueryCommand:
    def test_query_ping_and_predict(self, live_server, capsys):
        host, port = live_server
        rc = main([
            "query", "ping", "--connect", f"{host}:{port}",
            "--format", "json",
        ])
        assert rc == 0
        health = json.loads(capsys.readouterr().out)
        assert health["result"]["status"] == "ready"

        rc = main([
            "query", "predict", "cliKernel",
            "--connect", f"{host}:{port}",
            "--arch", "volta", "--X", "[[0.5, 0.5]]",
            "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["result"]["predictions"]) == 1

    def test_query_unknown_model_exits_nonzero(self, live_server, capsys):
        host, port = live_server
        rc = main([
            "query", "predict", "nope",
            "--connect", f"{host}:{port}",
            "--arch", "volta", "--X", "[[0.5, 0.5]]",
            "--format", "json",
        ])
        assert rc == 1

    def test_query_connection_refused_exits_nonzero(self):
        # Nothing listens on this port; the client's retries exhaust.
        rc = main([
            "query", "ping", "--connect", "127.0.0.1:1",
            "--retries", "1",
        ])
        assert rc == 1

    def test_query_telemetry_method(self, live_server, capsys):
        host, port = live_server
        rc = main([
            "query", "telemetry", "--connect", f"{host}:{port}",
            "--format", "json",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "counters" in out["result"]["telemetry"]


class TestTopCommand:
    def test_top_once_json(self, live_server, capsys):
        host, port = live_server
        # Generate one request so the dashboard has a latency series.
        main([
            "query", "predict", "cliKernel",
            "--connect", f"{host}:{port}",
            "--arch", "volta", "--X", "[[0.5, 0.5]]",
        ])
        capsys.readouterr()
        rc = main([
            "top", "--connect", f"{host}:{port}", "--once",
            "--format", "json",
        ])
        assert rc == 0
        frame = json.loads(capsys.readouterr().out)
        doc = frame["telemetry"]
        assert doc["server"]["requests_served"] >= 1
        assert any(
            key.startswith("serve.request") for key in doc["timers"]
        )

    def test_top_once_text(self, live_server, capsys):
        host, port = live_server
        rc = main(["top", "--connect", f"{host}:{port}", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "qps" in out and "cache" in out

    def test_top_connection_refused_exits_nonzero(self, capsys):
        rc = main(["top", "--connect", "127.0.0.1:1", "--once"])
        assert rc == 1


class TestChaosServeCommand:
    def test_serve_chaos_survives_and_stays_bit_identical(self, capsys):
        rc = main([
            "chaos", "matrixMul", "--serve",
            "--sizes", "64,128,256,512", "--trees", "8",
            "--clients", "2", "--requests", "8",
            "--corrupt-times", "2", "--retries", "3",
            "--format", "json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bit_identical"] is True
        assert report["clean_shutdown"] is True
        # The injected corruption surfaced as typed errors, not crashes.
        assert report["typed_errors"].get("registry_corrupt", 0) >= 1
        assert report["faults_fired"].get("registry.load:corrupt") == 2
        assert report["lost"] == {}
        assert report["unanswered"] == []
        # Flight-recorder leg: the ring saw traffic; with corruption
        # below the breaker threshold there must be NO dump artifact.
        flight = report["flight_recorder"]
        assert flight["problems"] == []
        assert flight["ring_events"] > 0
        assert flight["breaker_opens"] == 0
        assert flight["dump_reason"] is None
