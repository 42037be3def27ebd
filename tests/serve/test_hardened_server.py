"""Integration tests for the production hardening of the prediction server.

Covers the standing guarantee (N concurrent TCP clients receive
byte-identical responses to the serial server) and each robustness
feature both positively and negatively: deadlines, load shedding,
graceful drain, hot reload, and the circuit breaker under injected
``registry.load`` corruption.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultSpec, fault_injection
from repro.serve import (
    FitRegistry,
    PredictionClient,
    PredictionServer,
    parse_ready_line,
    ready_line,
    serve_tcp,
)
from repro.serve.server import READY_PREFIX

from .conftest import FEATURES, make_servable


def _predict_line(rid, kernel="gemm", arch="volta", rows=1, seed=7, **extra):
    rng = np.random.default_rng(seed)
    params = {
        "kernel": kernel,
        "arch": arch,
        "X": rng.uniform(size=(rows, len(FEATURES))).tolist(),
    }
    params.update(extra)
    return json.dumps(
        {"id": rid, "method": "predict", "params": params}, sort_keys=True
    )


def _error_kind(line):
    return json.loads(line)["error"]["kind"]


def _start_tcp(server, **kwargs):
    """serve_tcp on an ephemeral port; returns ((host, port), thread)."""
    ready = threading.Event()
    addr = {}

    def on_ready(host, port):
        addr["hp"] = (host, port)
        ready.set()

    thread = threading.Thread(
        target=serve_tcp,
        args=(server, "127.0.0.1", 0),
        kwargs={"on_ready": on_ready, "announce": False, **kwargs},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "frontend never became ready"
    return addr["hp"], thread


def _shutdown(hp):
    with socket.create_connection(hp, timeout=5) as conn:
        rf, wf = conn.makefile("r"), conn.makefile("w")
        wf.write(json.dumps({"id": "stop", "method": "shutdown"}) + "\n")
        wf.flush()
        return rf.readline()


class TestReadyLine:
    def test_round_trip(self):
        assert parse_ready_line(ready_line("127.0.0.1", 43117)) == (
            "127.0.0.1",
            43117,
        )

    def test_rejects_noise(self):
        assert parse_ready_line("starting up...") is None
        assert parse_ready_line(f"{READY_PREFIX} host=x port=notaport") is None
        assert parse_ready_line("") is None

    def test_frontend_announces_once_after_bind(self, registry, capsys):
        server = PredictionServer(registry)
        hp, thread = _start_tcp(server, announce=True, workers=1)
        _shutdown(hp)
        thread.join(timeout=10)
        ready_lines = [
            ln
            for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(READY_PREFIX)
        ]
        assert len(ready_lines) == 1
        assert parse_ready_line(ready_lines[0]) == hp


class TestDeadlines:
    def test_expired_deadline_is_refused_typed(self, registry):
        server = PredictionServer(registry)
        line = _predict_line("d1", deadline_ms=50)
        # Arrival stamped 10 s in the past: the 50 ms budget is long gone.
        out = server.handle_lines([line], [time.monotonic() - 10.0])
        assert _error_kind(out[0]) == "deadline_exceeded"
        assert server.metrics.counters.get(("serve.timeouts",), 0) == 1

    def test_generous_deadline_is_served(self, registry):
        server = PredictionServer(registry)
        out = server.handle_lines(
            [_predict_line("d2", deadline_ms=60_000)], [time.monotonic()]
        )
        assert "result" in json.loads(out[0])

    def test_server_default_timeout_applies(self, registry):
        server = PredictionServer(registry, request_timeout_s=0.05)
        out = server.handle_lines(
            [_predict_line("d3")], [time.monotonic() - 1.0]
        )
        assert _error_kind(out[0]) == "deadline_exceeded"

    def test_no_deadline_means_no_timeout(self, registry):
        server = PredictionServer(registry)  # request_timeout_s=None
        out = server.handle_lines(
            [_predict_line("d4")], [time.monotonic() - 60.0]
        )
        assert "result" in json.loads(out[0])

    @pytest.mark.parametrize("bad", ["soon", 0, -5, True])
    def test_invalid_deadline_is_invalid_params(self, registry, bad):
        server = PredictionServer(registry)
        out = server.handle_batch([_predict_line("d5", deadline_ms=bad)])
        assert _error_kind(out[0]) == "invalid_params"


class TestFaultSiteServeRequest:
    def test_raise_mode_yields_typed_internal_error(self, registry):
        server = PredictionServer(registry)
        plan = FaultPlan(
            specs=[FaultSpec("serve.request", "raise", match={"method": "predict"})]
        )
        with fault_injection(plan):
            out = server.handle_batch([_predict_line("f1"), '{"id":"p","method":"ping"}'])
        assert _error_kind(out[0]) == "internal_error"
        assert "injected fault" in json.loads(out[0])["error"]["message"]
        # The non-matching method is untouched.
        assert json.loads(out[1])["result"]["ok"] is True

    def test_delay_mode_still_serves(self, registry):
        server = PredictionServer(registry)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "serve.request", "delay", payload={"seconds": 0.01}
                )
            ]
        )
        with fault_injection(plan):
            t0 = time.monotonic()
            out = server.handle_batch([_predict_line("f2")])
            elapsed = time.monotonic() - t0
        assert "result" in json.loads(out[0])
        assert elapsed >= 0.01


class TestBreakerUnderCorruption:
    """Injected ``registry.load`` corruption opens the breaker without
    killing the server, and a half-open probe recovers it once the
    fault burst ends."""

    def _server(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        reg.publish(make_servable())
        return PredictionServer(
            reg, breaker_threshold=2, breaker_cooldown=2
        )

    def test_open_then_probe_then_recover(self, tmp_path):
        server = self._server(tmp_path)
        plan = FaultPlan(
            specs=[
                FaultSpec("registry.load", "corrupt", payload={"times": 2})
            ]
        )
        kinds = []
        with fault_injection(plan):
            for i in range(6):
                out = server.handle_batch([_predict_line(f"b{i}")])
                resp = json.loads(out[0])
                kinds.append(
                    resp["error"]["kind"] if "error" in resp else "ok"
                )
        # Two corrupt loads open the breaker (threshold=2); rejection 1
        # short-circuits; rejection 2 converts request 4 into a probe,
        # which succeeds (the fault burst is exhausted) and closes it.
        assert kinds == [
            "registry_corrupt",
            "registry_corrupt",
            "breaker_open",
            "ok",
            "ok",
            "ok",
        ]
        counters = server.metrics.counters
        assert counters.get(("serve.breaker.open",), 0) == 1
        assert counters.get(("serve.breaker.half_open",), 0) == 1
        assert counters.get(("serve.breaker.close",), 0) == 1
        assert server.health()["ok"] is True

    def test_corruption_below_threshold_never_opens(self, tmp_path):
        server = self._server(tmp_path)
        plan = FaultPlan(
            specs=[
                FaultSpec("registry.load", "corrupt", payload={"times": 1})
            ]
        )
        with fault_injection(plan):
            first = server.handle_batch([_predict_line("c0")])
            second = server.handle_batch([_predict_line("c1")])
        assert _error_kind(first[0]) == "registry_corrupt"
        assert "result" in json.loads(second[0])
        assert server.breakers.summary() == {}

    def test_client_errors_never_trip_the_breaker(self, tmp_path):
        server = self._server(tmp_path)
        bad = json.dumps(
            {
                "id": "x",
                "method": "predict",
                "params": {"kernel": "gemm", "arch": "volta", "X": [[1.0]]},
            }
        )
        for _ in range(5):
            out = server.handle_batch([bad])
            assert _error_kind(out[0]) == "invalid_params"
        assert server.breakers.summary() == {}

    def test_missing_mode_is_model_not_found(self, tmp_path):
        server = self._server(tmp_path)
        plan = FaultPlan(
            specs=[
                FaultSpec("registry.load", "missing", payload={"times": 1})
            ]
        )
        with fault_injection(plan):
            out = server.handle_batch([_predict_line("m0")])
        assert _error_kind(out[0]) == "model_not_found"
        # A vanished artifact is not an integrity failure: no breaker.
        assert server.breakers.summary() == {}


class TestHotReload:
    def test_republish_invalidates_cache_and_bumps_digest(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        v1 = reg.publish(make_servable(seed=0))
        server = PredictionServer(reg)
        server.handle_batch([_predict_line("r0")])  # warm cache, prime watch
        digest_before = server.health()["registry_digest"]
        assert len(server.cache) == 1

        v2 = reg.publish(make_servable(seed=1))
        assert v1.version != v2.version
        changed = server.check_reload()
        assert changed == [v1.key.dirname]
        assert len(server.cache) == 0
        assert server.metrics.counters.get(("serve.reloads",), 0) == 1
        assert server.health()["registry_digest"] != digest_before

    def test_reload_happens_inside_the_request_loop(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        reg.publish(make_servable(seed=0))
        server = PredictionServer(reg)
        out1 = server.handle_batch([_predict_line("r1")])
        v2 = reg.publish(make_servable(seed=1))
        out2 = server.handle_batch([_predict_line("r2")])
        # The very next batch serves the republished version.
        assert json.loads(out2[0])["result"]["version"] == v2.version
        assert json.loads(out1[0])["result"]["version"] != v2.version
        assert server.metrics.counters.get(("serve.reloads",), 0) == 1

    def test_no_change_no_reload(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        reg.publish(make_servable())
        server = PredictionServer(reg)
        server.handle_batch([_predict_line("r3")])
        assert server.check_reload() == []
        assert server.metrics.counters.get(("serve.reloads",), 0) == 0

    def test_reload_resets_the_campaign_breaker(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        v1 = reg.publish(make_servable(seed=0))
        server = PredictionServer(reg, breaker_threshold=1)
        server.handle_batch([_predict_line("r5")])  # prime watch state
        plan = FaultPlan(
            specs=[
                FaultSpec("registry.load", "corrupt", payload={"times": 1})
            ]
        )
        server.cache.invalidate_key(v1.key.dirname)  # force a re-load
        with fault_injection(plan):
            out = server.handle_batch([_predict_line("r6")])
        assert _error_kind(out[0]) == "registry_corrupt"
        assert server.breakers.summary() != {}
        reg.publish(make_servable(seed=1))
        server.check_reload()
        assert server.breakers.summary() == {}


class TestDrain:
    def test_drain_is_idempotent_and_counts(self, registry):
        server = PredictionServer(registry)
        server.handle_batch([_predict_line("g0")])
        assert server.drained_count() == 0
        server.begin_drain()
        server.begin_drain()
        server.handle_batch([_predict_line("g1")])
        assert server.draining
        assert server.drained_count() == 1
        health = server.health()
        assert health["status"] == "draining"
        assert health["ok"] is False

    def test_tcp_drain_refuses_late_lines_and_finishes(self, registry):
        server = PredictionServer(registry)
        hp, thread = _start_tcp(server, workers=2)
        # A second connection opened BEFORE the drain begins.
        late = socket.create_connection(hp, timeout=5)
        lrf, lwf = late.makefile("r"), late.makefile("w")

        resp = json.loads(_shutdown(hp))
        assert resp["result"]["ok"] is True

        lwf.write(_predict_line("late") + "\n")
        lwf.flush()
        assert _error_kind(lrf.readline()) == "draining"
        late.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert server.draining

    def test_new_connections_refused_after_drain(self, registry):
        server = PredictionServer(registry)
        hp, thread = _start_tcp(server, workers=1)
        _shutdown(hp)
        thread.join(timeout=10)
        with pytest.raises(OSError):
            socket.create_connection(hp, timeout=0.5)


class TestShedding:
    def test_overload_sheds_typed_not_stalls(self, registry):
        server = PredictionServer(registry)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    "serve.request",
                    "delay",
                    match={"method": "predict"},
                    payload={"seconds": 0.05},
                )
            ]
        )
        with fault_injection(plan):
            hp, thread = _start_tcp(server, workers=1, queue_size=1)
            with socket.create_connection(hp, timeout=5) as conn:
                rf, wf = conn.makefile("r"), conn.makefile("w")
                # Pipeline a burst: worker busy on the first (delayed)
                # request, queue holds one, the rest must shed.
                burst = 8
                for i in range(burst):
                    wf.write(_predict_line(f"s{i}") + "\n")
                wf.flush()
                kinds = []
                for _ in range(burst):
                    resp = json.loads(rf.readline())
                    kinds.append(
                        resp["error"]["kind"] if "error" in resp else "ok"
                    )
            _shutdown(hp)
            thread.join(timeout=10)
        assert "overloaded" in kinds  # some were shed...
        assert "ok" in kinds  # ...but admitted work still finished
        shed = server.metrics.counters.get(("serve.shed",), 0)
        assert shed == kinds.count("overloaded")

    def test_no_shedding_under_capacity(self, registry):
        server = PredictionServer(registry)
        hp, thread = _start_tcp(server, workers=2, queue_size=64)
        with PredictionClient(*hp) as client:
            for _ in range(10):
                client.ping()
        _shutdown(hp)
        thread.join(timeout=10)
        assert server.metrics.counters.get(("serve.shed",), 0) == 0


class TestConcurrentBitIdentity:
    """The standing guarantee: 8 concurrent TCP clients receive
    responses byte-identical to the serial stdio server."""

    CLIENTS = 8
    PER_CLIENT = 6

    def _payloads(self):
        lines = {}
        for c in range(self.CLIENTS):
            for i in range(self.PER_CLIENT):
                rid = f"c{c}-{i}"
                kernel = "gemm" if (c + i) % 2 == 0 else "jacobi"
                lines[rid] = _predict_line(
                    rid, kernel=kernel, rows=1 + (i % 3), seed=100 * c + i
                )
        return lines

    def test_eight_clients_match_serial(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        reg.publish(make_servable(kernel="gemm"))
        reg.publish(make_servable(kernel="jacobi", seed=3))
        lines = self._payloads()

        # Serial reference: a fresh server handling one line at a time.
        serial = PredictionServer(reg)
        expected = {
            rid: serial.handle_batch([line])[0]
            for rid, line in lines.items()
        }

        server = PredictionServer(reg)
        hp, thread = _start_tcp(server, workers=4, queue_size=256)
        got = {}
        lock = threading.Lock()

        def client(c):
            with socket.create_connection(hp, timeout=10) as conn:
                rf, wf = conn.makefile("r"), conn.makefile("w")
                for i in range(self.PER_CLIENT):
                    rid = f"c{c}-{i}"
                    wf.write(lines[rid] + "\n")
                    wf.flush()
                    resp = rf.readline().rstrip("\n")
                    with lock:
                        got[json.loads(resp)["id"]] = resp

        threads = [
            threading.Thread(target=client, args=(c,))
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        _shutdown(hp)
        thread.join(timeout=10)

        assert got == expected  # byte-identical, every single response


class TestClient:
    def test_client_end_to_end(self, registry):
        server = PredictionServer(registry)
        hp, thread = _start_tcp(server, workers=2)
        with PredictionClient(*hp) as client:
            health = client.ping()
            assert health["status"] == "ready"
            result = client.predict(
                "gemm", "volta", X=[[0.1, 0.2, 0.3, 0.4]]
            )
            assert len(result["predictions"]) == 1
            models = client.models()["models"]
            assert models[0]["kernel"] == "gemm"
            resp = client.shutdown()
            assert resp["ok"] is True
        thread.join(timeout=10)
