"""The server's one event stream: every occurrence lands exactly once in
its bounded ``EventLog`` ring under a ``serve.*`` kind, and the
reader-thread and sampler-thread paths touch the server's metrics
safely."""

import io
import sys
import threading
import time

from repro.faults.plan import FaultPlan, FaultSpec, fault_injection
from repro.obs import read_flightrec
from repro.serve import FitRegistry, PredictionServer, serve_stdio
from repro.serve.server import OVERLOADED

from .conftest import make_servable
from .test_hardened_server import _predict_line


def _tags(server):
    """Each ring event as ``(kind, distinguishing field)``."""
    tags = []
    for e in server.events.events:
        f = e.fields
        tag = f.get("kind") or f.get("state") or f.get("method")
        tags.append((e.kind, tag))
    return tags


class TestEachOccurrenceOnce:
    def test_one_event_per_occurrence(self, tmp_path):
        reg = FitRegistry(tmp_path / "models")
        reg.publish(make_servable(seed=0))
        dump = tmp_path / "flightrec.json"
        server = PredictionServer(
            reg, breaker_threshold=1, breaker_cooldown=1,
            flightrec_path=str(dump),
        )
        server.handle_batch([_predict_line("p1")])
        server.handle_batch(['{"id": "e1", "method": "nope"}'])
        assert server.reject_line(
            _predict_line("s1"), OVERLOADED, "queue full"
        )
        server.handle_lines(
            [_predict_line("t1", deadline_ms=1)], [time.monotonic() - 10.0]
        )
        # A re-publish is picked up by the next pass, whose re-load is
        # corrupt: the breaker opens, then the next request is its
        # half-open probe, which succeeds and closes it.
        reg.publish(make_servable(seed=1))
        plan = FaultPlan(
            [FaultSpec("registry.load", "corrupt", payload={"times": 1})]
        )
        with fault_injection(plan):
            server.handle_batch([_predict_line("b1")])
            server.handle_batch([_predict_line("b2")])
        server.handle_batch(['{"id": "x", "method": "shutdown"}'])

        assert _tags(server) == [
            ("serve.request", "predict"),
            ("serve.error", "method_not_found"),
            ("serve.shed", "predict"),
            ("serve.timeout", "predict"),
            ("serve.reload", None),
            ("serve.error", "registry_corrupt"),
            ("serve.breaker", "open"),
            ("serve.breaker", "half_open"),
            ("serve.request", "predict"),
            ("serve.breaker", "close"),
            ("serve.drain", None),
            ("serve.request", "shutdown"),
        ]
        assert [e.seq for e in server.events.events] == list(range(1, 13))
        # The breaker-open trigger dumped the ring as it stood then.
        doc = read_flightrec(dump)
        assert doc["reason"] == "breaker_open"
        assert doc["events"][-1]["kind"] == "serve.breaker"
        assert len(doc["events"]) == 7

    def test_stdio_loop_brackets_with_start_and_stop(self, registry):
        server = PredictionServer(registry)
        out = io.StringIO()
        serve_stdio(
            server, stdin=io.StringIO(_predict_line("p1") + "\n"), stdout=out
        )
        assert [e.kind for e in server.events.events] == [
            "serve.start", "serve.request", "serve.stop",
        ]

    def test_never_mirrors_into_ambient_windows(self, registry):
        from repro.obs import collect, event_log

        with collect() as metrics, event_log() as log:
            PredictionServer(registry).handle_batch([_predict_line("p1")])
        assert metrics.snapshot()["timer"] == {}
        assert not any(k.startswith("serve.") for k in log.kinds())


class TestThreadSafety:
    def test_sampler_snapshot_holds_the_server_lock(self, tmp_path, registry):
        server = PredictionServer(
            registry, telemetry_path=str(tmp_path / "telemetry.jsonl")
        )
        held = []
        summary = server.breakers.summary

        def spy():
            held.append(server._lock._is_owned())
            return summary()

        server.breakers.summary = spy
        sampler = threading.Thread(target=server.telemetry.sample)
        sampler.start()
        sampler.join()
        assert held == [True]
        assert server.telemetry.export_errors == 0

    def test_concurrent_sheds_lose_no_count_and_skip_the_server_lock(
        self, registry
    ):
        server = PredictionServer(registry)
        line = _predict_line("s")
        n_threads, per_thread = 8, 200
        guarded = []
        inc = server.metrics.inc

        def spy(name, *args, **labels):
            guarded.append(server._shed_lock.locked())
            inc(name, *args, **labels)

        server.metrics.inc = spy

        def shed():
            for _ in range(per_thread):
                server.reject_line(line, OVERLOADED, "queue full")

        # A predict pass holds the server lock throughout: shedding
        # must still answer. A short switch interval makes a lost
        # read-modify-write likely if the shed count were unguarded.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with server._lock:
                threads = [
                    threading.Thread(target=shed) for _ in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(guarded) == n_threads * per_thread and all(guarded)
        assert server.metrics.counters[("serve.shed",)] == n_threads * per_thread
        assert server.events.recorded == n_threads * per_thread
        assert server.events.kinds() == {"serve.shed"}
