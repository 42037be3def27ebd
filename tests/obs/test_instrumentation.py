"""Instrumentation contract: tracing must never change numbers.

Two pins protect the tentpole's core promise:

* **bit-identity** — every pipeline stage produces bit-identical
  numeric output with tracing/metrics on and off, serial and parallel;
* **cheap disabled path** — the no-op ``span()`` is a constant-time
  global check, bounded here with a generous robust micro-benchmark
  (the precise <5% end-to-end bound is tracked by ``repro bench``,
  whose workloads run the instrumented hot paths).
"""

import time

import numpy as np

from repro import BlackForest, Campaign, GTX580
from repro.faults import FaultPlan, FaultSpec, fault_injection
from repro.kernels import VectorAddKernel
from repro.obs import collect, span, trace

SIZES = [1 << 14, 1 << 16, 1 << 18, 1 << 20]


def _campaign(rng=0, n_jobs=1):
    return Campaign(VectorAddKernel(), GTX580, rng=rng).run(
        problems=SIZES, replicates=2, n_jobs=n_jobs
    )


class TestBitIdentity:
    def test_campaign_identical_with_tracing(self):
        plain = _campaign()
        with trace(), collect():
            traced = _campaign()
        for a, b in zip(plain.records, traced.records):
            assert a.time_s == b.time_s
            assert a.counters == b.counters

    def test_parallel_campaign_identical_with_tracing(self):
        plain = _campaign()
        with trace(), collect():
            traced = _campaign(n_jobs=2)
        for a, b in zip(plain.records, traced.records):
            assert a.time_s == b.time_s
            assert a.counters == b.counters

    def test_forest_fit_identical_with_tracing(self):
        campaign = _campaign()
        plain = BlackForest(n_trees=30, rng=1).fit(campaign)
        with trace(), collect():
            traced = BlackForest(n_trees=30, rng=1).fit(campaign)
        assert plain.oob_mse == traced.oob_mse
        assert plain.test_mse == traced.test_mse
        assert np.array_equal(
            plain.forest.predict(plain.X_test),
            traced.forest.predict(traced.X_test),
        )
        assert plain.importance.names == traced.importance.names

    def test_parallel_forest_fit_identical_with_tracing(self):
        campaign = _campaign()
        plain = BlackForest(n_trees=30, n_jobs=1, rng=1).fit(campaign)
        with trace(), collect():
            traced = BlackForest(n_trees=30, n_jobs=2, rng=1).fit(campaign)
        assert plain.oob_mse == traced.oob_mse
        assert np.array_equal(
            plain.forest.predict(plain.X_test),
            traced.forest.predict(traced.X_test),
        )


class TestTraceCoverage:
    def test_campaign_spans(self):
        with trace() as tracer:
            _campaign()
        assert "campaign.run" in tracer.names()
        assert len(tracer.find("profile")) == len(SIZES)
        assert tracer.find("gpusim.launch")

    def test_parallel_campaign_merges_worker_spans(self):
        with trace() as tracer:
            _campaign(n_jobs=2)
        profiles = tracer.find("profile")
        assert len(profiles) == len(SIZES)
        run = tracer.find("campaign.run")[0]
        # every worker span hangs off campaign.run after the merge
        for p in profiles:
            assert p.parent_id == run.span_id
        assert {p.pid for p in profiles} != {run.pid}

    def test_blackforest_fit_spans(self):
        campaign = _campaign()
        with trace() as tracer:
            BlackForest(n_trees=20, rng=1).fit(campaign)
        for name in ("blackforest.fit", "forest.fit", "forest.grow",
                     "forest.oob", "blackforest.importance",
                     "blackforest.reduced_check"):
            assert name in tracer.names(), name

    def test_metrics_cover_simulator_and_trees(self):
        with trace() as tracer, collect() as registry:
            campaign = _campaign()
            BlackForest(n_trees=20, rng=1).fit(campaign)
        counters = registry.snapshot()["counter"]
        assert counters.get("tree.fits", 0) > 0
        assert counters.get("tree.nodes", 0) > 0
        for name in ("gpusim.launch", "gpusim.resolve_access"):
            assert name in tracer.names(), name

    def test_parallel_campaign_merges_worker_metrics(self):
        # Every first launch fails once, so each worker counts retries.
        def transient_plan():
            return FaultPlan(
                [FaultSpec("profiler.launch", "raise", payload={"times": 1})]
            )

        with collect() as serial_reg, fault_injection(transient_plan()):
            _campaign()
        with collect() as parallel_reg, fault_injection(transient_plan()):
            _campaign(n_jobs=2)
        serial = serial_reg.snapshot()["counter"]
        assert serial["campaign.retries{kernel=vectorAdd}"] == len(SIZES)
        assert serial == parallel_reg.snapshot()["counter"]


class TestDisabledOverhead:
    def test_noop_span_is_fast(self):
        """The disabled span() call must stay a trivial check.

        Bounded against an empty function call with a generous 25x
        factor and best-of-7 timing so scheduler noise cannot flake the
        test; the real product bound (<5% on end-to-end hot paths) is
        enforced via the `repro bench` workloads which run the
        instrumented code.
        """

        def noop():
            pass

        n = 20_000

        def best(f):
            samples = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(n):
                    f()
                samples.append(time.perf_counter() - t0)
            return min(samples)

        def call_span():
            span("x")

        base = best(noop)
        cost = best(call_span)
        assert cost < base * 25 + 5e-3

    def test_noop_span_no_allocation_per_call(self):
        assert span("a") is span("b")
