"""Tests for the counter/gauge/timer metrics (repro.obs.metrics)."""

import pytest

from repro.obs import (
    LogHistogram,
    MetricsRegistry,
    collect,
    current_metrics,
    inc,
    observe,
    set_gauge,
    timer,
)
from repro.obs.metrics import RAW_SAMPLE_CAP


class TestDisabledDefault:
    def test_disabled_by_default(self):
        assert current_metrics() is None

    def test_module_instruments_are_noops_when_disabled(self):
        inc("x")
        set_gauge("y", 1.0)
        observe("z", 0.5)
        with timer("t"):
            pass
        assert current_metrics() is None


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2.0)
        assert reg.snapshot()["counter"]["hits"] == pytest.approx(3.0)

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.inc("hits", kind="load")
        reg.inc("hits", kind="store")
        reg.inc("hits", kind="load")
        snap = reg.snapshot()["counter"]
        assert snap["hits{kind=load}"] == pytest.approx(2.0)
        assert snap["hits{kind=store}"] == pytest.approx(1.0)

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("m", a=1, b=2)
        reg.inc("m", b=2, a=1)
        assert reg.snapshot()["counter"]["m{a=1,b=2}"] == pytest.approx(2.0)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 7)
        assert reg.snapshot()["gauge"]["depth"] == pytest.approx(7.0)

    def test_timer_totals_and_counts(self):
        reg = MetricsRegistry()
        reg.observe("step", 0.25)
        reg.observe("step", 0.5)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["total_s"] == pytest.approx(0.75)
        assert snap["count"] == 2

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.timer("block"):
            pass
        snap = reg.snapshot()["timer"]["block"]
        assert snap["count"] == 1
        assert snap["total_s"] >= 0.0


class TestTimerDistribution:
    def test_min_max(self):
        reg = MetricsRegistry()
        for s in (0.5, 0.1, 0.3):
            reg.observe("step", s)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["min_s"] == pytest.approx(0.1)
        assert snap["max_s"] == pytest.approx(0.5)

    def test_single_observation_collapses(self):
        reg = MetricsRegistry()
        reg.observe("step", 0.25)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["min_s"] == snap["max_s"] == snap["p50_s"] \
            == snap["p95_s"] == pytest.approx(0.25)

    def test_p50_interpolates(self):
        reg = MetricsRegistry()
        for s in (0.1, 0.2, 0.3, 0.4):
            reg.observe("step", s)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["p50_s"] == pytest.approx(0.25)

    def test_p95_near_max(self):
        reg = MetricsRegistry()
        for s in [0.01] * 19 + [1.0]:
            reg.observe("step", s)
        snap = reg.snapshot()["timer"]["step"]
        # pos = 0.95 * 19 = 18.05 -> between the last 0.01 and the 1.0
        assert snap["p95_s"] == pytest.approx(0.01 + 0.05 * 0.99)

    def test_p99_tail(self):
        # 100 evenly spaced observations: p99 interpolates between the
        # 99th and 100th order statistics.
        reg = MetricsRegistry()
        for i in range(100):
            reg.observe("step", (i + 1) / 100.0)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["p99_s"] == pytest.approx(0.99 + 0.01 * 0.01)
        assert snap["p95_s"] <= snap["p99_s"] <= snap["max_s"]

    def test_p99_single_observation_collapses(self):
        reg = MetricsRegistry()
        reg.observe("step", 0.25)
        snap = reg.snapshot()["timer"]["step"]
        assert snap["p99_s"] == pytest.approx(0.25)

    def test_p99_merge_order_independent(self):
        # The tail percentile of a merged registry must not depend on
        # which worker's observations landed first.
        chunks = [[0.9, 0.1, 0.05], [0.5, 2.0], [0.3, 0.7, 0.2, 1.5]]

        def merged(order):
            root = MetricsRegistry()
            for chunk in order:
                worker = MetricsRegistry()
                for v in chunk:
                    worker.observe("step", v)
                root.merge(worker)
            return root.snapshot()["timer"]["step"]

        a = merged(chunks)
        b = merged(list(reversed(chunks)))
        assert a["p99_s"] == b["p99_s"]
        assert a == b

    def test_summary_is_observation_order_independent(self):
        values = [0.5, 0.1, 0.9, 0.3, 0.7]
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for v in values:
            fwd.observe("step", v)
        for v in reversed(values):
            rev.observe("step", v)
        assert fwd.snapshot()["timer"] == rev.snapshot()["timer"]

    def test_merge_order_independent(self):
        # However worker chunks land, the merged distribution summary is
        # identical — the raw observations are re-sorted at snapshot.
        chunks = [[0.9, 0.1], [0.5], [0.3, 0.7, 0.2]]

        def merged(order):
            root = MetricsRegistry()
            for chunk in order:
                worker = MetricsRegistry()
                for v in chunk:
                    worker.observe("step", v)
                root.merge(worker)
            return root.snapshot()["timer"]["step"]

        a = merged(chunks)
        b = merged(list(reversed(chunks)))
        assert a == b
        assert a["count"] == 6
        assert a["p50_s"] == pytest.approx(0.4)


class TestMerge:
    def test_merge_adds_counters_and_timers(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1.0)
        b.inc("n", 2.0)
        a.observe("t", 0.1)
        b.observe("t", 0.2)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counter"]["n"] == pytest.approx(3.0)
        assert snap["timer"]["t"]["total_s"] == pytest.approx(0.3)
        assert snap["timer"]["t"]["count"] == 2

    def test_merge_gauges_take_other(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.merge(b)
        assert a.snapshot()["gauge"]["g"] == pytest.approx(9.0)


def _hist(values) -> LogHistogram:
    h = LogHistogram()
    for v in values:
        h.observe(v)
    return h


def _merged(parts) -> LogHistogram:
    root = LogHistogram()
    for part in parts:
        root.merge(_hist(part))
    return root


class TestLogHistogram:
    def test_memory_is_bounded_past_the_cap(self):
        # The whole point of the histogram: Timer memory must not grow
        # with the observation count.
        h = _hist([0.001 * (i + 1) for i in range(RAW_SAMPLE_CAP + 50)])
        assert h.samples is None
        assert h.count == RAW_SAMPLE_CAP + 50
        assert len(h.buckets) < 200  # sparse log-spaced, not per-value

    def test_exact_quantiles_below_the_cap(self):
        h = _hist([0.1, 0.2, 0.3, 0.4])
        assert h.quantile(0.5) == pytest.approx(0.25)

    def test_bucketed_quantiles_clamped_to_min_max(self):
        values = [0.001 * (i + 1) for i in range(RAW_SAMPLE_CAP + 100)]
        h = _hist(values)
        assert h.samples is None
        assert min(values) <= h.quantile(0.0) <= h.quantile(0.5) \
            <= h.quantile(1.0) <= max(values)
        assert h.quantile(1.0) == pytest.approx(max(values))
        assert h.quantile(0.0) == pytest.approx(min(values))

    def test_bucketed_quantile_close_to_exact(self):
        # Log-spaced buckets (growth 2^0.25) bound the relative error
        # of interior quantiles to one bucket's width.
        values = [0.0005 * (i + 1) for i in range(RAW_SAMPLE_CAP * 2)]
        h = _hist(values)
        exact = sorted(values)[len(values) // 2]
        assert h.quantile(0.5) == pytest.approx(exact, rel=0.2)

    def test_empty_histogram(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.summary()["count"] == 0

    def test_single_observation(self):
        h = _hist([0.25])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.25)

    def test_nonpositive_observations_survive(self):
        h = _hist([0.0, -0.1, 0.5])
        assert h.count == 3
        assert h.min_value == pytest.approx(-0.1)
        assert h.quantile(1.0) == pytest.approx(0.5)

    def test_cumulative_buckets_monotone_and_complete(self):
        h = _hist([0.001, 0.01, 0.1, 1.0, 10.0] * 3)
        cum = h.cumulative_buckets()
        counts = [c for _, c in cum]
        assert counts == sorted(counts)
        assert cum[-1][0] == float("inf")
        assert cum[-1][1] == h.count


class TestHistogramMergeSemantics:
    """Satellite: merge(a, b) == merge(b, a), bit for bit."""

    CASES = [
        ([0.1, 0.2], [0.3]),
        ([], []),
        ([], [0.5]),
        ([0.25], [0.25]),
        ([0.0, -1.0], [2.0]),
        # Past the cap on one side: the merge must drop samples on
        # both orders identically.
        ([0.001 * (i + 1) for i in range(RAW_SAMPLE_CAP + 1)], [0.5]),
        # Past the cap only when combined.
        (
            [0.001 * (i + 1) for i in range(RAW_SAMPLE_CAP // 2 + 10)],
            [0.002 * (i + 1) for i in range(RAW_SAMPLE_CAP // 2 + 10)],
        ),
    ]

    @pytest.mark.parametrize("a_vals,b_vals", CASES)
    def test_merge_commutes_bit_for_bit(self, a_vals, b_vals):
        ab = _merged([a_vals, b_vals])
        ba = _merged([b_vals, a_vals])
        assert ab.to_dict() == ba.to_dict()
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert ab.quantile(q) == ba.quantile(q)

    def test_merge_empty_is_identity(self):
        a = _hist([0.1, 0.9, 0.4])
        before = a.to_dict()
        a.merge(LogHistogram())
        assert a.to_dict() == before

    def test_exact_mode_drops_permanently_through_merges(self):
        # Once either side has shed its raw samples, the merged
        # histogram must never resurrect exact mode.
        big = _hist([0.001 * (i + 1) for i in range(RAW_SAMPLE_CAP + 1)])
        assert big.samples is None
        small = _hist([0.5])
        small.merge(big)
        assert small.samples is None

    def test_fan_in_partitions_agree(self):
        # The same observations fanned through 1 or 4 worker
        # registries (the n_jobs shapes the campaign uses) must
        # produce one identical snapshot.
        values = [0.001 * ((i * 7919) % 1000 + 1) for i in range(64)]

        def fan_in(n_jobs):
            root = MetricsRegistry()
            for w in range(n_jobs):
                worker = MetricsRegistry()
                for v in values[w::n_jobs]:
                    worker.observe("step", v)
                root.merge(worker)
            return root.snapshot()["timer"]["step"]

        assert fan_in(1) == fan_in(4)

    def test_fan_in_partitions_agree_past_cap(self):
        values = [
            0.001 * ((i * 104729) % 5000 + 1)
            for i in range(RAW_SAMPLE_CAP + 200)
        ]

        def fan_in(n_jobs):
            root = MetricsRegistry()
            for w in range(n_jobs):
                worker = MetricsRegistry()
                for v in values[w::n_jobs]:
                    worker.observe("step", v)
                root.merge(worker)
            return root.snapshot()["timer"]["step"]

        assert fan_in(1) == fan_in(4)


class TestCollect:
    def test_collect_installs_and_restores(self):
        assert current_metrics() is None
        with collect() as reg:
            assert current_metrics() is reg
            inc("inside")
        assert current_metrics() is None
        assert reg.snapshot()["counter"]["inside"] == pytest.approx(1.0)

    def test_nested_collect_shadows(self):
        with collect() as outer:
            inc("seen")
            with collect() as inner:
                inc("seen")
            inc("seen")
        assert outer.snapshot()["counter"]["seen"] == pytest.approx(2.0)
        assert inner.snapshot()["counter"]["seen"] == pytest.approx(1.0)
