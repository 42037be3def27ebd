"""Warm-cache determinism: LRU order, counters, failure isolation."""

import pytest

from repro.obs import collect
from repro.serve import FitCache


def loader(value):
    return lambda: value


class TestLru:
    def test_hit_returns_cached_object(self):
        cache = FitCache(max_entries=2)
        obj = object()
        assert cache.get(("a", "1"), loader(obj)) is obj
        assert cache.get(("a", "1"), loader(object())) is obj

    def test_eviction_order_is_pinned(self):
        # Fill a, b, c into a 2-slot cache with a touch of `a` between:
        # the eviction order must be least-recently-USED (b first), not
        # insertion order.
        cache = FitCache(max_entries=2)
        cache.get(("a",), loader("A"))
        cache.get(("b",), loader("B"))
        cache.get(("a",), loader("A"))          # refresh a
        cache.get(("c",), loader("C"))          # evicts b, not a
        assert cache.keys() == [("a",), ("c",)]
        assert cache.get(("a",), loader("A2")) == "A"   # still cached
        assert cache.get(("b",), loader("B2")) == "B2"  # was evicted

    def test_eviction_sequence_deterministic(self):
        cache = FitCache(max_entries=3)
        sequence = ["a", "b", "c", "a", "d", "e", "b"]
        for name in sequence:
            cache.get((name,), loader(name.upper()))
        # Replaying the identical access sequence always lands on the
        # same resident set, in the same recency order.
        assert cache.keys() == [("d",), ("e",), ("b",)]
        assert cache.stats["eviction"] == 3

    def test_single_slot(self):
        cache = FitCache(max_entries=1)
        cache.get(("a",), loader("A"))
        cache.get(("b",), loader("B"))
        assert cache.keys() == [("b",)]

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError, match="at least one"):
            FitCache(max_entries=0)


class TestCounters:
    def test_local_stats(self):
        cache = FitCache(max_entries=1)
        cache.get(("a",), loader("A"))
        cache.get(("a",), loader("A"))
        cache.get(("b",), loader("B"))
        assert cache.stats == {"hit": 1, "miss": 2, "eviction": 1}

    def test_obs_metrics_counters(self):
        cache = FitCache(max_entries=1)
        with collect() as metrics:
            cache.get(("a",), loader("A"))
            cache.get(("a",), loader("A"))
            cache.get(("b",), loader("B"))
        counters = metrics.snapshot()["counter"]
        assert counters["serve.cache.hit"] == 1
        assert counters["serve.cache.miss"] == 2
        assert counters["serve.cache.eviction"] == 1


class TestFailureIsolation:
    def test_loader_error_caches_nothing(self):
        cache = FitCache(max_entries=2)

        def boom():
            raise ValueError("corrupt artifact")

        with pytest.raises(ValueError):
            cache.get(("a",), boom)
        assert len(cache) == 0
        # A later good load for the same key succeeds.
        assert cache.get(("a",), loader("A")) == "A"

    def test_invalidate(self):
        # invalidate_key drops every cached version of one campaign.
        cache = FitCache(max_entries=4)
        for key in (("a", "1"), ("b", "1"), ("a", "2")):
            cache.get(key, loader(key))
        assert cache.invalidate_key("a") == 2
        assert cache.keys() == [("b", "1")]
        assert cache.invalidate_key("a") == 0
        assert cache.get(("a", "1"), loader("A2")) == "A2"
