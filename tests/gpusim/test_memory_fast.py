"""Equivalence tests pinning the vectorized trace/cache paths to the
retained scalar oracles, plus the probe_bytes validation and the
trace path of resolve_access."""

import numpy as np
import pytest

from repro.gpusim import GTX480, GTX580, K20M
from repro.gpusim.arch import CacheGeometry
from repro.gpusim.memory import (
    CacheSim,
    coalesce_trace,
    resolve_access,
    transactions_from_trace,
    transactions_from_trace_scalar,
)
from repro.gpusim.workload import GlobalAccessPattern


def _random_trace(rng, rows):
    """Random (rows, 32) trace mixing locality and partial warps."""
    trace = np.empty((rows, 32), dtype=np.int64)
    lanes = np.arange(32)
    for i in range(rows):
        mode = rng.integers(0, 4)
        if mode == 0:  # coalesced
            trace[i] = int(rng.integers(0, 1 << 12)) * 128 + lanes * 4
        elif mode == 1:  # strided
            trace[i] = int(rng.integers(0, 1 << 8)) * 128 + lanes * 64
        elif mode == 2:  # scattered over a small window (reuse)
            trace[i] = rng.integers(0, 1 << 13, size=32)
        else:  # broadcast
            trace[i] = int(rng.integers(0, 1 << 14))
        if rng.random() < 0.3:
            trace[i, rng.integers(1, 32):] = -1
    return trace


class TestTransactionsFromTraceEquivalence:
    @pytest.mark.parametrize("seg", [32, 128])
    def test_matches_scalar_on_random_traces(self, seg):
        rng = np.random.default_rng(0)
        for _ in range(10):
            trace = _random_trace(rng, int(rng.integers(1, 120)))
            np.testing.assert_array_equal(
                transactions_from_trace(trace, seg),
                transactions_from_trace_scalar(trace, seg),
            )

    def test_all_inactive_row_counts_zero(self):
        trace = np.full((3, 32), -1, dtype=np.int64)
        trace[1] = 128 * np.arange(32)
        fast = transactions_from_trace(trace, 128)
        np.testing.assert_array_equal(
            fast, transactions_from_trace_scalar(trace, 128)
        )
        assert fast[0] == 0 and fast[2] == 0

    def test_coalesce_trace_is_the_oracle_probe_stream(self):
        rng = np.random.default_rng(1)
        trace = _random_trace(rng, 50)
        seg = 128
        expected = []
        for i in range(trace.shape[0]):
            row = trace[i]
            expected.extend(np.unique(row[row >= 0] // seg).tolist())
        assert coalesce_trace(trace, seg).tolist() == expected


class TestCacheReplayEquivalence:
    @pytest.mark.parametrize(
        "geometry",
        [
            CacheGeometry(16 * 1024, 128, 4),
            CacheGeometry(2048, 128, 2),  # tiny: heavy eviction pressure
            GTX580.l1,
        ],
    )
    def test_matches_scalar_replay(self, geometry):
        rng = np.random.default_rng(2)
        for trial in range(6):
            trace = _random_trace(rng, int(rng.integers(10, 150)))
            fast, base = CacheSim(geometry), CacheSim(geometry)
            assert fast.warm_trace_hit_rate(trace) == pytest.approx(
                base.warm_trace_hit_rate_scalar(trace)
            )
            assert (fast.hits, fast.misses) == (base.hits, base.misses)

    def test_batched_and_scalar_interleave_on_shared_state(self):
        geometry = CacheGeometry(4096, 128, 4)
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 256, size=300)
        a, b = CacheSim(geometry), CacheSim(geometry)
        flags_a = []
        # a: alternate batched and per-line replay on the same state
        for chunk in np.array_split(lines, 10):
            if len(flags_a) % 2:
                flags_a.extend(bool(a.access_line(int(x))) for x in chunk)
            else:
                flags_a.extend(a.access_lines(chunk).tolist())
        flags_b = [b.access_line(int(x)) for x in lines]
        assert flags_a == flags_b
        assert (a.hits, a.misses) == (b.hits, b.misses)

    def test_probe_bytes_default_is_line_bytes(self):
        trace = _random_trace(np.random.default_rng(4), 40)
        a = CacheSim(GTX580.l1)
        b = CacheSim(GTX580.l1)
        assert a.warm_trace_hit_rate(trace) == b.warm_trace_hit_rate(
            trace, probe_bytes=GTX580.l1.line_bytes
        )

    def test_probe_bytes_mismatch_rejected(self):
        trace = _random_trace(np.random.default_rng(5), 10)
        sim = CacheSim(GTX580.l1)
        with pytest.raises(ValueError, match="line size"):
            sim.warm_trace_hit_rate(trace, probe_bytes=32)
        with pytest.raises(ValueError, match="line size"):
            sim.warm_trace_hit_rate_scalar(trace, probe_bytes=32)
        with pytest.raises(ValueError):
            sim.warm_trace_hit_rate(trace, probe_bytes=0)


class TestResolveAccessTrace:
    def _pattern(self, rng):
        return GlobalAccessPattern(
            kind="load",
            requests=512,
            addresses=_random_trace(rng, 64),
        )

    @pytest.mark.parametrize("arch", [GTX480, GTX580, K20M])
    def test_rates_come_from_the_trace(self, arch):
        acc = self._pattern(np.random.default_rng(6))
        res = resolve_access(acc, arch)
        seg = (
            arch.global_mem_segment_bytes
            if arch.l1_caches_global_loads
            else arch.l2_line_bytes
        )
        tpr = float(transactions_from_trace(acc.addresses, seg).mean())
        assert res.transactions == acc.requests * tpr
        if arch.l1_caches_global_loads:
            hit = CacheSim(arch.l1).warm_trace_hit_rate(acc.addresses, seg)
            assert res.l1_hits == res.transactions * hit
        else:
            assert res.l1_hits == 0.0
