"""Tests for the nvprof-style profiler."""

import numpy as np
import pytest

from repro.gpusim import GTX580, K20M
from repro.kernels import ReductionKernel, VectorAddKernel
from repro.profiling.profiler import Profiler, RunRecord


class TestProfile:
    def test_single_run_record(self):
        prof = Profiler(GTX580, rng=0)
        records = prof.profile(VectorAddKernel(), 1 << 16)
        assert len(records) == 1
        r = records[0]
        assert r.kernel == "vectorAdd"
        assert r.arch == "GTX580"
        assert r.family == "fermi"
        assert r.time_s > 0
        assert r.characteristics == {"size": float(1 << 16)}
        assert r.machine["smp"] == 16

    def test_replicates_differ(self):
        prof = Profiler(GTX580, rng=0)
        records = prof.profile(VectorAddKernel(), 1 << 16, replicates=4)
        times = {r.time_s for r in records}
        assert len(times) == 4
        assert [r.replicate for r in records] == [0, 1, 2, 3]

    def test_replicate_variance_is_percent_scale(self):
        prof = Profiler(GTX580, rng=0)
        records = prof.profile(ReductionKernel(2), 1 << 20, replicates=20)
        times = np.array([r.time_s for r in records])
        cv = times.std() / times.mean()
        assert 0.005 < cv < 0.15

    def test_zero_noise_deterministic(self):
        prof = Profiler(GTX580, noise_scale=0.0, rng=0)
        a = prof.profile(VectorAddKernel(), 1 << 16, replicates=2)
        assert a[0].time_s == a[1].time_s
        assert a[0].counters == a[1].counters

    def test_counter_measurement_noise_small(self):
        prof = Profiler(GTX580, rng=0)
        records = prof.profile(VectorAddKernel(), 1 << 18, replicates=10)
        gld = np.array([r.counters["gld_request"] for r in records])
        assert gld.std() / gld.mean() < 0.1
        assert len(set(gld.tolist())) > 1  # but not exactly repeated

    def test_kepler_records_kepler_counters(self):
        prof = Profiler(K20M, rng=0)
        r = prof.profile(ReductionKernel(1), 1 << 18)[0]
        assert "shared_load_replay" in r.counters
        assert "l1_shared_bank_conflict" not in r.counters

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            Profiler(GTX580).profile(VectorAddKernel(), 100, replicates=0)

    def test_rejects_negative_measurement_sigma(self):
        with pytest.raises(ValueError):
            Profiler(GTX580, measurement_sigma=-0.1)


class TestRunRecord:
    def make(self):
        return RunRecord(
            kernel="k", arch="GTX580", family="fermi", problem=64,
            characteristics={"size": 64.0},
            counters={"ipc": 1.5, "gld_request": 10.0},
            time_s=1e-3, machine={"smp": 16.0, "freq": 1.544},
        )

    def test_predictor_vector_order(self):
        names, values = self.make().predictors(["gld_request", "ipc"])
        assert names == ["gld_request", "ipc", "size"]
        assert values.tolist() == [10.0, 1.5, 64.0]

    def test_machine_metrics_appended(self):
        names, values = self.make().predictors(
            ["ipc"], include_machine=True
        )
        assert names == ["ipc", "size", "freq", "smp"]
        assert values.tolist() == [1.5, 64.0, 1.544, 16.0]

    def test_characteristics_optional(self):
        names, values = self.make().predictors(
            ["ipc"], include_characteristics=False
        )
        assert names == ["ipc"]

    def test_missing_counter_raises(self):
        with pytest.raises(KeyError):
            self.make().predictors(["nonexistent"])
