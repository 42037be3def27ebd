"""Batched launch simulation (LaunchBatch + GPUSimulator.run_totals).

The load-bearing pin is the oracle: ``run_totals`` on a batch equals
``sum_raw`` over the per-launch loop key for key with ``==`` — on the
Needleman–Wunsch sweep (across architectures, noise scales and the
lengths where the wave count changes) and on seeded random templates.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, InjectedFault, fault_injection
from repro.gpusim import GTX480, GTX580, K20M, GPUSimulator, Perturbation, sum_raw
from repro.gpusim.workload import GlobalAccessPattern, KernelWorkload, LaunchBatch
from repro.kernels import NeedlemanWunschKernel, WorkloadAccumulator
from repro.obs import trace

NW = NeedlemanWunschKernel()
SWEEP = NW.default_sweep()


def per_launch_totals(sim, workloads, pert):
    """The oracle: one scalar launch per workload, summed by sum_raw."""
    return sum_raw([sim.launch(wl, pert) for wl in workloads])


def assert_totals_equal(got, want):
    assert list(got) == list(want)
    mismatched = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    assert not mismatched
    assert all(type(v) is float for v in got.values())


def wave_changes(arch):
    """Sweep lengths whose largest launch needs more waves than the
    previous length's, each with its predecessor."""
    sim = GPUSimulator(arch)
    waves = [sim.launch(NW.workloads(L, arch)[L // 16 - 1]).timing.waves
             for L in SWEEP]
    return [(SWEEP[i - 1], SWEEP[i]) for i in range(1, len(SWEEP))
            if waves[i] != waves[i - 1]]


class TestOracleNeedlemanWunsch:
    @pytest.mark.parametrize("arch", [GTX580, GTX480, K20M], ids=lambda a: a.name)
    @pytest.mark.parametrize("scale", [0.0, 1.0, 3.0])
    def test_sampled_lengths_match_per_launch_loop(self, arch, scale):
        changes = wave_changes(arch)
        assert changes, "the sweep never changes its wave count"
        lengths = sorted({SWEEP[0], SWEEP[10], *changes[0], SWEEP[-1]})
        sim = GPUSimulator(arch)
        for L in lengths:
            batch = NW.workloads(L, arch)
            pert = Perturbation.draw(np.random.default_rng(L), scale=scale)
            assert_totals_equal(sim.run_totals(batch, pert),
                                per_launch_totals(sim, batch, pert))

    def test_every_wave_change_on_gtx580(self):
        sim = GPUSimulator(GTX580)
        for L in {L for pair in wave_changes(GTX580) for L in pair}:
            batch = NW.workloads(L, GTX580)
            pert = Perturbation.draw(np.random.default_rng(L + 1), scale=1.0)
            assert_totals_equal(sim.run_totals(batch, pert),
                                per_launch_totals(sim, batch, pert))


def random_template(rng, arch, kinds=("load", "store")):
    """A block template with random counts and access patterns."""
    threads = int(rng.choice([16, 32, 64, 96, 256, 1024]))
    acc = WorkloadAccumulator(
        name="random", grid_blocks=1, threads_per_block=threads,
        regs_per_thread=int(rng.integers(0, 21)),
        shared_mem_per_block=int(rng.integers(0, 8192)),
    )
    for _ in range(rng.integers(0, 4)):
        warps = float(rng.uniform(0.01, 40.0))
        acc.arith(warps, lanes=float(rng.uniform(1, 32)),
                  fma=bool(rng.integers(0, 2)))
        acc.branch(float(rng.uniform(0.01, 5.0)), lanes=float(rng.uniform(1, 32)),
                   divergent=float(rng.uniform(0.0, 0.01)))
        acc.sync(float(rng.uniform(0, 2)))
    for _ in range(rng.integers(0, 7)):
        acc.shared(str(rng.choice(["load", "store"])), float(rng.uniform(0.1, 30)),
                   conflict_degree=float(rng.choice([1.0, 2.0, 3.5, 16.0])))
    for _ in range(rng.integers(0, 7)):
        acc.global_access(
            str(rng.choice(kinds)),
            float(rng.uniform(0.05, 50.0)) if rng.integers(0, 2) else int(rng.integers(1, 40)),
            lanes=int(rng.integers(1, 33)),
            stride_words=int(rng.choice([0, 1, 2, 5, 33, 1025])),
            word_bytes=int(rng.choice([4, 8])),
            unique_bytes=(None if rng.integers(0, 3) == 0
                          else int(rng.choice([0, 64, 4096, 1 << 20, 1 << 28]))),
            l1_hit_fraction=None if rng.integers(0, 2) else float(rng.uniform()),
            l2_hit_fraction=None if rng.integers(0, 2) else float(rng.uniform()),
        )
    acc.set_memory_ilp(float(rng.uniform(1.0, 4.0)))
    acc.chain(float(rng.uniform(0.0, 500.0)))
    return acc


class TestOracleRandomTemplates:
    @pytest.mark.parametrize("kinds", [("load", "store"), ("load",), ("store",)],
                             ids=["mixed", "load-only", "store-only"])
    def test_random_templates_match_per_launch_loop(self, kinds):
        rng = np.random.default_rng(len(kinds[0]) * 7 + len(kinds))
        for arch in (GTX580, GTX480, K20M):
            sim = GPUSimulator(arch)
            for _ in range(12):
                acc = random_template(rng, arch, kinds)
                grids = rng.integers(1, 3000, size=int(rng.integers(1, 40)))
                batch = acc.build_for_grid(grids, [f"l{i}" for i in range(grids.size)])
                pert = Perturbation.draw(rng, scale=float(rng.choice([0.0, 1.0, 3.0])))
                assert_totals_equal(sim.run_totals(batch, pert),
                                    per_launch_totals(sim, batch, pert))

    def test_template_without_memory_accesses(self):
        acc = WorkloadAccumulator("bare", 1, 128, 8, 0)
        acc.arith(3.0)
        batch = acc.build_for_grid([1, 7, 500, 40000], ["a", "b", "c", "d"])
        sim = GPUSimulator(K20M)
        assert_totals_equal(sim.run_totals(batch),
                            per_launch_totals(sim, batch, None))


def small_batch():
    acc = WorkloadAccumulator("k", 1, 64, 10, 512)
    acc.arith(2.5, fma=True)
    acc.branch(1.5, divergent=0.5)
    acc.shared("load", 3.0, conflict_degree=2.0)
    acc.global_access("load", 1.5, unique_bytes=1 << 16)
    acc.global_access("store", 0.25)
    return acc, acc.build_for_grid([3, 1, 40], ["a", "b", "c"])


class TestLaunchBatch:
    def test_indexing_materialises_the_scalar_build(self):
        acc, batch = small_batch()
        assert len(batch) == 3
        assert isinstance(batch[0], KernelWorkload)
        assert batch[2] == acc.build_for_grid(40, name="c")
        assert batch[-1] == batch[2]
        assert list(batch) == [acc.build_for_grid(g, n)
                               for g, n in [(3, "a"), (1, "b"), (40, "c")]]
        assert [a.requests for a in batch[0].global_accesses] == [4, 1]
        with pytest.raises(IndexError):
            batch[3]

    def test_scalar_build_keeps_the_accumulator_name(self):
        acc, _ = small_batch()
        assert acc.build().name == "k"
        assert acc.build_for_grid(5).grid_blocks == 5

    def test_grid_vector_is_read_only_int64(self):
        _, batch = small_batch()
        assert batch.grid_blocks.dtype == np.int64
        with pytest.raises(ValueError):
            batch.grid_blocks[0] = 9

    def test_rejects_inconsistent_batches(self):
        acc, _ = small_batch()
        with pytest.raises(ValueError, match="one name per launch"):
            acc.build_for_grid([1, 2], ["only"])
        with pytest.raises(ValueError, match=">= 1"):
            acc.build_for_grid([1, 0], ["a", "b"])
        with pytest.raises(ValueError, match="address trace"):
            LaunchBatch(
                names=["a"], grid_blocks=[1], threads_per_block=32,
                global_accesses=[GlobalAccessPattern(
                    "load", 1, addresses=np.zeros((1, 32), dtype=np.int64))],
            )

    def test_nw_batch_covers_both_sweeps_in_launch_order(self):
        batch = NW.workloads(256, GTX580)
        assert isinstance(batch, LaunchBatch)
        assert list(batch.grid_blocks) == list(range(1, 17)) + list(range(15, 0, -1))
        assert batch.names[0] == "nw_kernel1(d=1)"
        assert batch.names[16] == "nw_kernel2(d=15)"


class TestRunTotals:
    def test_batch_records_one_span(self):
        batch = NW.workloads(512, GTX580)
        with trace() as tracer:
            GPUSimulator(GTX580).run_totals(batch)
        spans = tracer.find("gpusim.launch_batch")
        assert [s.labels["launches"] for s in spans] == [len(batch)]
        assert not tracer.find("gpusim.launch")

    def test_list_goes_through_launch(self):
        batch = NW.workloads(128, GTX580)
        sim = GPUSimulator(GTX580)
        with trace() as tracer:
            totals = sim.run_totals(list(batch))
        assert len(tracer.find("gpusim.launch")) == len(batch)
        assert not tracer.find("gpusim.launch_batch")
        assert_totals_equal(totals, sim.run_totals(batch))

    def test_fault_plan_forces_per_launch_path(self):
        batch = NW.workloads(128, GTX580)
        plan = FaultPlan([FaultSpec("gpusim.launch", "raise",
                                    match={"workload": "nw_kernel2(d=3)"})])
        with fault_injection(plan), pytest.raises(InjectedFault, match="nw_kernel2"):
            GPUSimulator(GTX580).run_totals(batch)

    def test_empty_batch_refused(self):
        acc, _ = small_batch()
        with pytest.raises(ValueError, match="no launches"):
            GPUSimulator(GTX580).run_totals(acc.build_for_grid([], []))
