"""Resilient campaign execution under injected faults.

The contract (docs/robustness.md): a campaign run under a fault plan
*completes* — failing launches are retried and quarantined, crashed
workers cost only a chunk re-run — and its outcome (surviving records
AND quarantine set) is bit-identical for any ``n_jobs``, because fault
decisions hash the launch context rather than counting calls.
"""

import time

import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_injection
from repro.gpusim import GTX580, GPUSimulator
from repro.kernels import NeedlemanWunschKernel, VectorAddKernel
from repro.obs import collect
from repro.profiling import Campaign, Profiler, QuarantinedRun


def _records_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (
            ra.problem != rb.problem
            or ra.replicate != rb.replicate
            or ra.time_s != rb.time_s
            or ra.counters != rb.counters
            or ra.characteristics != rb.characteristics
        ):
            return False
    return True


KERNEL = VectorAddKernel()
PROBLEMS = KERNEL.default_sweep()[:5]


def _chaos_plan() -> FaultPlan:
    """One permanently failing launch plus one worker crash."""
    return FaultPlan([
        FaultSpec("profiler.launch", "raise", match={"problem": PROBLEMS[1]}),
        FaultSpec("parallel.worker", "crash", match={"problem": PROBLEMS[3]}),
    ])


def _run(n_jobs: int, plan: FaultPlan | None, retry=None, rng=3):
    with fault_injection(plan):
        return Campaign(KERNEL, GTX580, rng=rng).run(
            problems=PROBLEMS, replicates=1, n_jobs=n_jobs, retry=retry
        )


class TestQuarantineNotAbort:
    def test_failing_launch_is_quarantined_not_fatal(self):
        result = _run(1, _chaos_plan())
        assert len(result.quarantined) == 1
        q = result.quarantined[0]
        assert q.problem == PROBLEMS[1]
        assert q.stage == "launch"
        assert q.attempts == 3  # default RetryPolicy exhausted
        assert "InjectedFault" in q.error
        assert [r.problem for r in result.records] == [
            p for p in PROBLEMS if p != PROBLEMS[1]
        ]

    def test_surviving_records_match_clean_run(self):
        clean = _run(1, None)
        chaotic = _run(1, _chaos_plan())
        survivors = [r for r in clean.records if r.problem != PROBLEMS[1]]
        assert _records_equal(chaotic.records, survivors)

    def test_retry_metrics_recorded(self):
        with collect() as registry:
            _run(1, _chaos_plan())
        counters = registry.snapshot()["counter"]
        retries = sum(v for k, v in counters.items()
                      if k.startswith("campaign.retries"))
        quarantines = sum(v for k, v in counters.items()
                          if k.startswith("campaign.quarantined"))
        assert retries == 2  # 3 attempts = 2 retries
        assert quarantines == 1


class TestDeterminismAcrossNJobs:
    """THE chaos pin: serial and parallel agree on everything."""

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_same_records_and_same_quarantines(self, n_jobs):
        serial = _run(1, _chaos_plan())
        parallel = _run(n_jobs, _chaos_plan())
        assert _records_equal(serial.records, parallel.records)
        assert [q.to_dict() for q in serial.quarantined] == [
            q.to_dict() for q in parallel.quarantined
        ]

    def test_probabilistic_plan_is_njobs_invariant(self):
        plan = [FaultSpec("profiler.launch", "raise", probability=0.4)]
        serial = _run(1, FaultPlan(plan, seed=9), retry=RetryPolicy(max_attempts=1))
        parallel = _run(2, FaultPlan(plan, seed=9), retry=RetryPolicy(max_attempts=1))
        assert [q.problem for q in serial.quarantined] == [
            q.problem for q in parallel.quarantined
        ]
        assert _records_equal(serial.records, parallel.records)


class TestWorkerCrashRecovery:
    def test_crashed_worker_chunk_rerun_in_parent(self):
        # Worker-crash rules only exist inside workers; the parent
        # fallback re-profiles the chunk, so nothing is lost.
        clean = _run(1, None)
        plan = FaultPlan([
            FaultSpec("parallel.worker", "crash", match={"problem": PROBLEMS[3]})
        ])
        with collect() as registry:
            crashed = _run(2, plan)
        assert not crashed.quarantined
        assert _records_equal(crashed.records, clean.records)
        counters = registry.snapshot()["counter"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("campaign.worker_crashes")) >= 1


class TestTransientFaults:
    def test_retry_recovers_a_transient_launch_fault(self):
        plan = FaultPlan([
            FaultSpec("profiler.launch", "raise",
                      match={"problem": PROBLEMS[2]}, payload={"times": 1})
        ])
        result = _run(1, plan)
        assert not result.quarantined
        assert [r.problem for r in result.records] == list(PROBLEMS)

    def test_single_attempt_policy_quarantines_transients(self):
        plan = FaultPlan([
            FaultSpec("profiler.launch", "raise",
                      match={"problem": PROBLEMS[2]}, payload={"times": 1})
        ])
        result = _run(1, plan, retry=RetryPolicy(max_attempts=1))
        assert [q.problem for q in result.quarantined] == [PROBLEMS[2]]


class TestValidationStaysFatal:
    def test_empty_launch_list_raises(self):
        with pytest.raises(ValueError, match="launch list is empty"):
            Campaign(KERNEL, GTX580, rng=0).run(problems=[])

    def test_all_quarantined_campaign_explains_itself(self):
        plan = FaultPlan([FaultSpec("profiler.launch", "raise")])
        result = _run(1, plan, retry=RetryPolicy(max_attempts=1))
        assert not result.records
        with pytest.raises(ValueError, match="quarantined"):
            result.matrix()

    def test_plain_empty_campaign_message_unchanged(self):
        from repro.profiling import CampaignResult

        with pytest.raises(ValueError, match="empty campaign"):
            CampaignResult(kernel="k", arch="a", family="f").matrix()


class TestQuarantineBookkeeping:
    def test_merged_with_carries_quarantines(self):
        a = _run(1, _chaos_plan())
        b = _run(1, None, rng=4)
        merged = a.merged_with(b)
        assert len(merged.quarantined) == len(a.quarantined)
        assert len(merged.records) == len(a.records) + len(b.records)

    def test_quarantined_run_roundtrips_through_dict(self):
        q = QuarantinedRun(problem=4096, index=2, stage="launch",
                           error="InjectedFault: boom", attempts=3)
        assert QuarantinedRun.from_dict(q.to_dict()) == q


NW_PROBLEMS = [32, 48, 64, 96, 128]
NW_FAULT = FaultSpec("gpusim.launch", "raise",
                     match={"workload": "nw_kernel2(d=3)"})


class TestBatchedLaunchFallback:
    """Needleman–Wunsch's launches are simulated as one batch; a fault
    plan or a deadline sends them back through per-launch ``launch``."""

    def test_named_launch_fault_quarantines_as_per_launch(self):
        with fault_injection(FaultPlan([NW_FAULT])):
            result = Campaign(NeedlemanWunschKernel(), GTX580, rng=0).run(
                problems=NW_PROBLEMS, n_jobs=1
            )
        # Every length with a fourth block diagonal (L >= 64) runs
        # nw_kernel2(d=3); the errors are those of the per-launch site.
        error = ("InjectedFault: injected simulator failure launching "
                 "'nw_kernel2(d=3)' on GTX580")
        assert [q.to_dict() for q in result.quarantined] == [
            {"problem": L, "index": i, "stage": "launch", "error": error,
             "attempts": 3}
            for i, L in enumerate(NW_PROBLEMS) if L >= 64
        ]
        clean = Campaign(NeedlemanWunschKernel(), GTX580, rng=0).run(
            problems=NW_PROBLEMS, n_jobs=1
        )
        assert _records_equal(result.records,
                              [r for r in clean.records if r.problem < 64])

    def test_deadline_takes_the_per_launch_path(self, monkeypatch):
        launched = []
        real_launch = GPUSimulator.launch

        def spy(self, wl, perturbation=None):
            launched.append(wl.name)
            return real_launch(self, wl, perturbation)

        monkeypatch.setattr(GPUSimulator, "launch", spy)
        kernel = NeedlemanWunschKernel()
        batch = kernel.workloads(256, GTX580)
        batched = Profiler(GTX580, rng=0).profile(kernel, 256)
        assert launched == []
        timed = Profiler(GTX580, rng=0).profile(
            kernel, 256, deadline_s=time.monotonic() + 3600
        )
        assert launched == list(batch.names)
        assert timed[0].counters == batched[0].counters
        assert timed[0].time_s == batched[0].time_s
