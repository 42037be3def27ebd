"""Profiler sanitizer-mode tests: corrupted inputs must fail fast."""

import pytest

from repro import (
    GTX580,
    InvariantViolation,
    K20M,
    Profiler,
    ReductionKernel,
    VectorAddKernel,
)


class CorruptedVectorAdd(VectorAddKernel):
    """A vectorAdd whose workload model is corrupted after construction
    (``__post_init__`` blocks bad values at build time)."""

    def __init__(self, mutate):
        super().__init__()
        self.mutate = mutate

    def workloads(self, problem, arch):
        workloads = super().workloads(problem, arch)
        self.mutate(workloads)
        return workloads


def corrupted_profiler(mutate, arch=GTX580, problem=65536):
    """A sanitizing profiler and a kernel with a corrupted workload model."""
    return Profiler(arch, sanitize=True, rng=0), CorruptedVectorAdd(mutate), problem


class TestSanitizerMode:
    def test_default_is_off(self):
        assert Profiler(GTX580).sanitize is False

    def test_clean_profile_passes(self):
        for arch in (GTX580, K20M):
            records = Profiler(arch, sanitize=True, rng=0).profile(
                VectorAddKernel(), 65536, replicates=2
            )
            assert len(records) == 2

    def test_clean_shared_memory_kernel_passes(self):
        records = Profiler(GTX580, sanitize=True, rng=0).profile(
            ReductionKernel(2), 1 << 16
        )
        assert len(records) == 1

    def test_active_lanes_33_raises(self):
        # Acceptance criteria: the corrupted workload that makes
        # `repro lint` exit 1 also trips the sanitizer.
        def mutate(wls):
            wls[0].global_accesses[0].active_lanes = 33

        profiler, kernel, problem = corrupted_profiler(mutate)
        with pytest.raises(InvariantViolation) as exc_info:
            profiler.profile(kernel, problem)
        assert exc_info.value.rules() == ["BF102"]
        assert "vectorAdd" in str(exc_info.value)

    def test_hit_fraction_out_of_range_raises(self):
        def mutate(wls):
            wls[0].global_accesses[0].l1_hit_fraction = 2.0

        profiler, kernel, problem = corrupted_profiler(mutate)
        with pytest.raises(InvariantViolation) as exc_info:
            profiler.profile(kernel, problem)
        assert "BF103" in exc_info.value.rules()

    def test_register_budget_violation_raises(self):
        def mutate(wls):
            wls[0].regs_per_thread = GTX580.max_registers_per_thread + 10

        profiler, kernel, problem = corrupted_profiler(mutate)
        with pytest.raises(InvariantViolation) as exc_info:
            profiler.profile(kernel, problem)
        assert "BF107" in exc_info.value.rules()

    def test_same_corruption_passes_without_sanitize(self):
        def mutate(wls):
            wls[0].global_accesses[0].l1_hit_fraction = 2.0

        profiler = Profiler(GTX580, rng=0)  # sanitize off
        profiler.profile(CorruptedVectorAdd(mutate), 65536)  # silently mis-simulates

    def test_findings_are_structured(self):
        def mutate(wls):
            wls[0].global_accesses[0].active_lanes = 33
            wls[0].memory_ilp = 0.0

        profiler, kernel, problem = corrupted_profiler(mutate)
        with pytest.raises(InvariantViolation) as exc_info:
            profiler.profile(kernel, problem)
        findings = exc_info.value.findings
        assert {f.rule for f in findings} == {"BF102", "BF109"}
        assert all(f.severity.name == "ERROR" for f in findings)

    def test_campaigns_can_sanitize(self):
        # The profiler hook composes with the campaign layer unchanged.
        from repro.profiling import Campaign

        campaign = Campaign(VectorAddKernel(), GTX580, rng=0)
        campaign.profiler.sanitize = True
        result = campaign.run(problems=[1 << 14, 1 << 15])
        assert len(result.records) == 2
