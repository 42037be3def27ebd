"""Batched and per-launch campaigns collect the same records.

A campaign simulates each run's launches in one
``GPUSimulator.run_totals`` pass unless a per-attempt deadline is set;
``RetryPolicy(timeout_s=...)`` makes the profiler launch one workload
at a time so it can check the clock between launches. The two paths
must give bit-identical records, serial and parallel (``repro bench``
times one against the other as ``campaign_sweep``).
"""

import pytest

from repro.faults import RetryPolicy
from repro.gpusim import GTX580, K20M
from repro.kernels import NeedlemanWunschKernel, ReductionKernel
from repro.profiling import Campaign


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("arch", [GTX580, K20M], ids=lambda a: a.name)
@pytest.mark.parametrize(
    "kernel", [NeedlemanWunschKernel(), ReductionKernel(1)], ids=lambda k: k.name
)
def test_per_launch_deadline_changes_no_record(kernel, arch, n_jobs):
    problems = kernel.default_sweep()[:4]

    def run(retry):
        return Campaign(kernel, arch, rng=7).run(
            problems=problems, replicates=2, n_jobs=n_jobs, retry=retry
        )

    batched = run(None)
    per_launch = run(RetryPolicy(timeout_s=3600))
    assert len(batched.records) == len(problems) * 2
    assert batched.records == per_launch.records
