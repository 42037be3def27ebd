"""BlackForest — bottleneck analysis and performance prediction for
GPU-accelerated applications.

Reproduction of Madougou, Varbanescu, de Laat & van Nieuwpoort,
*"A Tool for Bottleneck Analysis and Performance Prediction for
GPU-accelerated Applications"* (2016), as a self-contained Python
library: a random-forest/PCA/MARS statistical pipeline over hardware
performance counters, with a simulated-GPU profiling substrate standing
in for the paper's GTX580/K20m + nvprof testbed.

Quickstart::

    from repro import (BlackForest, Campaign, GTX580,
                       ReductionKernel, bottleneck_report)

    campaign = Campaign(ReductionKernel(1), GTX580, rng=0).run()
    fit = BlackForest(rng=1).fit(campaign)
    print(bottleneck_report(fit))

Subpackages
-----------
``repro.core``
    The paper's contribution: the five-stage BlackForest pipeline,
    bottleneck detection, problem/hardware scaling prediction.
``repro.ml``
    Statistics substrate (random forest, PCA+varimax, MARS, GLMs,
    k-means, partial dependence) — numpy-only reimplementations of the
    R packages the paper uses.
``repro.gpusim``
    GPU performance simulator substrate (architectures, occupancy,
    coalescing/caches/bank conflicts, Hong–Kim-style timing, counters).
``repro.kernels``
    Workload models: CUDA SDK reductions, tiled matrix multiply,
    Rodinia Needleman–Wunsch, and extras.
``repro.profiling``
    nvprof-equivalent data collection: profiler, campaigns, repository.
``repro.analysis``
    Static analysis: counter-invariant linter, workload/arch validator,
    AST source lint (the ``repro lint`` CLI and the profiler's
    sanitizer mode).
``repro.faults``
    Deterministic fault injection (chaos plans) and the resilience
    primitives — retry policies, the recoverable-error taxonomy — that
    campaigns run under (see docs/robustness.md).
``repro.viz``
    Plain-text figures.
"""

from .core import (
    BlackForest,
    HeterogeneousPartitioner,
    BlackForestFit,
    FitArtifact,
    HardwareScalingFit,
    HardwareScalingPredictor,
    ImportanceRanking,
    PredictionReport,
    Predictor,
    ProblemScalingFit,
    ProblemScalingPredictor,
    bottleneck_report,
    common_predictors,
    detect_bottlenecks,
    fit_summary,
    importance_similarity,
    mixed_variable_set,
    per_arch_importance,
    prediction_report_text,
)
from .gpusim import (
    GTX480,
    GTX580,
    K20M,
    CounterSet,
    GPUArchitecture,
    GPUSimulator,
    KernelWorkload,
    Perturbation,
    occupancy,
)
from .kernels import (
    JacobiSolverKernel,
    MatMulKernel,
    StencilKernel,
    NeedlemanWunschKernel,
    ReductionKernel,
    TransposeKernel,
    VectorAddKernel,
    kernel_registry,
)
from .cpusim import CPUArchitecture, CPUSimulator, I7_SANDY, XEON_E5
from .analysis import (
    Finding,
    InvariantViolation,
    Severity,
    lint_tree,
)
from .faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    fault_injection,
)
from .profiling import (
    Campaign,
    CampaignKey,
    CampaignResult,
    Profiler,
    ProfileRepository,
    QuarantinedRun,
    RepositoryIntegrityError,
    RunRecord,
)

__version__ = "1.0.0"

__all__ = [
    "BlackForest",
    "BlackForestFit",
    "FitArtifact",
    "Predictor",
    "HeterogeneousPartitioner",
    "HardwareScalingFit",
    "HardwareScalingPredictor",
    "ImportanceRanking",
    "PredictionReport",
    "ProblemScalingFit",
    "ProblemScalingPredictor",
    "bottleneck_report",
    "common_predictors",
    "detect_bottlenecks",
    "fit_summary",
    "importance_similarity",
    "mixed_variable_set",
    "per_arch_importance",
    "prediction_report_text",
    "GTX480",
    "GTX580",
    "K20M",
    "CounterSet",
    "GPUArchitecture",
    "GPUSimulator",
    "KernelWorkload",
    "Perturbation",
    "occupancy",
    "JacobiSolverKernel",
    "MatMulKernel",
    "NeedlemanWunschKernel",
    "ReductionKernel",
    "StencilKernel",
    "TransposeKernel",
    "VectorAddKernel",
    "kernel_registry",
    "CPUArchitecture",
    "CPUSimulator",
    "I7_SANDY",
    "XEON_E5",
    "Campaign",
    "CampaignKey",
    "CampaignResult",
    "FaultPlan",
    "FaultSpec",
    "Profiler",
    "ProfileRepository",
    "QuarantinedRun",
    "RepositoryIntegrityError",
    "RetryPolicy",
    "RunRecord",
    "fault_injection",
    "Finding",
    "InvariantViolation",
    "Severity",
    "lint_tree",
    "__version__",
]

