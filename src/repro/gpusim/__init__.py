"""GPU performance simulator substrate.

Stands in for the physical GTX580/K20m GPUs and nvprof used by the
paper: architecture descriptions (Table 2), a CUDA occupancy
calculator, coalescing/cache/bank-conflict memory models, an analytical
timing model, and the simulator that turns kernel workload descriptions
into nvprof-style counter vectors plus execution times.
"""

from .arch import GTX480, GTX580, K20M, TABLE2_METRICS, CacheGeometry, GPUArchitecture
from .banks import conflict_degree_for_stride, conflict_degree_from_lanes, replay_count
from .counters import (
    CATALOGUE,
    predictor_counters,
    TABLE1_COUNTERS,
    CounterSet,
    CounterSpec,
    available_counters,
    counters_for,
)
from .microsim import Instruction, MicroResult, MicroSim
from .memory import (
    CacheSim,
    MemoryAccessResult,
    coalesce_trace,
    estimate_hit_fraction,
    resolve_access,
    transactions_from_trace,
    transactions_from_trace_scalar,
    transactions_per_request,
)
from .noise import Perturbation
from .occupancy import OccupancyResult, occupancy
from .roofline import RooflinePoint, attainable_gflops, roofline_chart, roofline_point
from .simulator import (
    GPUSimulator,
    LaunchProfile,
    aggregate_launches,
    average_power_w,
    finalize_counters,
    sum_raw,
)
from .timing import LaunchTiming, TimingModel
from .workload import GlobalAccessPattern, KernelWorkload, LaunchBatch, SharedAccessPattern

__all__ = [
    "GTX480",
    "GTX580",
    "K20M",
    "TABLE2_METRICS",
    "CacheGeometry",
    "GPUArchitecture",
    "conflict_degree_for_stride",
    "conflict_degree_from_lanes",
    "replay_count",
    "CATALOGUE",
    "TABLE1_COUNTERS",
    "CounterSet",
    "CounterSpec",
    "available_counters",
    "predictor_counters",
    "counters_for",
    "CacheSim",
    "Instruction",
    "MicroResult",
    "MicroSim",
    "MemoryAccessResult",
    "coalesce_trace",
    "estimate_hit_fraction",
    "resolve_access",
    "transactions_from_trace",
    "transactions_from_trace_scalar",
    "transactions_per_request",
    "Perturbation",
    "OccupancyResult",
    "RooflinePoint",
    "attainable_gflops",
    "roofline_chart",
    "roofline_point",
    "occupancy",
    "GPUSimulator",
    "LaunchProfile",
    "aggregate_launches",
    "average_power_w",
    "finalize_counters",
    "sum_raw",
    "LaunchTiming",
    "TimingModel",
    "GlobalAccessPattern",
    "KernelWorkload",
    "LaunchBatch",
    "SharedAccessPattern",
]
