"""Kernel workload intermediate representation.

A :class:`KernelWorkload` is what a kernel model (``repro.kernels``)
hands to the simulator for **one kernel launch**: launch geometry,
per-SM resource usage, device-wide dynamic warp-level instruction
counts, and the memory access patterns needed to derive transactions,
cache behaviour and replays.

Counts are *device-wide totals at warp granularity*, matching how the
profiler events of Table 1 increment ("increments per warp on a
multiprocessor"): e.g. ``gld_request`` is the number of executed
warp-level global-load instructions summed over all warps.

A :class:`LaunchBatch` stands for many launches of one block template
that differ only in grid size (e.g. Needleman–Wunsch's per-diagonal
launches): it holds the per-block counts once plus a vector of grid
sizes, and materialises each launch's :class:`KernelWorkload` on demand.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = ["GlobalAccessPattern", "SharedAccessPattern", "KernelWorkload", "LaunchBatch"]


@dataclass
class GlobalAccessPattern:
    """A class of global-memory warp accesses with a common shape.

    Parameters
    ----------
    kind:
        ``"load"`` or ``"store"``.
    requests:
        Device-wide count of warp-level memory instructions of this class.
    word_bytes:
        Bytes accessed per thread (4 for float/int, 8 for double).
    stride_words:
        Address distance between consecutive lanes, in words; 1 is fully
        coalesced, 0 is a broadcast, larger strides scatter the request
        over more memory segments.
    active_lanes:
        Threads per warp participating in the access (<=32); partial
        warps and divergent accesses touch fewer lanes.
    unique_bytes:
        Footprint: distinct bytes this access class touches over the
        whole launch. Drives the analytic cache-hit estimate. None means
        "streaming" (every byte touched once per request ensemble).
    l1_hit_fraction, l2_hit_fraction:
        Optional overrides when the kernel model computes hit rates
        itself (e.g. from a sampled address trace via
        :class:`repro.gpusim.memory.CacheSim`).
    addresses:
        Optional sampled per-request lane addresses, shape
        ``(n_sample_requests, 32)`` with -1 marking inactive lanes. When
        provided, the simulator derives transactions-per-request and L1
        hit rates from this trace instead of the analytic stride model.
    """

    kind: str
    requests: int
    word_bytes: int = 4
    stride_words: int = 1
    active_lanes: int = 32
    unique_bytes: int | None = None
    l1_hit_fraction: float | None = None
    l2_hit_fraction: float | None = None
    addresses: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store"):
            raise ValueError(f"kind must be 'load' or 'store', got {self.kind!r}")
        if self.requests < 0:
            raise ValueError("requests must be non-negative")
        if not 1 <= self.active_lanes <= 32:
            raise ValueError("active_lanes must be in [1, 32]")
        if self.word_bytes not in (1, 2, 4, 8, 16):
            raise ValueError("word_bytes must be a power of two <= 16")
        if self.stride_words < 0:
            raise ValueError("stride_words must be >= 0")
        for frac in (self.l1_hit_fraction, self.l2_hit_fraction):
            if frac is not None and not 0.0 <= frac <= 1.0:
                raise ValueError("hit fractions must be in [0, 1]")
        if self.unique_bytes is not None and self.unique_bytes < 0:
            raise ValueError("unique_bytes must be non-negative")
        if self.addresses is not None:
            trace = np.asarray(self.addresses)
            if trace.ndim != 2 or trace.shape[1] != 32:
                raise ValueError(
                    f"addresses must have shape (n_requests, 32), "
                    f"got {trace.shape}"
                )
            if trace.size and trace.min() < -1:
                raise ValueError(
                    "addresses must be >= -1 (-1 marks inactive lanes)"
                )

    @property
    def requested_bytes(self) -> int:
        """Bytes the threads asked for (the 'requested throughput' base)."""
        return self.requests * self.active_lanes * self.word_bytes


@dataclass
class SharedAccessPattern:
    """A class of shared-memory warp accesses.

    ``conflict_degree`` is the average number of simultaneous accesses
    falling in the same bank (1.0 = conflict-free). A degree-k conflict
    serializes into k transactions, i.e. k-1 *replays* of the
    instruction — the mechanism behind ``shared_replay_overhead`` and
    Fermi's ``l1_shared_bank_conflict`` counter (paper Section 3.2).
    """

    kind: str
    requests: int
    word_bytes: int = 4
    conflict_degree: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store"):
            raise ValueError(f"kind must be 'load' or 'store', got {self.kind!r}")
        if self.requests < 0:
            raise ValueError("requests must be non-negative")
        if self.word_bytes not in (1, 2, 4, 8, 16):
            raise ValueError("word_bytes must be a power of two <= 16")
        if not math.isfinite(self.conflict_degree) or self.conflict_degree < 1.0:
            raise ValueError("conflict_degree must be finite and >= 1.0")

    @property
    def replays(self) -> float:
        """Device-wide replayed instruction count caused by conflicts."""
        return self.requests * (self.conflict_degree - 1.0)


@dataclass
class KernelWorkload:
    """One kernel launch, as seen by the performance simulator."""

    name: str
    grid_blocks: int
    threads_per_block: int
    regs_per_thread: int = 16
    shared_mem_per_block: int = 0

    #: Device-wide warp-level arithmetic instructions (FP + int + address math).
    arithmetic_instructions: int = 0
    #: Of which single-precision FMA-class (counts 2 flops each).
    fma_instructions: int = 0
    #: Control-flow instructions and how many of them diverged.
    branches: int = 0
    divergent_branches: int = 0
    #: Synchronization / misc instructions (bar.sync etc.).
    other_instructions: int = 0
    #: Average live threads per executed warp instruction (<= 32).
    avg_active_threads: float = 32.0

    global_accesses: list[GlobalAccessPattern] = field(default_factory=list)
    shared_accesses: list[SharedAccessPattern] = field(default_factory=list)

    #: Independent global loads a warp keeps in flight (memory-level
    #: parallelism within one warp); e.g. the four independent tile
    #: loads of a matrix-multiply phase. Divides exposed load latency.
    memory_ilp: float = 1.0
    #: Per-warp dependent-latency chain in cycles (e.g. a DP tile's
    #: step-by-step shared-memory recurrence); charged on the serial
    #: path that binds at low occupancy.
    critical_path_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.grid_blocks < 1:
            raise ValueError("grid_blocks must be >= 1")
        if self.threads_per_block < 1:
            raise ValueError("threads_per_block must be >= 1")
        if self.regs_per_thread < 0:
            raise ValueError("regs_per_thread must be non-negative")
        if self.shared_mem_per_block < 0:
            raise ValueError("shared_mem_per_block must be non-negative")
        if not 0.0 < self.avg_active_threads <= 32.0:
            raise ValueError("avg_active_threads must be in (0, 32]")
        if self.memory_ilp < 1.0:
            raise ValueError("memory_ilp must be >= 1.0")
        if self.critical_path_cycles < 0.0:
            raise ValueError("critical_path_cycles must be >= 0")
        for count in (
            self.arithmetic_instructions,
            self.fma_instructions,
            self.branches,
            self.divergent_branches,
            self.other_instructions,
        ):
            if count < 0:
                raise ValueError("instruction counts must be non-negative")
        if self.divergent_branches > self.branches:
            raise ValueError("divergent_branches cannot exceed branches")
        if self.fma_instructions > self.arithmetic_instructions:
            raise ValueError(
                "fma_instructions cannot exceed arithmetic_instructions "
                "(FMAs are a subset of the arithmetic mix)"
            )

    # -- derived -------------------------------------------------------------

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.threads_per_block / 32)

    @property
    def total_warps(self) -> int:
        return self.grid_blocks * self.warps_per_block

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    @property
    def ldst_instructions(self) -> int:
        """All memory warp instructions (global + shared, loads + stores)."""
        return int(
            sum(a.requests for a in self.global_accesses)
            + sum(s.requests for s in self.shared_accesses)
        )

    @property
    def executed_instructions(self) -> int:
        """``inst_executed``: warp instructions, replays *not* included."""
        return int(
            self.arithmetic_instructions
            + self.branches
            + self.other_instructions
            + self.ldst_instructions
        )

    def loads(self, space: str) -> list:
        acc = self.global_accesses if space == "global" else self.shared_accesses
        return [a for a in acc if a.kind == "load"]

    def stores(self, space: str) -> list:
        acc = self.global_accesses if space == "global" else self.shared_accesses
        return [a for a in acc if a.kind == "store"]


#: Per-block instruction counts a :class:`LaunchBatch` scales by the grid.
_INSTRUCTION_COUNTS = (
    "arithmetic_instructions",
    "fma_instructions",
    "branches",
    "divergent_branches",
    "other_instructions",
)


def _scaled(per_block: float, grid_blocks: np.ndarray, floor: int) -> np.ndarray:
    """``per_block * grid_blocks`` rounded half to even (Python's
    ``round``), at least ``floor``: the one rounding rule of a batch."""
    scaled = np.rint(np.multiply(per_block, grid_blocks, dtype=np.float64))
    return np.maximum(floor, scaled).astype(np.int64)


@dataclass(frozen=True, eq=False, repr=False, kw_only=True)
class LaunchBatch(Sequence[KernelWorkload]):
    """Launches of one block template that differ only in grid size.

    The instruction counts and the ``requests`` of the access patterns
    are *per block* (fractional warp counts, as a kernel model's loop
    walk records them). Launch ``i`` runs ``grid_blocks[i]`` blocks and
    is called ``names[i]``; its counts are the per-block ones scaled by
    its grid and rounded half to even (requests at least 1).

    A batch is a ``Sequence[KernelWorkload]``: indexing or iterating it
    materialises each launch's :class:`KernelWorkload`, so anything that
    consumes a workload list accepts a batch.
    :meth:`repro.gpusim.GPUSimulator.run_totals` instead evaluates the
    whole batch as arrays over the launch axis.
    """

    names: tuple[str, ...]
    grid_blocks: np.ndarray
    threads_per_block: int
    regs_per_thread: int = 16
    shared_mem_per_block: int = 0
    arithmetic_instructions: float = 0.0
    fma_instructions: float = 0.0
    branches: float = 0.0
    divergent_branches: float = 0.0
    other_instructions: float = 0.0
    avg_active_threads: float = 32.0
    global_accesses: tuple[GlobalAccessPattern, ...] = ()
    shared_accesses: tuple[SharedAccessPattern, ...] = ()
    memory_ilp: float = 1.0
    critical_path_cycles: float = 0.0

    def __post_init__(self) -> None:
        grids = np.array(self.grid_blocks, dtype=np.int64)
        grids.setflags(write=False)
        object.__setattr__(self, "grid_blocks", grids)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "global_accesses", tuple(self.global_accesses))
        object.__setattr__(self, "shared_accesses", tuple(self.shared_accesses))
        if grids.ndim != 1 or grids.size != len(self.names):
            raise ValueError("grid_blocks must be a vector with one name per launch")
        if grids.size and grids.min() < 1:
            raise ValueError("grid_blocks must be >= 1")
        if any(a.addresses is not None for a in self.global_accesses):
            raise ValueError("a launch batch's access patterns carry no address trace")
        if grids.size:
            self[0]  # the launch shape validates as a KernelWorkload

    def __len__(self) -> int:
        return self.grid_blocks.size

    def __getitem__(self, index: int) -> KernelWorkload:
        i = range(len(self))[operator.index(index)]
        c = self.counts
        return KernelWorkload(
            name=self.names[i],
            grid_blocks=int(self.grid_blocks[i]),
            threads_per_block=self.threads_per_block,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=self.shared_mem_per_block,
            avg_active_threads=self.avg_active_threads,
            global_accesses=[
                replace(a, requests=int(r[i]))
                for a, r in zip(self.global_accesses, c["global"])
            ],
            shared_accesses=[
                replace(s, requests=int(r[i]))
                for s, r in zip(self.shared_accesses, c["shared"])
            ],
            memory_ilp=self.memory_ilp,
            critical_path_cycles=self.critical_path_cycles,
            **{name: int(c[name][i]) for name in _INSTRUCTION_COUNTS},
        )

    def __iter__(self) -> Iterator[KernelWorkload]:
        return (self[i] for i in range(len(self)))

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.threads_per_block / 32)

    def __repr__(self) -> str:
        return (f"LaunchBatch({len(self)} launches of "
                f"{self.threads_per_block}-thread blocks)")

    @cached_property
    def counts(self) -> dict[str, np.ndarray]:
        """Every launch's integer counts (int64, launch axis last).

        One entry per instruction count, plus ``"global"`` and
        ``"shared"``: one row of request counts per access pattern.
        """
        g = self.grid_blocks
        c = {name: _scaled(getattr(self, name), g, 0) for name in _INSTRUCTION_COUNTS}
        c["divergent_branches"] = np.minimum(c["divergent_branches"], c["branches"])
        for key, patterns in (("global", self.global_accesses),
                              ("shared", self.shared_accesses)):
            c[key] = np.array(
                [_scaled(a.requests, g, 1) for a in patterns], dtype=np.int64
            ).reshape(len(patterns), g.size)
        return c
