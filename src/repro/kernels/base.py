"""Kernel model interface.

Each kernel in ``repro.kernels`` plays two roles:

* a **functional implementation** (`run`) — a faithful numpy port of the
  CUDA kernel's arithmetic, validated against a reference
  (`reference`); this keeps the workload models honest (they describe
  programs that actually compute the right thing);
* a **workload model** (`workloads`) — the per-launch
  :class:`~repro.gpusim.workload.KernelWorkload` descriptions the GPU
  simulator consumes (a list, or a
  :class:`~repro.gpusim.workload.LaunchBatch` of one block template):
  launch geometry, instruction mix, and memory access patterns, derived
  from the same loop structure as `run`.

``characteristics`` exposes the *problem characteristics* the paper
uses as extra predictors (e.g. matrix size, sequence length), and
``default_sweep`` reproduces each use case's experimental design
(Sections 5 and 6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.workload import (
    GlobalAccessPattern,
    KernelWorkload,
    LaunchBatch,
    SharedAccessPattern,
)

__all__ = ["Kernel", "WorkloadAccumulator"]


class Kernel(ABC):
    """A GPU kernel model (functional implementation + workload model)."""

    #: Short identifier, e.g. ``"reduce1"``.
    name: str = "kernel"

    @abstractmethod
    def run(self, problem: Any, rng: np.random.Generator | int | None = None):
        """Execute the algorithm functionally (numpy) and return its result."""

    @abstractmethod
    def reference(self, problem: Any, rng: np.random.Generator | int | None = None):
        """Ground-truth result for :meth:`run` validation."""

    @abstractmethod
    def workloads(
        self, problem: Any, arch: GPUArchitecture
    ) -> Sequence[KernelWorkload]:
        """Per-launch workload descriptions for the simulator: a list,
        or a :class:`~repro.gpusim.workload.LaunchBatch` when every
        launch shares one block template."""

    @abstractmethod
    def characteristics(self, problem: Any) -> dict[str, float]:
        """Problem characteristics used as model predictors (e.g. size)."""

    @abstractmethod
    def default_sweep(self) -> list[Any]:
        """The problem instances of the paper's experimental design."""

    def __repr__(self) -> str:
        return f"<Kernel {self.name}>"


class WorkloadAccumulator:
    """Builds a :class:`KernelWorkload` from per-block loop walks.

    Kernel models walk their loop structure once *per block shape* and
    record warp-level instructions together with the number of live
    threads; the accumulator scales the per-block totals by the grid
    size and tracks the thread/warp ratio that becomes
    ``warp_execution_efficiency``.
    """

    def __init__(self, name: str, grid_blocks: int, threads_per_block: int,
                 regs_per_thread: int, shared_mem_per_block: int) -> None:
        self.name = name
        self.grid_blocks = grid_blocks
        self.threads_per_block = threads_per_block
        self.regs_per_thread = regs_per_thread
        self.shared_mem_per_block = shared_mem_per_block
        self._arith = 0.0
        self._fma = 0.0
        self._branches = 0.0
        self._divergent = 0.0
        self._other = 0.0
        self._thread_insts = 0.0
        self._warp_insts = 0.0
        # shared accesses bucketed by (kind, conflict degree)
        self._shared: dict[tuple[str, float], float] = {}
        self._global: list[dict] = []
        self.memory_ilp = 1.0
        self._critical_path = 0.0

    def set_memory_ilp(self, ilp: float) -> None:
        """Independent in-flight global loads per warp (>= 1)."""
        self.memory_ilp = float(ilp)

    def chain(self, cycles: float) -> None:
        """Add dependent-latency cycles to the per-warp critical path."""
        self._critical_path += float(cycles)

    # counts below are *per block*; `warps` = warp instructions issued,
    # `lanes` = live threads per warp instruction.

    def _note(self, warps: float, lanes: float) -> None:
        self._warp_insts += warps
        self._thread_insts += warps * lanes

    def arith(self, warps: float, lanes: float = 32.0, fma: bool = False) -> None:
        self._arith += warps
        if fma:
            self._fma += warps
        self._note(warps, lanes)

    def branch(self, warps: float, lanes: float = 32.0, divergent: float = 0.0) -> None:
        self._branches += warps
        self._divergent += divergent
        self._note(warps, lanes)

    def sync(self, warps: float, lanes: float = 32.0) -> None:
        self._other += warps
        self._note(warps, lanes)

    def shared(self, kind: str, warps: float, lanes: float = 32.0,
               conflict_degree: float = 1.0) -> None:
        key = (kind, round(float(conflict_degree), 6))
        self._shared[key] = self._shared.get(key, 0.0) + warps
        self._note(warps, lanes)

    def global_access(self, kind: str, warps: float, lanes: int = 32,
                      stride_words: int = 1, word_bytes: int = 4,
                      unique_bytes: int | None = None,
                      l1_hit_fraction: float | None = None,
                      l2_hit_fraction: float | None = None) -> None:
        self._global.append(dict(kind=kind, requests=warps, active_lanes=lanes,
                                 stride_words=stride_words, word_bytes=word_bytes,
                                 unique_bytes=unique_bytes,
                                 l1_hit_fraction=l1_hit_fraction,
                                 l2_hit_fraction=l2_hit_fraction))
        self._note(warps, float(lanes))

    def build(self) -> KernelWorkload:
        return self.build_for_grid(self.grid_blocks)

    def build_for_grid(
        self,
        grid_blocks: int | Sequence[int],
        name: str | Sequence[str] | None = None,
    ) -> KernelWorkload | LaunchBatch:
        """Scale the recorded per-block counts to other grid sizes.

        Lets kernels that launch the same block shape many times with
        varying grids (e.g. Needleman–Wunsch's per-diagonal launches)
        walk the block loop structure once. A vector of grid sizes, with
        one name per launch (default: the accumulator's name), returns a
        :class:`~repro.gpusim.workload.LaunchBatch`; a single grid size
        returns that batch's one :class:`KernelWorkload`.
        """
        if np.ndim(grid_blocks) == 0:
            name = self.name if name is None else name
            return self.build_for_grid([grid_blocks], [name])[0]
        if name is None:
            name = [self.name] * len(grid_blocks)
        avg_lanes = (
            self._thread_insts / self._warp_insts if self._warp_insts > 0 else 32.0
        )
        return LaunchBatch(
            names=name,
            grid_blocks=grid_blocks,
            threads_per_block=self.threads_per_block,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=self.shared_mem_per_block,
            arithmetic_instructions=self._arith,
            fma_instructions=self._fma,
            branches=self._branches,
            divergent_branches=self._divergent,
            other_instructions=self._other,
            avg_active_threads=float(np.clip(avg_lanes, 1e-6, 32.0)),
            global_accesses=[GlobalAccessPattern(**spec) for spec in self._global],
            shared_accesses=[
                SharedAccessPattern(kind=k, requests=w, conflict_degree=deg)
                for (k, deg), w in sorted(self._shared.items())
                if w > 0
            ],
            memory_ilp=self.memory_ilp,
            critical_path_cycles=self._critical_path,
        )
