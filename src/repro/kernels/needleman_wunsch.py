"""Needleman–Wunsch sequence alignment (Rodinia ``nw``).

The Section 6.1.2 use case: global DNA sequence alignment by dynamic
programming over an (L+1) x (L+1) score matrix filled "from top left to
bottom right with scores representing the value of the maximum weighted
path ending at each cell".

The Rodinia GPU implementation "processes the score matrix in parallel
along diagonal strips using hierarchical parallelism (at grid-level and
TB-level)": the matrix is tiled into 16x16 blocks; two kernels sweep
the block anti-diagonals (upper-left triangle, then lower-right), one
kernel launch per block diagonal with as many thread blocks as the
diagonal holds. "For maximum occupancy, each TB only has 16 threads",
which in fact leaves warps half empty and SMs underfed — the low
``achieved_occupancy`` that dominates the paper's Fig. 6a. Within a
block, threads walk the 31 cell anti-diagonals of the tile in shared
memory; the diagonal indexing strides 16 words between lanes, which
costs shared-memory bank conflicts, and the west-halo column read is a
fully uncoalesced global access — hence the ``l1_global_load_miss`` /
``l1_shared_bank_conflict`` presence the paper observes on Fermi.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.banks import conflict_degree_from_lanes
from repro.gpusim.workload import LaunchBatch

from .base import Kernel, WorkloadAccumulator

__all__ = ["NeedlemanWunschKernel"]

_TILE = 16


class NeedlemanWunschKernel(Kernel):
    """Rodinia-style Needleman–Wunsch model.

    ``problem`` is the sequence length ``L`` (multiple of the 16-cell
    tile). The functional path computes the full DP score; a blocked
    variant (:meth:`run_blocked`) mirrors the GPU tile traversal order
    and is used to validate that tiling preserves the recurrence.
    """

    name = "needleman-wunsch"

    def __init__(self, penalty: int = 10) -> None:
        if penalty <= 0:
            raise ValueError("penalty must be positive")
        self.penalty = penalty

    # ------------------------------------------------------------------
    # functional implementation
    # ------------------------------------------------------------------

    def _make_inputs(self, L: int, rng) -> np.ndarray:
        """Random similarity matrix (Rodinia initializes scores randomly)."""
        rng = np.random.default_rng(rng if rng is not None else L)
        return rng.integers(-10, 11, size=(L, L), dtype=np.int16)

    def reference(self, problem: int, rng=None) -> int:
        """Row-by-row DP (vectorized along columns is impossible due to
        the west dependency, so this walks rows with a running max)."""
        L = int(problem)
        sim = self._make_inputs(L, rng)
        p = self.penalty
        prev = -p * np.arange(L + 1, dtype=np.int64)
        for i in range(1, L + 1):
            cur = np.empty(L + 1, dtype=np.int64)
            cur[0] = -p * i
            diag = prev[:-1] + sim[i - 1]
            north = prev[1:] - p
            best = np.maximum(diag, north)
            west = cur[0]
            for j in range(1, L + 1):
                west = cur[j] = max(best[j - 1], west - p)
            prev = cur
        return int(prev[L])

    def run(self, problem: int, rng=None) -> int:
        """Anti-diagonal (wavefront) DP — the parallel order the GPU
        kernels implement, vectorized along each diagonal."""
        L = int(problem)
        sim = self._make_inputs(L, rng)
        p = self.penalty
        # F is indexed [i, j]; keep three rolling anti-diagonals.
        # Diagonal d holds cells with i + j == d, i in [max(0,d-L), min(d,L)].
        prev2 = np.array([0], dtype=np.int64)                 # d = 0
        prev1 = np.array([-p, -p], dtype=np.int64)            # d = 1: (0,1),(1,0)
        if L == 0:
            return 0
        for d in range(2, 2 * L + 1):
            lo, hi = max(0, d - L), min(d, L)
            i = np.arange(lo, hi + 1)
            j = d - i
            cur = np.full(i.size, np.iinfo(np.int64).min, dtype=np.int64)

            p1_lo = max(0, d - 1 - L)
            p2_lo = max(0, d - 2 - L)

            interior = (i >= 1) & (j >= 1)
            ii, jj = i[interior], j[interior]
            diag = prev2[(ii - 1) - p2_lo] + sim[ii - 1, jj - 1]
            north = prev1[(ii - 1) - p1_lo] - p   # cell (i-1, j)
            west = prev1[ii - p1_lo] - p          # cell (i, j-1)
            cur[interior] = np.maximum(diag, np.maximum(north, west))
            if lo == 0:
                cur[0] = -p * d if d <= L else cur[0]
            if hi == d:  # j == 0 boundary
                cur[-1] = -p * d if d <= L else cur[-1]
            prev2, prev1 = prev1, cur
        return int(prev1[-1] if L > 0 else 0)

    def run_blocked(self, problem: int, rng=None) -> int:
        """Tile-by-tile traversal in GPU launch order (small L only)."""
        L = int(problem)
        self._check(L)
        sim = self._make_inputs(L, rng)
        p = self.penalty
        F = np.zeros((L + 1, L + 1), dtype=np.int64)
        F[0, :] = -p * np.arange(L + 1)
        F[:, 0] = -p * np.arange(L + 1)
        B = L // _TILE

        def do_block(bi: int, bj: int) -> None:
            for ii in range(bi * _TILE + 1, (bi + 1) * _TILE + 1):
                for jj in range(bj * _TILE + 1, (bj + 1) * _TILE + 1):
                    F[ii, jj] = max(
                        F[ii - 1, jj - 1] + sim[ii - 1, jj - 1],
                        F[ii - 1, jj] - p,
                        F[ii, jj - 1] - p,
                    )

        for d in range(1, B + 1):          # kernel 1: upper-left sweep
            for bi in range(d):
                do_block(bi, d - 1 - bi)
        for d in range(B - 1, 0, -1):      # kernel 2: lower-right sweep
            for bi in range(B - d, B):
                do_block(bi, 2 * B - 1 - d - bi)
        return int(F[L, L])

    def _check(self, L: int) -> None:
        if L < _TILE or L % _TILE:
            raise ValueError(f"sequence length must be a positive multiple of {_TILE}")

    # ------------------------------------------------------------------
    # workload model
    # ------------------------------------------------------------------

    def _block_template(self, L: int, arch: GPUArchitecture) -> WorkloadAccumulator:
        """Per-block instruction/access walk (identical for every tile)."""
        acc = WorkloadAccumulator(
            name=self.name,
            grid_blocks=1,
            threads_per_block=_TILE,
            regs_per_thread=min(21, arch.max_registers_per_thread),
            shared_mem_per_block=(_TILE + 1) * (_TILE + 1) * 4 + _TILE * _TILE * 4,
        )
        matrix_bytes = (L + 1) * (L + 1) * 4
        row_words = L + 1
        # Halo rows load independently; the DP recurrence below is the
        # dependent chain (one shared round-trip + max ops + barrier per
        # anti-diagonal step, plus serialized conflict replays).
        acc.set_memory_ilp(2.0)

        # Halo/row loads: 17 tile rows + 16 reference rows, one 16-lane
        # request each, rows far apart in memory. Small L1 reuse from the
        # shared tile edges of the previous diagonal.
        acc.global_access("load", _TILE + 1 + _TILE, lanes=_TILE, stride_words=1,
                          unique_bytes=2 * matrix_bytes)
        # West halo column: 16 cells with a row stride — fully uncoalesced.
        acc.global_access("load", 1, lanes=_TILE, stride_words=row_words,
                          unique_bytes=2 * matrix_bytes)
        # Stage into shared memory.
        acc.shared("store", _TILE + 1 + _TILE, lanes=_TILE)
        acc.arith(4, lanes=_TILE)
        acc.sync(1, lanes=_TILE)

        # Anti-diagonal DP over the tile: 31 steps. Thread t handles cell
        # (t, d - t) of temp[17][17]: lane word index = t*17 + (d - t)
        # = 16 t + d -> 16-word stride between lanes.
        for step in range(2 * _TILE - 1):
            width = step + 1 if step < _TILE else 2 * _TILE - 1 - step
            lanes = np.arange(width)
            words = lanes * (_TILE + 1) + (step - lanes)
            degree = conflict_degree_from_lanes(words, banks=arch.shared_banks)
            acc.branch(1, lanes=width, divergent=1.0 if width < _TILE else 0.0)
            acc.shared("load", 3, lanes=width, conflict_degree=degree)
            acc.arith(5, lanes=width)
            acc.shared("store", 1, lanes=width, conflict_degree=degree)
            acc.sync(1, lanes=_TILE)
            acc.chain(28.0 + 5.0 + 2.0 * (degree - 1.0) + 15.0)

        # Write the tile back.
        acc.shared("load", _TILE, lanes=_TILE)
        acc.global_access("store", _TILE, lanes=_TILE, stride_words=1,
                          unique_bytes=matrix_bytes)
        acc.arith(2, lanes=_TILE)
        return acc

    def workloads(self, problem: int, arch: GPUArchitecture) -> LaunchBatch:
        """Both diagonal sweeps as one batch: kernel 1 over block
        diagonals ``1..B``, then kernel 2 over ``B-1..1``."""
        L = int(problem)
        self._check(L)
        B = L // _TILE
        sweep1 = list(range(1, B + 1))
        sweep2 = list(range(B - 1, 0, -1))
        return self._block_template(L, arch).build_for_grid(
            sweep1 + sweep2,
            [f"nw_kernel1(d={d})" for d in sweep1]
            + [f"nw_kernel2(d={d})" for d in sweep2],
        )

    # ------------------------------------------------------------------

    def characteristics(self, problem: int) -> dict[str, float]:
        return {"size": float(problem)}

    def default_sweep(self) -> list[int]:
        """Sequence lengths 64..8256 with a pitch of 64 — "generating
        129 trials" (Section 6.1.2)."""
        return [int(s) for s in np.arange(64, 8256 + 1, 64)]
