"""Analytical kernel timing model (roofline-with-latency, Hong–Kim style).

Execution time per launch is derived from four lower bounds evaluated
per *wave* of resident thread blocks on the busiest SM:

* **issue/compute bound** — issued warp instructions (replays included)
  divided by the SM's effective issue rate. Bank-conflict and
  uncoalesced-access replays inflate this bound, which is how the
  reduce1 bottleneck (paper Section 5.2) costs time.
* **memory latency bound** — per-warp memory stall cycles serialized
  over the achievable memory warp parallelism (MWP, Hong & Kim
  ISCA'09): ``MWP = min(N, latency / departure_delay)`` where the
  departure delay grows with the transactions each request splits into.
  Low occupancy (small N) exposes latency — the Needleman–Wunsch
  situation (paper Section 6.1.2).
* **bandwidth bound** — DRAM bytes moved divided by per-SM bandwidth;
  binding for streaming kernels such as the optimized reduce6.
* **single-warp critical path** — a lone warp's serial compute+memory
  time; dominates degenerate tiny launches.

The bound that binds *is* the bottleneck, so the counters feeding it
correlate with time — exactly the structure random-forest variable
importance is supposed to recover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import GPUArchitecture
from .memory import MemoryAccessResult
from .occupancy import OccupancyResult

__all__ = ["LaunchTiming", "TimingModel"]


def left_sum(values):
    """``sum`` strictly left to right, starting from ``0``.

    Python 3.12's builtin ``sum`` compensates float rounding; the
    simulator's float totals use this instead, so a launch's numbers do
    not depend on the Python version and the batch path
    (:meth:`TimingModel.evaluate_batch`, which adds numpy arrays
    elementwise in the same order) reproduces them exactly.
    """
    total = 0
    for value in values:
        total = total + value
    return total


#: The four bounds, in the order ``LaunchTiming.binding`` breaks ties.
_BOUNDS = ("compute", "latency", "bandwidth", "serial")


@dataclass
class LaunchTiming:
    """Cycle/time breakdown of one simulated launch."""

    cycles: float                # busiest-SM active cycles
    time_s: float                # wall time including launch overhead
    compute_bound_cycles: float
    latency_bound_cycles: float
    bandwidth_bound_cycles: float
    serial_warp_cycles: float
    waves: int
    avg_resident_warps: float    # cycle-weighted warps resident on the busiest SM
    n_active_sms: int
    binding: str                 # which bound won: compute|latency|bandwidth|serial

    @property
    def bottleneck(self) -> str:
        return self.binding


class TimingModel:
    """Evaluates the bounds for a workload on an architecture."""

    def __init__(self, arch: GPUArchitecture) -> None:
        self.arch = arch
        # Warp instructions the SM can issue per cycle: limited by the
        # scheduler/dispatch configuration and by the ALU width.
        self.issue_rate = float(
            min(
                arch.warp_schedulers * arch.dispatch_units_per_scheduler,
                max(arch.cores_per_sm / arch.warp_size, 1.0),
            )
        )

    # -- helpers -----------------------------------------------------------

    def load_request_latency(self, m: MemoryAccessResult) -> float:
        """Average stall latency of one warp *load request*.

        A request stalls for the latency of the level that serves it
        (the per-transaction split only affects pipe occupancy, which is
        charged separately as departure delay): L1-hit latency with the
        L1 hit fraction, else L2 or DRAM latency with the L2 hit
        fraction of the L1-miss traffic.
        """
        arch = self.arch
        if m.transactions <= 0:
            return 0.0
        l1_frac = m.l1_hits / m.transactions if m.transactions > 0 else 0.0
        h2 = m.l2_hits / m.l2_transactions if m.l2_transactions > 0 else 0.0
        miss_lat = h2 * arch.l2_latency_cycles + (1.0 - h2) * arch.dram_latency_cycles
        return l1_frac * arch.shared_latency_cycles + (1.0 - l1_frac) * miss_lat

    def memory_stall_cycles(self, mem: list[MemoryAccessResult]) -> float:
        """Device-wide warp stall cycles attributable to global memory.

        Loads: full service latency per request plus departure-delay
        occupancy for every extra transaction an uncoalesced request
        splits into. Stores: fire-and-forget — they only occupy the
        memory pipe (departure delay per transaction), they do not stall
        the issuing warp.
        """
        arch = self.arch
        total = 0.0
        for m in mem:
            if m.kind == "load":
                total += m.requests * self.load_request_latency(m)
                total += max(m.transactions - m.requests, 0.0) * arch.departure_delay_coalesced
            else:
                total += m.transactions * arch.departure_delay_coalesced
        return total

    def mean_memory_latency(self, mem: list[MemoryAccessResult]) -> float:
        """Request-weighted mean load latency (the MWP numerator)."""
        loads = [m for m in mem if m.kind == "load" and m.requests > 0]
        requests = sum(m.requests for m in loads)
        if requests <= 0:
            return self.arch.dram_latency_cycles
        return left_sum(m.requests * self.load_request_latency(m) for m in loads) / requests

    def departure_delay(self, mem: list[MemoryAccessResult]) -> float:
        """Cycles between consecutive memory requests leaving a warp,
        inflated by the average transactions-per-request (uncoalesced
        requests occupy the load/store unit longer)."""
        requests = sum(m.requests for m in mem)
        transactions = left_sum(m.transactions for m in mem)
        tpr = transactions / requests if requests > 0 else 1.0
        return self.arch.departure_delay_coalesced * max(tpr, 1.0)

    # -- main entry ----------------------------------------------------------

    def evaluate(
        self,
        grid_blocks: int,
        warps_per_block: int,
        occ: OccupancyResult,
        issued_per_warp: float,
        mem: list[MemoryAccessResult],
        total_warps: int,
        dram_bytes: float,
        shared_transactions: float = 0.0,
        memory_ilp: float = 1.0,
        critical_path_cycles: float = 0.0,
        sched_efficiency: float = 1.0,
        dram_efficiency: float = 1.0,
    ) -> LaunchTiming:
        """Evaluate the bounds.

        ``memory_ilp`` is the independent loads one warp keeps in flight
        (divides its exposed latency); ``critical_path_cycles`` is the
        per-warp dependent chain charged on the serial path.
        ``sched_efficiency`` discounts warp issue promptness and
        ``dram_efficiency`` discounts usable DRAM bandwidth (per-run
        perturbations, <= 1).
        """
        arch = self.arch
        n_active_sms = min(grid_blocks, arch.n_sms)
        busiest_blocks = math.ceil(grid_blocks / arch.n_sms)
        waves = math.ceil(busiest_blocks / occ.active_blocks_per_sm)

        # Per-warp cost components (device-wide averages).
        comp_cycles_warp = issued_per_warp * arch.issue_cycles_per_instruction
        mem_stall_total = self.memory_stall_cycles(mem)
        mem_cycles_warp = mem_stall_total / total_warps if total_warps else 0.0

        # Shared-memory traffic is throughput-limited by the LSU pipe:
        # a warp access occupies it for warp_size / lsu_units cycles
        # (2 on Fermi GF110, 1 on GK110); conflicts replay the access.
        lsu_cycles_per_access = arch.warp_size / arch.lsu_units
        lsu_cycles_warp = (
            shared_transactions * lsu_cycles_per_access / total_warps
            if total_warps
            else 0.0
        )

        mem_lat = self.mean_memory_latency(mem)
        departure = self.departure_delay(mem)

        bytes_per_cycle_sm = arch.bytes_per_cycle() * dram_efficiency / arch.n_sms
        dram_bytes_per_block = dram_bytes / grid_blocks if grid_blocks else 0.0

        total_cycles = 0.0
        warp_cycles_weighted = 0.0
        bound_totals = dict.fromkeys(_BOUNDS, 0.0)

        remaining_blocks = busiest_blocks
        for _ in range(waves):
            wave_blocks = min(occ.active_blocks_per_sm, remaining_blocks)
            remaining_blocks -= wave_blocks
            n_warps = wave_blocks * warps_per_block

            n_warps_eff = n_warps * sched_efficiency
            mwp = max(1.0, min(float(n_warps), mem_lat / departure))
            # Scheduler inefficiency (idle issue slots while warps are
            # ready) stretches every issue- or latency-dominated path:
            # the compute/LSU bounds, the overlapped latency bound and
            # the single-warp critical path all divide by it; the DRAM
            # bandwidth bound does not (a saturated memory bus does not
            # care how promptly warps issue).
            comp_bound = (
                n_warps
                * max(comp_cycles_warp / self.issue_rate, lsu_cycles_warp)
                / sched_efficiency
            )
            lat_bound = (
                n_warps * mem_cycles_warp / (mwp * memory_ilp) / sched_efficiency
            )
            bw_bound = (
                wave_blocks * dram_bytes_per_block / bytes_per_cycle_sm
                if bytes_per_cycle_sm > 0
                else 0.0
            )
            serial = (
                comp_cycles_warp
                + mem_cycles_warp / memory_ilp
                + lsu_cycles_warp
                + critical_path_cycles
            ) / sched_efficiency

            wave_cycles = max(comp_bound, lat_bound, bw_bound, serial)
            total_cycles += wave_cycles
            warp_cycles_weighted += n_warps_eff * wave_cycles
            bound_totals["compute"] += comp_bound
            bound_totals["latency"] += lat_bound
            bound_totals["bandwidth"] += bw_bound
            bound_totals["serial"] += serial

        binding = max(bound_totals, key=bound_totals.get)
        avg_resident = warp_cycles_weighted / total_cycles if total_cycles > 0 else 0.0

        time_s = total_cycles / (arch.clock_ghz * 1e9)
        time_s += arch.kernel_launch_overhead_us * 1e-6

        return LaunchTiming(
            cycles=total_cycles,
            time_s=time_s,
            compute_bound_cycles=bound_totals["compute"],
            latency_bound_cycles=bound_totals["latency"],
            bandwidth_bound_cycles=bound_totals["bandwidth"],
            serial_warp_cycles=bound_totals["serial"],
            waves=waves,
            avg_resident_warps=avg_resident,
            n_active_sms=n_active_sms,
            binding=binding,
        )

    # -- batch entry -----------------------------------------------------------

    def evaluate_batch(
        self,
        grid_blocks: np.ndarray,
        warps_per_block: int,
        occ: OccupancyResult,
        issued_per_warp: np.ndarray,
        mem: list[MemoryAccessResult],
        total_warps: np.ndarray,
        dram_bytes: np.ndarray,
        shared_transactions: np.ndarray,
        memory_ilp: float = 1.0,
        critical_path_cycles: float = 0.0,
        sched_efficiency: float = 1.0,
        dram_efficiency: float = 1.0,
    ) -> LaunchTiming:
        """:meth:`evaluate` for launches of one block shape at once.

        The inputs are arrays over the launch axis (``mem`` from
        :func:`~repro.gpusim.memory.resolve_access_batch`), and so is
        every field of the returned :class:`LaunchTiming`. Each element
        equals the scalar result exactly: it takes the same operations
        in the same order, and launches with fewer waves are masked out
        of the later waves.
        """
        arch = self.arch
        n_active_sms = np.minimum(grid_blocks, arch.n_sms)
        busiest_blocks = -(-grid_blocks // arch.n_sms)
        waves = -(-busiest_blocks // occ.active_blocks_per_sm)

        # In a batch every pattern has requests >= 1 and transactions
        # per request >= 1, so every load has transactions and counts
        # toward the request-weighted mean latency.
        loads = []  # (pattern, load_request_latency)
        mem_stall_total = 0.0
        for m in mem:
            if m.kind == "load":
                l1_frac = m.l1_hits / m.transactions
                h2 = np.divide(m.l2_hits, m.l2_transactions,
                               out=np.zeros_like(m.l2_hits),
                               where=m.l2_transactions > 0)
                miss_lat = (
                    h2 * arch.l2_latency_cycles
                    + (1.0 - h2) * arch.dram_latency_cycles
                )
                latency = (
                    l1_frac * arch.shared_latency_cycles
                    + (1.0 - l1_frac) * miss_lat
                )
                loads.append((m, latency))
                mem_stall_total = mem_stall_total + m.requests * latency
                mem_stall_total = mem_stall_total + (
                    np.maximum(m.transactions - m.requests, 0.0)
                    * arch.departure_delay_coalesced
                )
            else:
                mem_stall_total = (
                    mem_stall_total + m.transactions * arch.departure_delay_coalesced
                )

        comp_cycles_warp = issued_per_warp * arch.issue_cycles_per_instruction
        mem_cycles_warp = mem_stall_total / total_warps
        lsu_cycles_per_access = arch.warp_size / arch.lsu_units
        lsu_cycles_warp = shared_transactions * lsu_cycles_per_access / total_warps

        mem_lat = (
            left_sum(m.requests * lat for m, lat in loads)
            / left_sum(m.requests for m, _ in loads)
            if loads
            else arch.dram_latency_cycles
        )
        tpr = (
            left_sum(m.transactions for m in mem) / left_sum(m.requests for m in mem)
            if mem
            else 1.0
        )
        departure = arch.departure_delay_coalesced * np.maximum(tpr, 1.0)
        mwp_cap = mem_lat / departure

        bytes_per_cycle_sm = arch.bytes_per_cycle() * dram_efficiency / arch.n_sms
        dram_bytes_per_block = dram_bytes / grid_blocks

        def masked_add(total, value):
            return np.where(active, total + value, total)

        total_cycles = np.zeros(grid_blocks.shape)
        warp_cycles_weighted = np.zeros(grid_blocks.shape)
        bounds = np.zeros((4,) + grid_blocks.shape)  # in _BOUNDS order
        remaining_blocks = busiest_blocks
        for wave in range(int(waves.max())):
            wave_blocks = np.minimum(occ.active_blocks_per_sm, remaining_blocks)
            remaining_blocks = remaining_blocks - wave_blocks
            n_warps = wave_blocks * warps_per_block

            n_warps_eff = n_warps * sched_efficiency
            mwp = np.maximum(1.0, np.minimum(n_warps.astype(np.float64), mwp_cap))
            comp_bound = (
                n_warps
                * np.maximum(comp_cycles_warp / self.issue_rate, lsu_cycles_warp)
                / sched_efficiency
            )
            lat_bound = (
                n_warps * mem_cycles_warp / (mwp * memory_ilp) / sched_efficiency
            )
            bw_bound = (
                wave_blocks * dram_bytes_per_block / bytes_per_cycle_sm
                if bytes_per_cycle_sm > 0
                else 0.0
            )
            serial = (
                comp_cycles_warp
                + mem_cycles_warp / memory_ilp
                + lsu_cycles_warp
                + critical_path_cycles
            ) / sched_efficiency

            wave_cycles = np.maximum(
                np.maximum(comp_bound, lat_bound), np.maximum(bw_bound, serial)
            )
            active = waves > wave
            total_cycles = masked_add(total_cycles, wave_cycles)
            warp_cycles_weighted = masked_add(
                warp_cycles_weighted, n_warps_eff * wave_cycles
            )
            for i, bound in enumerate((comp_bound, lat_bound, bw_bound, serial)):
                bounds[i] = masked_add(bounds[i], bound)

        avg_resident = np.divide(warp_cycles_weighted, total_cycles,
                                 out=np.zeros_like(total_cycles),
                                 where=total_cycles > 0)
        time_s = total_cycles / (arch.clock_ghz * 1e9)
        time_s = time_s + arch.kernel_launch_overhead_us * 1e-6

        return LaunchTiming(
            cycles=total_cycles,
            time_s=time_s,
            compute_bound_cycles=bounds[0],
            latency_bound_cycles=bounds[1],
            bandwidth_bound_cycles=bounds[2],
            serial_warp_cycles=bounds[3],
            waves=waves,
            avg_resident_warps=avg_resident,
            n_active_sms=n_active_sms,
            # argmax takes the first maximum, like max() over the dict
            binding=np.asarray(_BOUNDS)[bounds.argmax(axis=0)],
        )
