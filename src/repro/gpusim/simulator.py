"""The GPU performance simulator: workloads in, counters + time out.

:class:`GPUSimulator` glues the occupancy calculator, the memory system
model, the bank-conflict model and the timing model together. For every
:class:`~repro.gpusim.workload.KernelWorkload` (one kernel launch) it
produces a :class:`LaunchProfile` holding raw event accumulators and the
timing breakdown; :func:`aggregate_launches` folds the launches of one
application run into the final nvprof-style counter vector
(:class:`~repro.gpusim.counters.CounterSet`) plus the measured execution
time — the observation unit of the paper's data-collection stage.

A seeded multiplicative noise model perturbs the reported time (and the
throughput metrics derived from it), mimicking run-to-run measurement
variance; raw event counts stay deterministic, as they do on real
hardware.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.errors import InjectedFault
from repro.faults.plan import active_plan, should_inject
from repro.obs import span

from .arch import GPUArchitecture
from .banks import replay_count
from .counters import CounterSet
from .memory import MemoryAccessResult, resolve_access, resolve_access_batch
from .noise import Perturbation
from .occupancy import OccupancyResult, occupancy
from .timing import LaunchTiming, TimingModel, left_sum
from .workload import KernelWorkload, LaunchBatch

__all__ = ["LaunchProfile", "GPUSimulator", "aggregate_launches", "sum_raw", "finalize_counters", "average_power_w"]


@dataclass
class LaunchProfile:
    """Raw simulation output for one kernel launch."""

    workload: KernelWorkload
    occupancy: OccupancyResult
    timing: LaunchTiming
    memory: list[MemoryAccessResult]
    raw: dict[str, float] = field(default_factory=dict)


class GPUSimulator:
    """Performance simulator for one GPU architecture.

    Parameters
    ----------
    arch:
        The simulated architecture.
    noise_sigma:
        Dispersion scale of the run perturbation model (see
        :class:`~repro.gpusim.noise.Perturbation`); 0 disables noise,
        1.0 is the calibrated default of the profiling layer.
    rng:
        Seed or generator for the noise model.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        noise_sigma: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.arch = arch
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(rng)
        self._timing = TimingModel(arch)

    # -- single launch -------------------------------------------------------

    def launch(
        self, wl: KernelWorkload, perturbation: Perturbation | None = None
    ) -> LaunchProfile:
        """Simulate one kernel launch under an optional run perturbation."""
        with span("gpusim.launch", workload=wl.name):
            return self._launch(wl, perturbation)

    def _launch(
        self, wl: KernelWorkload, perturbation: Perturbation | None = None
    ) -> LaunchProfile:
        arch = self.arch
        pert = perturbation if perturbation is not None else Perturbation.none()
        occ = occupancy(
            arch, wl.threads_per_block, wl.regs_per_thread, wl.shared_mem_per_block
        )

        accesses = wl.global_accesses
        fault = should_inject("gpusim.launch", workload=wl.name, arch=arch.name)
        if fault is not None:
            if fault.mode == "raise":
                raise InjectedFault(
                    f"injected simulator failure launching {wl.name!r} "
                    f"on {arch.name}"
                )
            if fault.mode == "truncate_trace":
                frac = float(fault.payload_dict.get("fraction", 0.5))
                accesses = [_truncate_trace(a, frac) for a in accesses]

        mem = [
            resolve_access(a, arch, cache_factor=pert.cache_factor)
            for a in accesses
        ]

        timing, raw = self._accumulate(
            pert, occ, mem,
            replays=[m.replays for m in mem],
            shared=[(s.kind, s.requests, s.conflict_degree)
                    for s in wl.shared_accesses],
            grid_blocks=wl.grid_blocks,
            warps_per_block=wl.warps_per_block,
            inst_executed=wl.executed_instructions,
            branches=wl.branches,
            divergent_branches=wl.divergent_branches,
            ldst_instructions=wl.ldst_instructions,
            avg_active_threads=wl.avg_active_threads,
            memory_ilp=wl.memory_ilp,
            critical_path_cycles=wl.critical_path_cycles,
            evaluate=self._timing.evaluate,
        )
        return LaunchProfile(
            workload=wl, occupancy=occ, timing=timing, memory=mem,
            raw={key: float(value) for key, value in raw.items()},
        )

    def _accumulate(
        self, pert, occ, mem, *, replays, shared, grid_blocks, warps_per_block,
        inst_executed, branches, divergent_branches, ldst_instructions,
        avg_active_threads, memory_ilp, critical_path_cycles, evaluate,
    ) -> tuple[LaunchTiming, dict]:
        """Issue counts, timing and the raw accumulators of one launch,
        or of every launch of a batch at once.

        Shared by :meth:`_launch` (scalars, ``evaluate`` is
        :meth:`TimingModel.evaluate`) and :meth:`_batch_totals` (arrays
        over the launch axis, :meth:`TimingModel.evaluate_batch`), so
        both paths define the raw counters in one place. ``shared``
        holds ``(kind, requests, conflict_degree)`` per shared-memory
        pattern, ``replays`` each global pattern's replays; sums over
        patterns run left to right (:func:`left_sum`).
        """
        arch = self.arch

        def shared_traffic(kind):
            patterns = [(r, degree) for k, r, degree in shared if k == kind]
            replayed = pert.conflict_factor * left_sum(
                replay_count(r, degree) for r, degree in patterns
            )
            return left_sum(r for r, _ in patterns), replayed

        shared_loads, shared_load_replays = shared_traffic("load")
        shared_stores, shared_store_replays = shared_traffic("store")
        shared_replays = shared_load_replays + shared_store_replays
        shared_transactions = shared_loads + shared_stores + shared_replays

        global_replays = left_sum(replays)
        inst_issued = inst_executed + shared_replays + global_replays

        dram_bytes = left_sum(m.dram_bytes for m in mem)
        total_warps = grid_blocks * warps_per_block

        timing = evaluate(
            grid_blocks=grid_blocks,
            warps_per_block=warps_per_block,
            occ=occ,
            issued_per_warp=inst_issued / total_warps,
            mem=mem,
            total_warps=total_warps,
            dram_bytes=dram_bytes,
            shared_transactions=shared_transactions,
            memory_ilp=memory_ilp,
            critical_path_cycles=critical_path_cycles,
            sched_efficiency=pert.sched_efficiency,
            dram_efficiency=pert.dram_efficiency,
        )

        loads = [m for m in mem if m.kind == "load"]
        stores = [m for m in mem if m.kind == "store"]
        line = arch.l2_line_bytes

        raw = {
            # events
            "shared_load": shared_loads,
            "shared_store": shared_stores,
            "gld_request": left_sum(m.requests for m in loads),
            "gst_request": left_sum(m.requests for m in stores),
            "global_store_transaction": left_sum(m.transactions for m in stores),
            "l1_global_load_hit": left_sum(m.l1_hits for m in loads),
            "l1_global_load_miss": left_sum(m.l1_misses for m in loads),
            "l2_read_transactions": left_sum(m.l2_transactions for m in loads),
            "l2_write_transactions": left_sum(m.l2_transactions for m in stores),
            "inst_executed": inst_executed,
            "inst_issued": inst_issued,
            "branch": branches,
            "divergent_branch": divergent_branches,
            "active_cycles": timing.cycles,
            "active_warps": timing.avg_resident_warps * timing.cycles,
            # replay decomposition
            "shared_replays": shared_replays,
            "shared_load_replays": shared_load_replays,
            "shared_store_replays": shared_store_replays,
            "global_replays": global_replays,
            # byte flows for throughput metrics
            "gld_requested_bytes": left_sum(m.requested_bytes for m in loads),
            "gst_requested_bytes": left_sum(m.requested_bytes for m in stores),
            "gld_transaction_bytes": left_sum(
                m.transactions * m.transaction_bytes for m in loads
            ),
            "gst_transaction_bytes": left_sum(
                m.transactions * m.transaction_bytes for m in stores
            ),
            "l2_read_bytes": left_sum(m.l2_transactions * line for m in loads),
            "l2_write_bytes": left_sum(m.l2_transactions * line for m in stores),
            "dram_read_bytes": left_sum(m.dram_bytes for m in loads),
            "dram_write_bytes": left_sum(m.dram_bytes for m in stores),
            # weighted utilization inputs
            "active_thread_instructions": avg_active_threads * inst_executed,
            "ldst_instructions": ldst_instructions,
            "shared_transactions": shared_transactions,
            "sm_cycles_weighted": timing.cycles * timing.n_active_sms,
            "time_s": timing.time_s,
            "launches": 1.0,
            # dynamic energy (J) for the power-response extension (paper
            # Section 7: power draw as an alternative response variable)
            "dynamic_energy_j": 1e-9 * (
                inst_issued * arch.energy_per_instruction_nj
                + dram_bytes * arch.energy_per_dram_byte_nj
                + left_sum(m.l2_transactions for m in mem)
                * arch.energy_per_l2_transaction_nj
                + shared_transactions * arch.energy_per_shared_transaction_nj
            ),
        }
        return timing, raw

    # -- summed run totals -----------------------------------------------------

    def run_totals(
        self,
        workloads: Sequence[KernelWorkload],
        perturbation: Perturbation | None = None,
    ) -> dict[str, float]:
        """The summed raw accumulators of a run (:func:`sum_raw` of
        every launch's profile).

        A :class:`~repro.gpusim.workload.LaunchBatch` is evaluated in
        one pass of numpy arrays over its launch axis, bit-identical to
        the per-launch loop, and recorded as one ``gpusim.launch_batch``
        span. Any other sequence goes through :meth:`launch` and
        :func:`sum_raw`; so does a batch while a fault plan is installed,
        which keeps the per-launch ``gpusim.launch`` fault site intact.
        """
        if isinstance(workloads, LaunchBatch) and active_plan() is None:
            if not len(workloads):
                raise ValueError("no launches to aggregate")
            pert = perturbation if perturbation is not None else Perturbation.none()
            with span("gpusim.launch_batch", launches=len(workloads)):
                return self._batch_totals(workloads, pert)
        return sum_raw([self.launch(wl, perturbation) for wl in workloads])

    def _batch_totals(self, batch: LaunchBatch, pert: Perturbation) -> dict[str, float]:
        """:meth:`_launch`'s raw accumulators for every launch of a batch
        as arrays, then :func:`sum_raw`'s sum over launches as a running
        ``np.add.accumulate`` (never numpy's pairwise ``sum``)."""
        arch = self.arch
        counts = batch.counts
        occ = occupancy(
            arch, batch.threads_per_block, batch.regs_per_thread,
            batch.shared_mem_per_block,
        )
        mem = [
            resolve_access_batch(a, requests, arch, cache_factor=pert.cache_factor)
            for a, requests in zip(batch.global_accesses, counts["global"])
        ]
        ldst = counts["global"].sum(axis=0) + counts["shared"].sum(axis=0)
        _, raw = self._accumulate(
            pert, occ, mem,
            replays=[np.maximum(m.transactions - m.requests, 0.0) for m in mem],
            shared=[(s.kind, requests, s.conflict_degree)
                    for s, requests in zip(batch.shared_accesses, counts["shared"])],
            grid_blocks=batch.grid_blocks,
            warps_per_block=batch.warps_per_block,
            inst_executed=(
                counts["arithmetic_instructions"]
                + counts["branches"]
                + counts["other_instructions"]
                + ldst
            ),
            branches=counts["branches"],
            divergent_branches=counts["divergent_branches"],
            ldst_instructions=ldst,
            avg_active_threads=batch.avg_active_threads,
            memory_ilp=batch.memory_ilp,
            critical_path_cycles=batch.critical_path_cycles,
            evaluate=self._timing.evaluate_batch,
        )
        # One column per key under a zero row: the running sum's last
        # row is sum_raw's `0.0 + launch 0 + launch 1 + ...`.
        table = np.zeros((len(batch) + 1, len(raw)))
        for j, value in enumerate(raw.values()):
            table[1:, j] = value
        totals = np.add.accumulate(table, axis=0)[-1]
        return {key: float(total) for key, total in zip(raw, totals)}

    # -- full application run --------------------------------------------------

    def run(
        self,
        workloads: list[KernelWorkload],
        perturbation: Perturbation | None = None,
    ) -> tuple[CounterSet, float, list[LaunchProfile]]:
        """Simulate an application run (a sequence of launches).

        Returns the aggregated counter vector, the (noisy) total
        execution time in seconds, and the per-launch profiles. When no
        perturbation is given, one is drawn from the simulator's noise
        model (``noise_sigma`` scales its dispersion; 0 = deterministic).
        """
        if not workloads:
            raise ValueError("at least one kernel launch required")
        if perturbation is None:
            perturbation = Perturbation.draw(self._rng, scale=self.noise_sigma)
        profiles = [self.launch(wl, perturbation) for wl in workloads]
        counters, time_s = aggregate_launches(
            self.arch, profiles, time_scale=perturbation.time_jitter
        )
        return counters, time_s, profiles


def _truncate_trace(access, fraction: float):
    """A torn sampled address trace: keep the leading ``fraction`` of
    requests (at least one). Patterns without traces are untouched."""
    if access.addresses is None:
        return access
    trace = np.asarray(access.addresses)
    keep = max(1, int(math.ceil(trace.shape[0] * fraction)))
    if keep >= trace.shape[0]:
        return access
    return replace(access, addresses=trace[:keep])


def sum_raw(profiles: list[LaunchProfile]) -> dict[str, float]:
    """Sum the raw per-launch accumulators of an application run.

    The summed totals are a compact, cacheable representation: the
    final counter vector can be (re-)derived from them with any noise
    factor via :func:`finalize_counters`.
    """
    if not profiles:
        raise ValueError("no launches to aggregate")
    total: dict[str, float] = {}
    for p in profiles:
        for key, value in p.raw.items():
            total[key] = total.get(key, 0.0) + value
    return total


def aggregate_launches(
    arch: GPUArchitecture,
    profiles: list[LaunchProfile],
    time_scale: float = 1.0,
) -> tuple[CounterSet, float]:
    """Fold per-launch raw accumulators into the final counter vector."""
    return finalize_counters(arch, sum_raw(profiles), time_scale)


def average_power_w(
    arch: GPUArchitecture, total: dict[str, float], time_s: float
) -> float:
    """Average board power over a run: static draw plus dynamic energy
    spread over the wall time, clipped to the board TDP."""
    if time_s <= 0:
        return arch.static_power_w
    power = arch.static_power_w + total.get("dynamic_energy_j", 0.0) / time_s
    return float(min(power, arch.tdp_w))


def finalize_counters(
    arch: GPUArchitecture,
    total: dict[str, float],
    time_scale: float = 1.0,
) -> tuple[CounterSet, float]:
    """Derive the nvprof-style counter vector from summed raw totals."""
    time_s = total["time_s"] * time_scale
    cycles = total["active_cycles"]
    sm_cycles = total["sm_cycles_weighted"]
    inst_exec = total["inst_executed"]
    inst_issued = total["inst_issued"]

    values: dict[str, float] = {
        "shared_load": total["shared_load"],
        "shared_store": total["shared_store"],
        "gld_request": total["gld_request"],
        "gst_request": total["gst_request"],
        "global_store_transaction": total["global_store_transaction"],
        "l2_read_transactions": total["l2_read_transactions"],
        "l2_write_transactions": total["l2_write_transactions"],
        "inst_issued": inst_issued,
        "inst_executed": inst_exec,
        "branch": total["branch"],
        "divergent_branch": total["divergent_branch"],
        "active_cycles": cycles,
        "active_warps": total["active_warps"],
    }

    if arch.family == "fermi":
        values["l1_global_load_hit"] = total["l1_global_load_hit"]
        values["l1_global_load_miss"] = total["l1_global_load_miss"]
        values["l1_shared_bank_conflict"] = total["shared_replays"]
    else:
        values["shared_load_replay"] = total["shared_load_replays"]
        values["shared_store_replay"] = total["shared_store_replays"]

    # ---- derived metrics ----
    gbs = lambda nbytes: nbytes / time_s / 1e9 if time_s > 0 else 0.0

    max_warps = arch.max_warps_per_sm
    values["ipc"] = inst_exec / sm_cycles if sm_cycles > 0 else 0.0
    # An issue slot fits dispatch_units_per_scheduler instructions
    # (Kepler dual-dispatches); like nvprof, the utilization of the
    # slots cannot exceed 100%.
    issue_slots = sm_cycles * arch.warp_schedulers * arch.dispatch_units_per_scheduler
    values["issue_slot_utilization"] = (
        min(100.0, 100.0 * inst_issued / issue_slots) if sm_cycles > 0 else 0.0
    )
    values["achieved_occupancy"] = (
        total["active_warps"] / (cycles * max_warps) if cycles > 0 else 0.0
    )
    values["inst_replay_overhead"] = (
        (inst_issued - inst_exec) / inst_exec if inst_exec > 0 else 0.0
    )
    values["shared_replay_overhead"] = (
        total["shared_replays"] / inst_exec if inst_exec > 0 else 0.0
    )
    values["global_replay_overhead"] = (
        total["global_replays"] / inst_exec if inst_exec > 0 else 0.0
    )
    values["warp_execution_efficiency"] = (
        100.0 * total["active_thread_instructions"] / (inst_exec * 32.0)
        if inst_exec > 0
        else 0.0
    )
    values["gld_requested_throughput"] = gbs(total["gld_requested_bytes"])
    values["gst_requested_throughput"] = gbs(total["gst_requested_bytes"])
    values["gld_throughput"] = gbs(total["gld_transaction_bytes"])
    values["gst_throughput"] = gbs(total["gst_transaction_bytes"])
    values["gld_efficiency"] = (
        100.0 * total["gld_requested_bytes"] / total["gld_transaction_bytes"]
        if total["gld_transaction_bytes"] > 0
        else 100.0
    )
    values["gst_efficiency"] = (
        100.0 * total["gst_requested_bytes"] / total["gst_transaction_bytes"]
        if total["gst_transaction_bytes"] > 0
        else 100.0
    )
    values["l2_read_throughput"] = gbs(total["l2_read_bytes"])
    values["l2_write_throughput"] = gbs(total["l2_write_bytes"])
    values["dram_read_throughput"] = gbs(total["dram_read_bytes"])
    values["dram_write_throughput"] = gbs(total["dram_write_bytes"])

    # LSU utilization on nvprof's 0-10 scale: transactions per cycle per SM
    # against one transaction/cycle capacity.
    lsu_rate = (
        (total["shared_transactions"] + total["gld_request"] + total["gst_request"])
        / sm_cycles
        if sm_cycles > 0
        else 0.0
    )
    values["ldst_fu_utilization"] = float(min(10.0, 10.0 * lsu_rate))

    shared_total = total["shared_load"] + total["shared_store"]
    values["shared_efficiency"] = (
        100.0 * shared_total / total["shared_transactions"]
        if total["shared_transactions"] > 0
        else 100.0
    )
    values["sm_efficiency"] = 100.0 * min(
        1.0, sm_cycles / (cycles * arch.n_sms) if cycles > 0 else 0.0
    )

    return CounterSet(arch.family, values), time_s
