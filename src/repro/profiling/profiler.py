"""nvprof-style profiler façade over the GPU simulator.

"Performance counter data are collected using nvprof" (paper Section
4.2); here the same role is played by :class:`Profiler`, which launches
a kernel model's workloads on a :class:`~repro.gpusim.GPUSimulator`,
aggregates the per-launch events into one counter vector per
application run, and reports the measured execution time.

Each replicate is a fresh simulated execution under its own
mechanism-perturbation draw plus per-counter measurement error, like
back-to-back nvprof runs of the same binary; the (deterministic)
workloads are built once per :meth:`Profiler.profile` call and shared
by its replicates.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import (
    InvariantViolation,
    Severity,
    lint_counters,
    lint_workload,
)
from repro.faults.errors import InjectedFault, LaunchTimeout
from repro.faults.plan import should_inject
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.noise import Perturbation
from repro.gpusim.simulator import (
    GPUSimulator,
    average_power_w,
    finalize_counters,
    sum_raw,
)
from repro.gpusim.workload import KernelWorkload
from repro.kernels.base import Kernel
from repro.obs import span
from repro.obs.log import emit as emit_event

__all__ = ["RunRecord", "Profiler"]


@dataclass
class RunRecord:
    """One profiled application run — a row of the experimental dataset."""

    kernel: str
    arch: str
    family: str
    problem: object
    characteristics: dict[str, float]
    counters: dict[str, float]
    time_s: float
    replicate: int = 0
    machine: dict[str, float] = field(default_factory=dict)
    #: Average board power during the run (W); None when the platform
    #: has no power interface (the paper reads power via nvidia-smi "on
    #: the Kepler architecture", so Fermi runs record None).
    power_w: float | None = None

    def predictors(
        self,
        counter_names: list[str],
        include_characteristics: bool = True,
        include_machine: bool = False,
        missing: str = "raise",
    ) -> tuple[list[str], np.ndarray]:
        """Assemble this run's predictor vector in a stable column order.

        ``missing`` controls counters absent from this record: ``"raise"``
        (default) propagates the ``KeyError``; ``"nan"`` fills the cell
        with NaN so degraded runs (dropped nvprof passes) still produce a
        row — the fit layer imputes or drops it explicitly.
        """
        if missing not in ("raise", "nan"):
            raise ValueError("missing must be 'raise' or 'nan'")
        names: list[str] = list(counter_names)
        if missing == "nan":
            values = [self.counters.get(c, math.nan) for c in counter_names]
        else:
            values = [self.counters[c] for c in counter_names]
        if include_characteristics:
            for key in sorted(self.characteristics):
                names.append(key)
                values.append(self.characteristics[key])
        if include_machine:
            for key in sorted(self.machine):
                names.append(key)
                values.append(self.machine[key])
        return names, np.asarray(values, dtype=float)

    def to_dict(self) -> dict:
        """JSON-serializable form (checkpoint lines; see
        :mod:`repro.profiling.checkpoint`). kernel/arch/family are
        carried by the checkpoint header, not repeated per record."""
        return {
            "problem": self.problem,
            "replicate": self.replicate,
            "time_s": self.time_s,
            "power_w": self.power_w,
            "characteristics": self.characteristics,
            "counters": self.counters,
            "machine": self.machine,
        }

    @classmethod
    def from_dict(
        cls, data: dict, kernel: str, arch: str, family: str
    ) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Floats round-trip bit-exactly through JSON (``repr`` encoding),
        which is what makes checkpoint resume bit-identical.
        """
        return cls(
            kernel=kernel,
            arch=arch,
            family=family,
            problem=data["problem"],
            replicate=int(data["replicate"]),
            time_s=float(data["time_s"]),
            power_w=None if data.get("power_w") is None else float(data["power_w"]),
            characteristics={
                k: float(v) for k, v in data["characteristics"].items()
            },
            counters={k: float(v) for k, v in data["counters"].items()},
            machine={k: float(v) for k, v in data.get("machine", {}).items()},
        )


class Profiler:
    """Collects counter data for kernel models on one architecture.

    Parameters
    ----------
    arch:
        The (simulated) GPU to profile on.
    noise_scale:
        Dispersion scale of the per-run perturbation draws
        (:class:`~repro.gpusim.noise.Perturbation`); 1.0 is calibrated
        to typical few-percent GPU run-to-run variance, 0 disables all
        nondeterminism.
    measurement_sigma:
        Per-counter multiplicative measurement error (multi-pass
        counter multiplexing); disabled when ``noise_scale`` is 0.
    rng:
        Seed/generator for the perturbation draws.
    sanitize:
        Run the static-analysis invariants (``repro.analysis`` workload
        rules on every launch, cross-counter rules on every finalized
        vector *before* measurement error) and raise
        :class:`~repro.analysis.InvariantViolation` on ERROR findings.
        Opt-in: corrupted workload models fail fast and loudly instead
        of silently skewing the downstream statistics.
    """

    def __init__(
        self,
        arch,
        noise_scale: float = 1.0,
        measurement_sigma: float = 0.02,
        rng: np.random.Generator | int | None = None,
        sanitize: bool = False,
    ) -> None:
        if measurement_sigma < 0:
            raise ValueError("measurement_sigma must be >= 0")
        self.arch = arch
        self.sanitize = sanitize
        self.noise_scale = noise_scale
        self.measurement_sigma = measurement_sigma * (1.0 if noise_scale > 0 else 0.0)
        self._rng = np.random.default_rng(rng)
        if arch.family == "cpu":
            from repro.cpusim.simulator import CPUSimulator

            self._sim = CPUSimulator(arch)
        else:
            self._sim = GPUSimulator(arch)

    def _workloads(
        self, kernel: Kernel, problem: object
    ) -> Sequence[KernelWorkload]:
        try:
            return kernel.workloads(problem, self.arch)
        except AttributeError as exc:
            raise ValueError(
                f"kernel {kernel.name!r} cannot run on architecture "
                f"{self.arch.name!r} ({self.arch.family}): {exc}"
            ) from None

    def _check(self, findings, subject: str) -> None:
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        if errors:
            raise InvariantViolation(errors, subject=subject)

    def profile(
        self,
        kernel: Kernel,
        problem: object,
        replicates: int = 1,
        rng: np.random.Generator | None = None,
        deadline_s: float | None = None,
    ) -> list[RunRecord]:
        """Profile ``replicates`` runs of one kernel/problem pair.

        Each replicate is a fresh simulated execution under its own
        perturbation draw, like back-to-back nvprof runs.

        ``rng`` overrides the profiler's own stream for this call; a
        campaign passes one spawned child stream per problem so the
        collected dataset does not depend on which process profiles
        which problem (see :meth:`repro.profiling.Campaign.run`).

        ``deadline_s`` is a cooperative per-call deadline on the
        ``time.monotonic()`` clock: checked between kernel launches and
        between replicates, an overrun raises
        :class:`~repro.faults.LaunchTimeout` (the campaign layer retries
        and ultimately quarantines it). ``None`` — the default — costs
        no clock reads.
        """
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        if rng is None:
            rng = self._rng
        emit_event(
            "profiler.launch",
            kernel=kernel.name,
            arch=self.arch.name,
            problem=str(problem),
            replicates=replicates,
        )
        with span(
            "profile",
            kernel=kernel.name,
            arch=self.arch.name,
            problem=str(problem),
            replicates=replicates,
        ):
            return self._profile(kernel, problem, replicates, rng, deadline_s)

    def _check_deadline(self, deadline_s: float | None, problem: object) -> None:
        if deadline_s is not None and time.monotonic() > deadline_s:
            raise LaunchTimeout(
                f"launch exceeded its deadline while profiling "
                f"problem {problem!r} on {self.arch.name}"
            )

    def _profile(
        self,
        kernel: Kernel,
        problem: object,
        replicates: int,
        rng: np.random.Generator,
        deadline_s: float | None = None,
    ) -> list[RunRecord]:
        fault = should_inject(
            "profiler.launch",
            kernel=kernel.name,
            arch=self.arch.name,
            problem=problem,
        )
        if fault is not None:
            if fault.mode == "raise":
                raise InjectedFault(
                    f"injected launch failure: {kernel.name!r} "
                    f"problem {problem!r} on {self.arch.name}"
                )
            if fault.mode == "hang":
                # A hung launch is indistinguishable from slowness until
                # the deadline fires — model it as its timeout.
                raise LaunchTimeout(
                    f"injected launch hang: {kernel.name!r} "
                    f"problem {problem!r} on {self.arch.name}"
                )
        workloads = self._workloads(kernel, problem)
        if self.sanitize and self.arch.family != "cpu":
            for wl in workloads:
                self._check(
                    lint_workload(wl, self.arch),
                    f"workload {wl.name!r} of kernel {kernel.name!r}",
                )
        records = []
        machine = self.arch.machine_metrics()
        for rep in range(replicates):
            pert = Perturbation.draw(rng, scale=self.noise_scale)
            if self.arch.family == "cpu":
                from repro.cpusim.simulator import cpu_average_power_w

                counters, time_s = self._sim.run(workloads, pert)
                # package power is readable on CPUs (RAPL)
                power_w = cpu_average_power_w(
                    self.arch,
                    counters["instructions"],
                    counters["cpu_mem_bandwidth"] * time_s * 1e9,
                    time_s,
                )
            else:
                if deadline_s is None:
                    totals = self._sim.run_totals(workloads, pert)
                else:
                    # Per launch, so the deadline is checked between launches.
                    profiles = []
                    for wl in workloads:
                        self._check_deadline(deadline_s, problem)
                        profiles.append(self._sim.launch(wl, pert))
                    totals = sum_raw(profiles)
                counters, time_s = finalize_counters(
                    self.arch, totals, time_scale=pert.time_jitter
                )
                power_w = (
                    average_power_w(self.arch, totals, time_s)
                    if self.arch.family == "kepler"
                    else None
                )
            values = counters.as_dict()
            if fault is not None and fault.mode in ("nan_counters", "drop_counters"):
                values = _corrupt_counters(values, fault)
            if self.sanitize:
                # Checked before measurement error on purpose: these
                # rules validate the simulator's physics, not the
                # (deliberately noisy) nvprof measurement model.
                self._check(
                    lint_counters(values, self.arch.family),
                    f"counters of kernel {kernel.name!r} "
                    f"(problem={problem!r}, replicate={rep})",
                )
            if self.measurement_sigma > 0:
                # nvprof collects counter groups in separate replayed
                # passes (counter multiplexing); values observed for one
                # "run" therefore carry independent per-counter
                # measurement error on top of the mechanism perturbation.
                for name in values:
                    values[name] *= float(
                        np.exp(rng.normal(0.0, self.measurement_sigma))
                    )
            records.append(
                RunRecord(
                    kernel=kernel.name,
                    arch=self.arch.name,
                    family=self.arch.family,
                    problem=problem,
                    characteristics=kernel.characteristics(problem),
                    counters=values,
                    time_s=time_s,
                    replicate=rep,
                    machine=machine,
                    power_w=power_w,
                )
            )
            self._check_deadline(deadline_s, problem)
        return records


def _corrupt_counters(values: dict[str, float], fault) -> dict[str, float]:
    """Enact a ``nan_counters``/``drop_counters`` fault on a counter
    vector — the partial counter sets real multi-pass nvprof collection
    loses when a replay pass fails."""
    payload = fault.payload_dict
    targets = payload.get("counters") or ["ipc"]
    if fault.mode == "drop_counters":
        return {k: v for k, v in values.items() if k not in targets}
    poison = float("inf") if payload.get("value") == "inf" else math.nan
    for name in targets:
        if name in values:
            values[name] = poison
    return values
