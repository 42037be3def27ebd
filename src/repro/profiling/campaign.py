"""Data-collection campaigns: sweep a kernel over problem instances.

"We perform data collection by running the application multiple times
(typically, tens to hundreds) on the architecture of interest, with
different problem characteristics" (paper Section 4.2). A
:class:`Campaign` is one such experiment; its result is a rectangular
dataset ready for the statistical pipeline.

Campaigns are *resilient*: a launch that keeps failing (injected fault,
invariant violation, timeout) is retried under a
:class:`~repro.faults.RetryPolicy` and then **quarantined** — recorded
in :attr:`CampaignResult.quarantined` — rather than aborting the whole
sweep; a crashed worker process only costs re-running its chunk in the
parent; and ``run(checkpoint=path)`` journals every completed problem
so an interrupted campaign resumes bit-identically. See
docs/robustness.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis import InvariantViolation
from repro.analysis.plan import preflight
from repro.faults.errors import FaultError, WorkerCrash
from repro.faults.plan import should_inject
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.gpusim.arch import GPUArchitecture
from repro.kernels.base import Kernel
from repro.obs import current_metrics, span
from repro.obs import metrics as obs_metrics
from repro.obs.log import emit as emit_event
from repro.parallel import (
    chunk_bounds,
    process_map,
    resolve_n_jobs,
    spawn_streams,
)

from .checkpoint import CampaignCheckpoint, campaign_fingerprint
from .profiler import Profiler, RunRecord

__all__ = ["CampaignResult", "Campaign", "QuarantinedRun", "RECOVERABLE"]

#: Exception classes a campaign retries and quarantines instead of
#: propagating. Configuration mistakes (``ValueError``/``TypeError``)
#: stay fatal on purpose: retrying a wrong argument can only waste time.
RECOVERABLE: tuple[type[BaseException], ...] = (
    FaultError,
    InvariantViolation,
    ArithmeticError,
)


@dataclass
class QuarantinedRun:
    """A launch that exhausted its retries — kept as data, not a crash.

    Quarantine records travel with the campaign result (and its
    checkpoint), so a partially failed sweep is still a complete
    artifact: the fit uses the surviving rows while the failures stay
    enumerable for reporting and re-runs.
    """

    problem: object
    index: int
    stage: str  # "launch" (profiler gave up) or "worker" (process died)
    error: str  # "<ExcType>: message" of the final attempt
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "index": self.index,
            "stage": self.stage,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantinedRun":
        return cls(
            problem=data["problem"],
            index=int(data["index"]),
            stage=str(data["stage"]),
            error=str(data["error"]),
            attempts=int(data.get("attempts", 1)),
        )


def _profile_resilient(
    profiler: Profiler,
    kernel: Kernel,
    problem: object,
    index: int,
    replicates: int,
    stream: np.random.Generator,
    retry: RetryPolicy,
) -> tuple[list[RunRecord] | None, QuarantinedRun | None]:
    """One problem under the retry policy: records, or a quarantine.

    Attempt 1 uses the problem's pre-spawned stream directly, so a
    fault-free campaign consumes exactly the random numbers it always
    did (bit-identical to the non-resilient path). Attempt ``k > 1``
    draws from the stream's next spawned child: a deterministic function
    of the campaign seed, the problem index and the attempt number —
    never of how many draws a failed attempt consumed before dying.
    """

    def run_attempt(attempt: int) -> list[RunRecord]:
        rng = stream if attempt == 1 else spawn_streams(stream, 1)[0]
        return profiler.profile(
            kernel,
            problem,
            replicates=replicates,
            rng=rng,
            deadline_s=retry.deadline(),
        )

    def on_retry(attempt: int, exc: BaseException) -> None:
        obs_metrics.inc("campaign.retries", kernel=kernel.name)
        emit_event(
            "campaign.retry",
            kernel=kernel.name,
            problem=str(problem),
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
        )

    records, exc, attempts = call_with_retry(
        run_attempt, retry, recoverable=RECOVERABLE, on_retry=on_retry
    )
    if exc is None:
        return records, None
    quarantined = QuarantinedRun(
        problem=problem,
        index=index,
        stage="launch",
        error=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
    )
    obs_metrics.inc("campaign.quarantined", kernel=kernel.name, stage="launch")
    emit_event(
        "campaign.quarantine",
        kernel=kernel.name,
        problem=str(problem),
        attempts=attempts,
        error=quarantined.error,
    )
    with span(
        "campaign.quarantine",
        kernel=kernel.name,
        problem=str(problem),
        error=quarantined.error,
        attempts=attempts,
    ):
        pass
    return None, quarantined


def _profile_chunk(args) -> list[tuple]:
    """Worker: profile a contiguous slice of a campaign's problems.

    Rebuilds the profiler from its picklable configuration; passing the
    (already noise-gated) ``measurement_sigma`` back through the
    constructor is idempotent. Each problem uses its pre-spawned child
    stream, so the records match the serial sweep bit for bit.

    The ``parallel.worker`` site is consulted per item — a firing rule
    raises :class:`~repro.faults.WorkerCrash` out of the worker, which
    the parent recovers from by re-running the chunk itself.
    """
    (arch, noise_scale, measurement_sigma, sanitize, kernel, replicates,
     items, retry) = args
    profiler = Profiler(
        arch,
        noise_scale=noise_scale,
        measurement_sigma=measurement_sigma,
        sanitize=sanitize,
    )

    out = []
    for index, problem, stream in items:
        crash = should_inject(
            "parallel.worker", kernel=kernel.name, problem=problem
        )
        if crash is not None:
            raise WorkerCrash(
                f"injected worker crash while profiling problem "
                f"{problem!r} of kernel {kernel.name!r}"
            )
        out.append(
            (index, problem)
            + _profile_resilient(
                profiler, kernel, problem, index, replicates, stream, retry
            )
        )
    return out


@dataclass
class CampaignResult:
    """The collected observations of one campaign."""

    kernel: str
    arch: str
    family: str
    records: list[RunRecord] = field(default_factory=list)
    #: Runs that exhausted their retries (sweep-index order); the
    #: campaign completed *around* them instead of aborting.
    quarantined: list[QuarantinedRun] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def counter_names(self) -> list[str]:
        """Counter names common to every record, in first-record order."""
        if not self.records:
            return []
        names = list(self.records[0].counters)
        common = set(names)
        for r in self.records[1:]:
            common &= set(r.counters)
        return [n for n in names if n in common]

    @property
    def predictor_names(self) -> list[str]:
        """Counters admissible as predictors (drops response proxies
        such as ``active_cycles``; intersects availability when the
        campaign mixes architecture families)."""
        from repro.gpusim.counters import CATALOGUE

        return [n for n in self.counter_names if CATALOGUE[n].predictor]

    @property
    def robust_predictor_names(self) -> list[str]:
        """Predictor counters for fit layers tolerant of degraded runs.

        :attr:`predictor_names` intersects counters across *records*, so
        a single degraded run that lost a counter silently removes that
        column from every fit. Here availability is unioned within each
        architecture first (a record-level loss shows up as NaN cells
        for ``matrix(missing="nan")`` to impute and report) and only
        then intersected across architectures (a counter a whole
        platform never collects is still excluded). Identical to
        :attr:`predictor_names` for undamaged campaigns.
        """
        from repro.gpusim.counters import CATALOGUE

        if not self.records:
            return []
        per_arch: dict[str, set[str]] = {}
        order: list[str] = []
        seen: set[str] = set()
        for r in self.records:
            available = per_arch.setdefault(r.arch, set())
            for name in r.counters:
                available.add(name)
                if name not in seen:
                    seen.add(name)
                    order.append(name)
        common = set.intersection(*per_arch.values())
        return [n for n in order if n in common and CATALOGUE[n].predictor]

    @property
    def characteristic_names(self) -> list[str]:
        return sorted(self.records[0].characteristics) if self.records else []

    def matrix(
        self,
        counters: Sequence[str] | None = None,
        include_characteristics: bool = True,
        include_machine: bool = False,
        response: str = "time",
        missing: str = "raise",
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Predictor matrix X, response y, and column names.

        ``response`` selects the modeled quantity: ``"time"`` (paper
        default) or ``"power"`` (the Section 7 extension — requires a
        platform with a power interface, i.e. Kepler campaigns).

        ``missing`` controls counters absent from a record (degraded
        runs that lost an nvprof pass): ``"raise"`` (default) propagates
        the ``KeyError``; ``"nan"`` fills those cells with NaN for the
        fit layer to impute or drop explicitly.
        """
        if not self.records:
            if self.quarantined:
                raise ValueError(
                    f"empty campaign: all {len(self.quarantined)} runs were "
                    f"quarantined (first error: {self.quarantined[0].error})"
                )
            raise ValueError("empty campaign")
        if response not in ("time", "power"):
            raise ValueError("response must be 'time' or 'power'")
        if response == "power" and any(r.power_w is None for r in self.records):
            raise ValueError(
                "campaign has runs without power readings (power draw is "
                "only readable on the Kepler platform, paper Section 7)"
            )
        counter_names = list(counters) if counters is not None else self.predictor_names
        rows = []
        names: list[str] | None = None
        for r in self.records:
            row_names, values = r.predictors(
                counter_names,
                include_characteristics=include_characteristics,
                include_machine=include_machine,
                missing=missing,
            )
            if names is None:
                names = row_names
            rows.append(values)
        X = np.vstack(rows)
        if response == "power":
            y = np.array([r.power_w for r in self.records])
        else:
            y = np.array([r.time_s for r in self.records])
        return X, y, list(names)

    def times(self) -> np.ndarray:
        return np.array([r.time_s for r in self.records])

    def powers(self) -> np.ndarray:
        """Average power per run (W); raises if any run lacks a reading."""
        if any(r.power_w is None for r in self.records):
            raise ValueError("campaign has runs without power readings")
        return np.array([r.power_w for r in self.records])

    def problems(self) -> list:
        return [r.problem for r in self.records]

    def merged_with(self, other: "CampaignResult") -> "CampaignResult":
        """Concatenate two campaigns (e.g. runs on two architectures).

        Kernel must match; arch metadata becomes 'mixed' when they
        differ, mirroring the paper's hardware-scaling datasets that mix
        GTX580 and K20m observations.
        """
        if self.kernel != other.kernel:
            raise ValueError("cannot merge campaigns of different kernels")
        arch = self.arch if self.arch == other.arch else "mixed"
        family = self.family if self.family == other.family else "mixed"
        return CampaignResult(
            kernel=self.kernel,
            arch=arch,
            family=family,
            records=self.records + other.records,
            quarantined=self.quarantined + other.quarantined,
        )


class Campaign:
    """Sweep driver for one kernel on one architecture."""

    def __init__(
        self,
        kernel: Kernel,
        arch: GPUArchitecture,
        noise_scale: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.kernel = kernel
        self.arch = arch
        self.profiler = Profiler(arch, noise_scale=noise_scale, rng=rng)

    def run(
        self,
        problems: Sequence | None = None,
        replicates: int = 1,
        n_jobs: int = 1,
        *,
        retry: RetryPolicy | None = None,
        checkpoint=None,
        strict: bool = False,
        telemetry=None,
    ) -> CampaignResult:
        """Profile every problem instance (default: the paper's sweep).

        ``n_jobs`` fans the sweep out over worker processes (-1 = all
        cores). Every problem draws its noise from its own child stream
        spawned from the campaign RNG — in the serial path too — so the
        collected dataset is bit-for-bit identical for any ``n_jobs``
        (pinned by ``tests/profiling/test_campaign_parallel.py``).

        ``retry`` bounds per-launch resilience (attempts, backoff,
        cooperative timeout); the default :class:`RetryPolicy` allows 3
        attempts with no deadline. A launch that exhausts them is
        quarantined into :attr:`CampaignResult.quarantined` — the sweep
        never aborts on a :data:`RECOVERABLE` failure. A worker process
        that dies (or raises :class:`~repro.faults.WorkerCrash`) costs
        only re-running its chunk in the parent, with identical results.

        ``checkpoint`` names a JSONL journal: each completed problem is
        appended (flushed and fsynced) as it finishes, and a rerun with
        the same campaign configuration skips finished problems and
        reassembles a bit-identical result. A checkpoint written by a
        different sweep/seed/kernel is refused
        (:class:`~repro.profiling.checkpoint.CheckpointMismatch`).

        ``telemetry`` names a ``repro-telemetry/1`` JSONL journal
        (:class:`repro.obs.telemetry.TelemetryExporter`): one heartbeat
        record per finished problem — completed/quarantined progress
        plus whatever ambient :func:`~repro.obs.collect` window is
        installed — so a long sweep is observable mid-flight
        (``tail -f``, ``repro lint --artifacts``). Pure output: the
        collected records are bit-identical with it on or off.

        Before anything launches, the plan checker
        (:mod:`repro.analysis.plan`, rules BF5xx) statically validates
        the sweep — design-matrix rank, cost. ERROR findings emit a
        ``UserWarning`` by default; ``strict=True`` upgrades them to an
        :class:`~repro.analysis.InvariantViolation` so a doomed sweep
        never burns its budget.
        """
        problems = list(problems) if problems is not None else self.kernel.default_sweep()
        if not problems:
            raise ValueError(
                "no problem instances to run: the launch list is empty "
                "(pass a non-empty `problems` or a kernel with a default sweep)"
            )
        preflight(
            self.kernel, self.arch, problems, replicates, strict=strict
        )
        if retry is None:
            retry = RetryPolicy()
        result = CampaignResult(
            kernel=self.kernel.name, arch=self.arch.name, family=self.arch.family
        )

        ckpt = None
        if checkpoint is not None:
            # Fingerprint before spawning streams: identical by
            # construction between the interrupted run and the resume.
            # The spawn counter is part of it — spawning advances it, so
            # a second run() on the *same* Campaign object (whose streams
            # would differ) is refused instead of silently mismatched;
            # resume with a fresh Campaign built from the same seed.
            bit_gen = self.profiler._rng.bit_generator
            seed_seq = getattr(bit_gen, "seed_seq", None) or getattr(
                bit_gen, "_seed_seq", None
            )
            ckpt = CampaignCheckpoint.open(
                checkpoint,
                campaign_fingerprint(
                    self.kernel.name,
                    self.arch.name,
                    problems,
                    replicates,
                    (
                        bit_gen.state,
                        getattr(seed_seq, "n_children_spawned", None),
                    ),
                ),
            )

        streams = spawn_streams(self.profiler._rng, len(problems))
        completed: dict[int, list[RunRecord]] = {}
        quarantined: dict[int, QuarantinedRun] = {}
        if ckpt is not None:
            for index, dicts in ckpt.completed.items():
                restored = [
                    RunRecord.from_dict(
                        d, self.kernel.name, self.arch.name, self.arch.family
                    )
                    for d in dicts
                ]
                for rec in restored:
                    # JSON mangles tuples into lists; the in-memory
                    # problem object is authoritative.
                    rec.problem = problems[index]
                completed[index] = restored
            for index, qdict in ckpt.quarantined.items():
                q = QuarantinedRun.from_dict(qdict)
                q.problem = problems[index]
                quarantined[index] = q
        done = set(completed) | set(quarantined)
        pending = [
            (i, problems[i], streams[i])
            for i in range(len(problems))
            if i not in done
        ]

        exporter = None
        if telemetry is not None:
            from repro.obs.telemetry import TelemetryExporter
            from repro.obs.telemetry import snapshot_doc as _telemetry_body

            def _campaign_snapshot() -> dict:
                registry = current_metrics()
                body = (
                    _telemetry_body(registry)
                    if registry is not None
                    else {"counters": {}, "gauges": {}, "timers": {}}
                )
                body["progress"] = {
                    "kernel": self.kernel.name,
                    "arch": self.arch.name,
                    "total": len(problems),
                    "completed": len(completed),
                    "quarantined": len(quarantined),
                }
                return body

            exporter = TelemetryExporter(
                telemetry, _campaign_snapshot, source="campaign"
            )

        def finish(index, problem, records, q) -> None:
            if q is None:
                completed[index] = records
                if ckpt is not None:
                    ckpt.record_result(index, records)
            else:
                quarantined[index] = q
                if ckpt is not None:
                    ckpt.record_quarantine(index, q.to_dict())
            if exporter is not None:
                # One heartbeat per finished problem, always from the
                # parent process (workers report back through finish),
                # so the journal has a single writer.
                exporter.sample()

        jobs = min(resolve_n_jobs(n_jobs), max(len(pending), 1))
        emit_event(
            "campaign.start",
            kernel=self.kernel.name,
            arch=self.arch.name,
            problems=len(problems),
            pending=len(pending),
            n_jobs=jobs,
        )
        with span(
            "campaign.run",
            kernel=self.kernel.name,
            arch=self.arch.name,
            problems=len(problems),
            pending=len(pending),
            n_jobs=jobs,
        ):
            if jobs > 1 and len(pending) > 1:
                self._run_parallel(pending, replicates, jobs, retry, finish)
            else:
                for index, problem, stream in pending:
                    records, q = _profile_resilient(
                        self.profiler,
                        self.kernel,
                        problem,
                        index,
                        replicates,
                        stream,
                        retry,
                    )
                    finish(index, problem, records, q)

        for i in range(len(problems)):
            if i in completed:
                result.records.extend(completed[i])
            elif i in quarantined:
                result.quarantined.append(quarantined[i])
        emit_event(
            "campaign.end",
            kernel=self.kernel.name,
            arch=self.arch.name,
            n_records=len(result.records),
            n_quarantined=len(result.quarantined),
        )
        if exporter is not None:
            # Closing heartbeat: the journal's tail shows the finished
            # sweep even when nothing was pending (checkpoint resume).
            exporter.sample()
        return result

    def _run_parallel(self, pending, replicates, jobs, retry, finish) -> None:
        """Fan pending items out over worker processes, chunk-wise.

        A chunk whose worker fails — an injected
        :class:`~repro.faults.WorkerCrash` or a genuinely dead process
        (``BrokenProcessPool``) — is re-run in the parent with the same
        per-problem streams, so the campaign both survives the crash and
        reproduces the records the worker would have produced.
        """
        bounds = chunk_bounds(len(pending), jobs)
        chunks = [
            pending[lo:hi]
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        tasks = [
            (
                self.arch,
                self.profiler.noise_scale,
                self.profiler.measurement_sigma,
                self.profiler.sanitize,
                self.kernel,
                replicates,
                chunk,
                retry,
            )
            for chunk in chunks
        ]

        def recover_chunk(task, exc):
            chunk = task[6]
            obs_metrics.inc(
                "campaign.worker_crashes", kernel=self.kernel.name
            )
            emit_event(
                "campaign.worker_crash",
                kernel=self.kernel.name,
                items=len(chunk),
                error=f"{type(exc).__name__}: {exc}",
            )
            with span(
                "campaign.worker_recovery",
                kernel=self.kernel.name,
                items=len(chunk),
                error=f"{type(exc).__name__}: {exc}",
            ):
                # Re-run the lost chunk here in the parent. The
                # worker-crash site only exists inside workers, so the
                # fallback cannot crash the same way; a still-failing
                # launch quarantines as usual.
                return [
                    (index, problem)
                    + _profile_resilient(
                        self.profiler,
                        self.kernel,
                        problem,
                        index,
                        replicates,
                        stream,
                        retry,
                    )
                    for index, problem, stream in chunk
                ]

        chunk_results = process_map(
            _profile_chunk,
            tasks,
            jobs,
            recoverable=(FaultError,),
            recover=recover_chunk,
        )
        for out in chunk_results:
            for index, problem, records, q in out:
                finish(index, problem, records, q)
