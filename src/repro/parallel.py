"""Shared helpers for deterministic multi-process fan-out.

Both the forest fit (:mod:`repro.ml.forest`) and the profiling campaign
sweep (:mod:`repro.profiling.campaign`) parallelize over independent
work items (trees, problem instances) while guaranteeing that the
result is bit-for-bit identical to the serial path. The recipe is the
same in both places and lives here:

* :func:`spawn_streams` gives every work item its *own* child RNG
  stream derived with ``SeedSequence.spawn`` semantics, so item ``i``
  consumes the same random numbers no matter which process runs it or
  in what order;
* :func:`resolve_n_jobs` normalizes the user-facing ``n_jobs`` knob
  (``-1`` = all cores, ``0`` rejected);
* :func:`chunk_bounds` splits ``n`` items into at most ``jobs``
  contiguous chunks, so per-process results can be concatenated back in
  item order;
* :func:`process_map` is the one place in the package that touches
  ``concurrent.futures`` — it fans tasks out over a process pool and
  returns results *in task order*, with an optional in-parent recovery
  hook for crashed workers. The determinism sanitizer (rule BF405)
  rejects process fan-out anywhere else.

:func:`process_map` also carries the active collectors and fault plan:
whatever the parent is recording — spans, metrics, events, fired
faults — each worker records into fresh collectors of the same kinds,
and the parent merges them back in task order. Callers write plain
workers that know nothing about observability.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, active_plan, fault_injection
from repro.obs.log import current_event_log, event_log
from repro.obs.metrics import collect, current_metrics
from repro.obs.spans import current_tracer, trace

__all__ = ["chunk_bounds", "process_map", "resolve_n_jobs", "spawn_streams"]


def resolve_n_jobs(n_jobs: int) -> int:
    """Worker-count for an ``n_jobs`` knob: ``-1`` means all CPUs."""
    if n_jobs == 0:
        raise ValueError("n_jobs must be >= 1 or -1")
    if n_jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return n_jobs


def spawn_streams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child streams (SeedSequence.spawn semantics).

    Child ``i`` is a deterministic function of the parent's seed
    sequence and ``i`` alone — not of how many numbers the parent has
    produced since, nor of which process asks — which is what makes
    serial and parallel execution replay identically.
    """
    if hasattr(rng, "spawn"):  # numpy >= 1.25
        return rng.spawn(n)
    seeds = rng.bit_generator.seed_seq.spawn(n)  # type: ignore[attr-defined]
    return [np.random.default_rng(s) for s in seeds]


def chunk_bounds(n_items: int, jobs: int) -> np.ndarray:
    """Boundaries of at most ``jobs`` contiguous, near-equal chunks."""
    jobs = max(1, min(jobs, n_items))
    return np.linspace(0, n_items, jobs + 1).astype(int)


def _observed(
    worker: Callable,
    task,
    traced: bool,
    metered: bool,
    evented: bool,
    plan: FaultPlan | None,
) -> tuple:
    """Worker side of :func:`process_map`: run one task and return its
    result with what the worker recorded.

    A forked worker inherits the parent's collectors, records and all,
    so each one the parent had active is shadowed by a fresh one here.
    The plan is installed explicitly because module globals do not
    survive spawn-started workers.
    """
    with ExitStack() as stack:
        tracer = stack.enter_context(trace()) if traced else None
        registry = stack.enter_context(collect()) if metered else None
        log = stack.enter_context(event_log()) if evented else None
        stack.enter_context(fault_injection(plan))
        result = worker(task)
    return (
        result,
        tracer.records if tracer is not None else [],
        registry,
        list(log.events) if log is not None else [],
        plan,
    )


def process_map(
    worker: Callable,
    tasks: Sequence,
    max_workers: int,
    *,
    recoverable: tuple[type[BaseException], ...] | None = None,
    recover: Callable | None = None,
) -> list:
    """Run ``worker(task)`` for every task on a process pool, in order.

    Results come back in *task order* regardless of which worker
    finishes first, so callers can concatenate them and stay
    bit-identical with the serial path. When a task raises one of
    ``recoverable`` — including a ``BrokenProcessPool`` from a worker
    that died outright — ``recover(task, exc)`` runs *in the parent*
    and its return value stands in for the lost result; without a
    recovery hook the exception propagates.

    The parent's active tracer, metrics registry, event log and fault
    plan travel with every task (see :func:`_observed`). In task order,
    each worker's spans are grafted under the caller's current span,
    its metrics and events merged, and the faults that fired in it
    folded back into the plan — so the parent sees the same
    observations as a serial run. A recovered task runs in the parent
    and records directly.

    This is deliberately the only module in the package that imports
    ``concurrent.futures`` (enforced by determinism rule BF405): every
    process fan-out shares one audited, order-stable code path.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    catch: tuple[type[BaseException], ...] = tuple(recoverable or ())
    if recover is not None and BrokenProcessPool not in catch:
        catch = catch + (BrokenProcessPool,)

    tracer = current_tracer()
    registry = current_metrics()
    log = current_event_log()
    plan = active_plan()
    carried = (
        tracer is not None,
        registry is not None,
        log is not None,
        plan.fork() if plan is not None else None,
    )
    results: list = []
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_observed, worker, task, *carried) for task in tasks
        ]
        for task, future in zip(tasks, futures):
            try:
                result, spans, metrics, events, fired = future.result()
            except catch as exc:
                if recover is None:  # pragma: no cover - guarded above
                    raise
                results.append(recover(task, exc))
                continue
            if tracer is not None:
                tracer.adopt(spans)
            if registry is not None:
                registry.merge(metrics)
            if log is not None:
                log.merge(events)
            if plan is not None:
                plan.merge(fired)
            results.append(result)
    return results
