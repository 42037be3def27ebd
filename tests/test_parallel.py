"""The process_map contract: results in task order, and whatever the
parent is recording — spans, metrics, events, fired faults — comes home
from the workers exactly once."""

import os

from repro.faults import FaultError, FaultPlan, FaultSpec, fault_injection
from repro.faults.plan import should_inject
from repro.obs import collect, emit, event_log, inc, span, trace
from repro.parallel import process_map

TASKS = [1, 2, 3, 4]


def _observed_square(x):
    """Opens a span, counts, emits and asks an injection site."""
    with span("task", x=x):
        inc("tasks")
        emit("task.done", x=x)
        fired = should_inject("profiler.launch", problem=x) is not None
    return x * x, fired


def _fails_on_three(x):
    if x == 3:
        raise FaultError("lost task")
    return _observed_square(x)


def _plan(**payload):
    return FaultPlan(
        [FaultSpec("profiler.launch", "raise", payload=payload or None)]
    )


def test_bare_results_match_the_worker():
    assert process_map(_observed_square, TASKS, 2) == [
        _observed_square(x) for x in TASKS
    ]


def test_worker_observations_arrive_exactly_once():
    plan = _plan()
    with trace() as tracer, collect() as registry, event_log() as log, \
            fault_injection(plan):
        with span("caller") as caller:
            inc("tasks")
            emit("parent.before")
            should_inject("profiler.launch", problem=0)
            results = process_map(_observed_square, TASKS, 2)

    assert results == [(x * x, True) for x in TASKS]
    tasks = tracer.find("task")
    assert sorted(r.labels["x"] for r in tasks) == TASKS
    assert all(r.parent_id == caller.span_id for r in tasks)
    assert all(r.pid != os.getpid() for r in tasks)
    assert [r.name for r in tracer.records].count("caller") == 1
    assert registry.snapshot()["counter"]["tasks"] == len(TASKS) + 1
    assert [e.kind for e in log.events].count("parent.before") == 1
    assert sorted(e.fields["x"] for e in log.find("task.done")) == TASKS
    assert sorted(ctx["problem"] for _, _, ctx in plan.events) == [0, *TASKS]
    assert plan.summary() == {"profiler.launch:raise": len(TASKS) + 1}


def test_transient_fault_counts_fold_back_like_serial():
    # A ``times`` bound counted in a worker holds in the parent afterwards:
    # a second sweep over the same contexts fires nothing, as serially.
    serial, parallel = _plan(times=1), _plan(times=1)
    with fault_injection(serial):
        serial_runs = [[_observed_square(x) for x in TASKS] for _ in range(2)]
    with fault_injection(parallel):
        parallel_runs = [process_map(_observed_square, TASKS, 2)
                         for _ in range(2)]
    assert parallel_runs == serial_runs
    assert [fired for _, fired in serial_runs[1]] == [False] * len(TASKS)
    assert parallel.summary() == serial.summary()


def test_recovered_task_records_in_the_parent():
    def recover(task, exc):
        with span("recovered", x=task):
            return _observed_square(task)

    with trace() as tracer, fault_injection(_plan()) as plan:
        results = process_map(
            _fails_on_three, TASKS, 2,
            recoverable=(FaultError,), recover=recover,
        )
    assert results == [(x * x, True) for x in TASKS]
    recovered = tracer.find("recovered")
    assert len(recovered) == 1 and recovered[0].pid == os.getpid()
    assert sorted(r.labels["x"] for r in tracer.find("task")) == TASKS
    assert plan.summary() == {"profiler.launch:raise": len(TASKS)}
