"""Benchmark-owned span tracer around the public calls of each layer.

The program's own :mod:`repro.obs` tracer stays off in every benchmark
run. Instead, :func:`instrument` replaces each named public callable
*where its caller looks it up* (a class attribute, or a module global
such as ``repro.profiling.campaign.process_map``) with a wrapper that
records one :class:`repro.obs.spans.SpanRecord` per call, and puts every
original back on exit. Self time comes from
:func:`repro.obs.export.span_totals` over those records (see
:mod:`probes`).

Spans keep a parent stack per thread, so the server's worker threads
and the load generator's client threads each build their own subtree.
Work fanned out by :func:`repro.parallel.process_map` runs in forked
worker processes; the ``process_map`` probe ships every task through
:class:`_Collecting`, which records the worker's spans into a fresh
tracer and returns them with the result, and the parent grafts them
under its ``parallel.process_map`` span.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.obs.spans import SpanRecord, Tracer

__all__ = [
    "Probe",
    "SpanTracer",
    "dump_records",
    "graft_server_spans",
    "instrument",
    "load_records",
]

_MISSING = object()


class SpanTracer(Tracer):
    """The package's :class:`~repro.obs.spans.Tracer` with one parent
    stack per thread.

    Always a private instance: it is never installed as the program's
    tracer, so the program's own spans stay off.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        super().__init__()

    @property
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @_stack.setter
    def _stack(self, stack: list[int]) -> None:
        self._local.stack = stack


def graft_server_spans(tracer: SpanTracer, server: list[SpanRecord]) -> None:
    """Adopt a server's spans, each pass under the client request span
    carrying its first request id (spans of one request share an id).

    Both processes stamp ``time.perf_counter`` (CLOCK_MONOTONIC, system
    wide), so the grafted pass sits inside its request's interval.
    """
    requests = {
        r.labels["id"]: r.span_id
        for r in tracer.records if r.name == "bench.request"
    }
    roots: dict[int | None, list[SpanRecord]] = {}
    children = [r for r in server if r.parent_id is not None]
    for rec in server:
        if rec.parent_id is None:
            ids = rec.labels.get("ids") or [None]
            roots.setdefault(requests.get(ids[0]), []).append(rec)
    by_parent: dict[int, list[SpanRecord]] = {}
    for rec in children:
        by_parent.setdefault(rec.parent_id, []).append(rec)
    for parent, group in roots.items():
        subtree, stack = [], list(group)
        while stack:
            rec = stack.pop()
            subtree.append(rec)
            stack.extend(by_parent.get(rec.span_id, ()))
        tracer.adopt(subtree, parent)


@dataclass(frozen=True)
class Probe:
    """One public callable to time, named where its caller looks it up.

    ``before(args, kwargs)`` and ``after(result, args, kwargs)`` return
    extra span labels (counts such as rows, trees or cache hits), taken
    at the same boundary as the time.
    """

    owner: object
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None
    fan_out: bool = False


#: The tracer the installed wrappers record into. Set and restored by
#: :func:`instrument`; a forked worker swaps in a fresh one (see
#: :class:`_Collecting`) so its spans never mix with the parent's copy.
_INSTALLED: SpanTracer | None = None


def _timed(probe: Probe, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer = _INSTALLED
        if tracer is None:
            return func(*args, **kwargs)
        labels = probe.before(args, kwargs) if probe.before else {}
        with tracer.span(probe.span, **labels) as rec:
            result = func(*args, **kwargs)
            if probe.after:
                rec.labels.update(probe.after(result, args, kwargs))
            return result

    return wrapper


@dataclass
class _Collected:
    value: object
    records: list[SpanRecord]


class _Collecting:
    """Picklable worker wrapper: the task's spans travel back with it."""

    def __init__(self, worker: Callable) -> None:
        self.worker = worker

    def __call__(self, task):
        global _INSTALLED
        inherited = _INSTALLED
        _INSTALLED = tracer = SpanTracer()
        try:
            with tracer.span("parallel.worker"):
                value = self.worker(task)
        finally:
            _INSTALLED = inherited
        return _Collected(value, tracer.records)


def _fan_out(probe: Probe, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(worker, tasks, *args, **kwargs):
        tracer = _INSTALLED
        if tracer is None:
            return func(worker, tasks, *args, **kwargs)
        with tracer.span(probe.span, tasks=len(tasks)) as rec:
            results = func(_Collecting(worker), tasks, *args, **kwargs)
        out = []
        for result in results:
            if isinstance(result, _Collected):
                tracer.adopt(result.records, rec.span_id)
                out.append(result.value)
            else:  # a chunk the parent recovered after a worker failure
                out.append(result)
        return out

    return wrapper


@contextmanager
def instrument(tracer: SpanTracer, probes: list[Probe]):
    """Wrap every probe's callable for the block; restore on exit.

    Originals are restored exactly: an attribute a class only inherited
    is deleted again rather than left shadowing its base.
    """
    global _INSTALLED
    saved: list[tuple[object, str, object]] = []
    previous = _INSTALLED
    try:
        for probe in probes:
            func = getattr(probe.owner, probe.attr)
            saved.append(
                (probe.owner, probe.attr, vars(probe.owner).get(probe.attr, _MISSING))
            )
            make = _fan_out if probe.fan_out else _timed
            setattr(probe.owner, probe.attr, make(probe, func))
        _INSTALLED = tracer
        yield tracer
    finally:
        _INSTALLED = previous
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def dump_records(records: list[SpanRecord], path: str) -> None:
    """Write spans as gzipped JSON lines (one span per line)."""
    with gzip.open(path, "wt") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")


def load_records(path: str) -> list[SpanRecord]:
    with gzip.open(path, "rt") as fh:
        return [SpanRecord(**json.loads(line)) for line in fh]
