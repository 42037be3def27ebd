"""Counter / timer / gauge metrics with label support.

Complements the span tree (:mod:`repro.obs.spans`) with cheap scalar
accounting: how many launches did a campaign retry, how many tree
nodes did a forest grow, what was the peak campaign size. Like
tracing, collection is **off by default** and the disabled fast path is
one module-global load plus an ``is None`` check.

Metric identity is ``(name, sorted labels)``; the three instrument
kinds follow the usual semantics:

* **counter** — monotonically accumulated float (:func:`inc`);
* **gauge** — last-write-wins float (:func:`set_gauge`);
* **timer** — a bounded :class:`LogHistogram` per series: accumulated
  seconds, observation count, exact min/max, and p50/p95/p99 in
  :meth:`MetricsRegistry.snapshot`, via :func:`observe` or the
  :func:`timer` context manager.

Timer distributions are **bounded**: up to :data:`RAW_SAMPLE_CAP` raw
observations are retained per series (so quantiles over small windows
are exact, byte-for-byte what a sorted-list percentile would return);
past the cap the raw samples are dropped permanently and quantiles are
estimated from fixed log-spaced buckets. Both regimes — and the
transition between them — depend only on the *multiset* of
observations, never on observation or merge order, so a merge of
worker registries yields the same summary regardless of which worker
finished first.

Use :func:`collect` to gather metrics for a block::

    with collect() as metrics:
        BlackForest(rng=0).fit(campaign)
    metrics.snapshot()["counter"]["tree.fits"]
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

__all__ = [
    "LogHistogram",
    "MetricsRegistry",
    "RAW_SAMPLE_CAP",
    "collect",
    "current_metrics",
    "inc",
    "set_gauge",
    "observe",
    "timer",
]

#: Raw observations retained per timer series before switching to
#: bucket-only quantile estimation. Must stay comfortably above the
#: window sizes whose quantiles are pinned exactly by tests and
#: downstream reports (currently up to 100 observations).
RAW_SAMPLE_CAP = 512

#: Bucket growth factor: four buckets per octave (~19% bucket width),
#: giving better than ±10% quantile estimates over any latency range
#: with a handful of occupied buckets per series.
_GROWTH = 2.0 ** 0.25
_LOG_GROWTH = math.log(_GROWTH)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _key(name: str, labels: dict) -> tuple:
    if not labels:
        return (name,)
    return (name,) + tuple(sorted(labels.items()))


def _render_key(key: tuple) -> str:
    name = key[0]
    if len(key) == 1:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key[1:])
    return f"{name}{{{inner}}}"


class LogHistogram:
    """Bounded latency distribution with merge-order-independent stats.

    Tracks exact ``count``/``total``/``min``/``max`` plus sparse
    log-spaced bucket counts. While the total observation count is at
    most :data:`RAW_SAMPLE_CAP` the raw samples are also retained and
    quantiles are exact (sorted-list linear interpolation); beyond the
    cap the samples are dropped — permanently, including through any
    later merge — and quantiles interpolate within the bucket holding
    the target rank, clamped to the exact ``[min, max]``.

    Every piece of state is either an order-independent aggregate
    (sums, mins, bucket counts) or derived from the sorted sample
    multiset, and the exact→bucketed transition fires purely on the
    total count, so ``merge(a, b)`` and ``merge(b, a)`` produce
    identical summaries bit for bit.
    """

    __slots__ = (
        "count",
        "total",
        "min_value",
        "max_value",
        "nonpos",
        "buckets",
        "samples",
    )

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        #: Observations ``<= 0`` (clock oddities, explicit zeros) land
        #: in a dedicated underflow bucket — log buckets only cover
        #: strictly positive values.
        self.nonpos = 0
        self.buckets: dict[int, int] = {}
        #: Raw samples, or ``None`` once the series outgrew the cap.
        self.samples: list[float] | None = []

    # -- recording ----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if value > 0.0:
            idx = math.floor(math.log(value) / _LOG_GROWTH)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.nonpos += 1
        if self.samples is not None:
            self.samples.append(value)
            if self.count > RAW_SAMPLE_CAP:
                self.samples = None

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` in; all aggregates add, samples survive only
        while both sides still have them and the combined count fits
        under the cap (so the exact→bucketed cutover cannot depend on
        merge order)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        self.nonpos += other.nonpos
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        if (
            self.samples is None
            or other.samples is None
            or self.count > RAW_SAMPLE_CAP
        ):
            self.samples = None
        else:
            self.samples = self.samples + list(other.samples)

    # -- queries ------------------------------------------------------------

    def _spans(self):
        """Occupied buckets in value order as ``(lo, hi, count)``."""
        if self.nonpos:
            yield (min(self.min_value, 0.0), 0.0, self.nonpos)
        for idx in sorted(self.buckets):
            yield (_GROWTH ** idx, _GROWTH ** (idx + 1), self.buckets[idx])

    def quantile(self, q: float) -> float | None:
        if self.count == 0:
            return None
        if self.samples is not None:
            return _percentile(sorted(self.samples), q)
        target = q * (self.count - 1)
        cum = 0
        value = self.max_value
        for lo, hi, n in self._spans():
            if target < cum + n:
                value = lo + (hi - lo) * ((target - cum) / n)
                break
            cum += n
        return min(max(value, self.min_value), self.max_value)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs for exposition,
        Prometheus-style: each bucket counts observations ``<= bound``
        and the final ``+Inf`` bound carries the total count."""
        out: list[tuple[float, int]] = []
        cum = 0
        if self.nonpos:
            cum += self.nonpos
            out.append((0.0, cum))
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            out.append((_GROWTH ** (idx + 1), cum))
        out.append((math.inf, self.count))
        return out

    def summary(self) -> dict:
        summary = {"total_s": self.total, "count": self.count}
        if self.count:
            summary["min_s"] = self.min_value
            summary["max_s"] = self.max_value
            summary["p50_s"] = self.quantile(0.50)
            summary["p95_s"] = self.quantile(0.95)
            summary["p99_s"] = self.quantile(0.99)
        return summary

    def to_dict(self) -> dict:
        """JSON-friendly view for telemetry export (no raw samples)."""
        doc = dict(self.summary())
        doc["exact"] = self.samples is not None
        doc["buckets"] = [
            [None if math.isinf(bound) else bound, cum]
            for bound, cum in self.cumulative_buckets()
        ]
        return doc


class MetricsRegistry:
    """In-memory store for one collection window."""

    def __init__(self) -> None:
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        #: One bounded histogram per timer series; see
        #: :class:`LogHistogram` for the exact-vs-bucketed regimes.
        self.timers: dict[tuple, LogHistogram] = {}

    # -- instruments --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, seconds: float, **labels) -> None:
        key = _key(name, labels)
        hist = self.timers.get(key)
        if hist is None:
            hist = self.timers[key] = LogHistogram()
        hist.observe(seconds)

    @contextmanager
    def timer(self, name: str, **labels):
        # monotonic, not perf_counter: timer totals are merged across
        # worker processes, and monotonic is the one clock guaranteed
        # consistent under suspend/NTP slew for such wall-time spans.
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - t0, **labels)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view, rendered ``name{label=value}`` keys."""
        return {
            "counter": {
                _render_key(k): v for k, v in sorted(self.counters.items())
            },
            "gauge": {
                _render_key(k): v for k, v in sorted(self.gauges.items())
            },
            "timer": {
                _render_key(k): self.timers[k].summary()
                for k in sorted(self.timers)
            },
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold a worker's registry into this one (counters/timers add,
        gauges last-write-wins in ``other``'s favour). Timer histograms
        merge aggregate-wise, so the merged summary does not depend on
        merge order."""
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0.0) + v
        for k, v in other.gauges.items():
            self.gauges[k] = v
        for k, hist in other.timers.items():
            mine = self.timers.get(k)
            if mine is None:
                mine = self.timers[k] = LogHistogram()
            mine.merge(hist)


# -- module-level collection state ------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def current_metrics() -> MetricsRegistry | None:
    return _ACTIVE


def inc(name: str, value: float = 1.0, **labels) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, seconds: float, **labels) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, seconds, **labels)


@contextmanager
def timer(name: str, **labels):
    """Time a block into a timer metric; no-op when collection is off."""
    registry = _ACTIVE
    if registry is None:
        yield
        return
    t0 = time.monotonic()
    try:
        yield
    finally:
        registry.observe(name, time.monotonic() - t0, **labels)


@contextmanager
def collect():
    """Install a fresh registry for the block; restores the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    registry = MetricsRegistry()
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
