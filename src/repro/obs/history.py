"""Bench-history journal and the regression watchdog that reads it.

``repro bench`` measures the per-op speedups of the vectorized fast
paths against the retained readable baselines (:mod:`repro.bench`).
This module gives those measurements a durable home and a tripwire:

* :func:`append_history` appends each run as one JSONL line to
  ``benchmarks/history.jsonl`` — schema-tagged, carrying a
  ``repro-manifest/1`` provenance block (git revision, python, host) —
  through a :class:`repro.io.Journal` (flush + fsync per line), so a
  crash mid-append can tear at most the final line;
* :func:`read_history` loads the journal, discarding exactly that torn
  tail;
* :func:`compare_results` is the watchdog: per-op comparison of a fresh
  run against the committed ``BENCH_core.json`` baseline, flagging ops
  whose **speedup** dropped by more than a threshold. Speedups (fast
  path vs in-process baseline, measured on the same host in the same
  run) are the one machine-portable quantity the harness produces —
  raw wall seconds of CI runner A say nothing about runner B.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.io import Journal

from .manifest import provenance

__all__ = [
    "append_history",
    "read_history",
    "compare_results",
    "Regression",
]

#: Schema tag of each history line.
SCHEMA = "repro-bench-history/1"

#: Default per-op speedup drop (percent, relative) that trips the watchdog.
DEFAULT_THRESHOLD_PCT = 30.0


def append_history(path: str | os.PathLike, payload: dict) -> Path:
    """Append one bench run to the history journal.

    ``payload`` is the ``repro-bench/1`` report dict
    (:func:`repro.bench.write_report`'s structure); the written line
    wraps it with the history schema tag and a manifest-style
    provenance block. The append is flushed and fsynced so the journal
    survives the writing process.
    """
    Journal(path, SCHEMA).append(
        {"schema": SCHEMA, "provenance": provenance(), "bench": payload}
    )
    return Path(path)


def read_history(path: str | os.PathLike) -> list[dict]:
    """Load the history journal; a torn trailing line is discarded.

    Lines that do not conform to the registered
    ``repro-bench-history/1`` schema are refused with the violated
    BF6xx rule named — format drift is a diagnosis, not a KeyError in
    the watchdog.
    """
    path = Path(path)
    return Journal(path, SCHEMA).read() if path.exists() else []


class Regression:
    """One op whose speedup dropped past the threshold."""

    def __init__(
        self, op: str, baseline_speedup: float, current_speedup: float
    ) -> None:
        self.op = op
        self.baseline_speedup = baseline_speedup
        self.current_speedup = current_speedup

    @property
    def drop_pct(self) -> float:
        if self.baseline_speedup == 0.0:
            return 0.0
        return 100.0 * (
            1.0 - self.current_speedup / self.baseline_speedup
        )

    def describe(self) -> str:
        return (
            f"{self.op}: speedup {self.baseline_speedup:.2f}x -> "
            f"{self.current_speedup:.2f}x ({self.drop_pct:.0f}% drop)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Regression({self.describe()})"


def compare_results(
    current: dict,
    baseline: dict,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> list[Regression]:
    """Per-op speedup comparison of two ``repro-bench/1`` payloads.

    Returns the ops whose current speedup is more than
    ``threshold_pct`` percent below the baseline's, sorted by op name.
    Ops present only on one side are skipped — a new benchmark is not a
    regression, and a retired one has nothing to regress.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be >= 0")
    base_ops = {r["op"]: r for r in baseline.get("results", [])}
    regressions: list[Regression] = []
    for result in current.get("results", []):
        base = base_ops.get(result["op"])
        if base is None:
            continue
        base_speedup = float(base["speedup"])
        cur_speedup = float(result["speedup"])
        if base_speedup <= 0.0:
            continue
        drop = 100.0 * (1.0 - cur_speedup / base_speedup)
        if drop > threshold_pct:
            regressions.append(
                Regression(result["op"], base_speedup, cur_speedup)
            )
    regressions.sort(key=lambda r: r.op)
    return regressions
