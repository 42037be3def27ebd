"""Small measurement helpers: percentiles with their sample counts,
operation accounting, a calibration loop and run metadata."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the counts that back it."""

    q: float
    value: float
    n: int
    beyond: int

    def describe(self) -> str:
        return (f"p{self.q:g} of {self.n} samples, "
                f"{self.beyond} beyond it")


def percentile(samples, q: float) -> Percentile:
    """Linear-interpolated ``q``-th percentile (numpy's default method).

    ``beyond`` counts the samples strictly above the value — the guide
    for a tail figure is at least ten of them.
    """
    data = sorted(float(x) for x in samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    return Percentile(q, value, len(data), sum(1 for x in data if x > value))


@dataclass
class OpCount:
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


class Tally:
    """Attempted / succeeded / failed counts per operation kind.

    Failures carry an error kind (``quarantined``, ``overloaded``,
    ``deadline_exceeded``, …) so the error rate is always printed with
    its base and its breakdown.
    """

    def __init__(self) -> None:
        self.ops: dict[str, OpCount] = {}

    def record(self, op: str, error: str | None = None, n: int = 1) -> None:
        count = self.ops.setdefault(op, OpCount())
        count.attempted += n
        if error is not None:
            count.failed += n
            count.errors[error] += n

    def merge(self, other: "Tally") -> None:
        for op, c in other.ops.items():
            self.record(op, n=c.succeeded)
            for kind, n in c.errors.items():
                self.record(op, kind, n=n)

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.ops.values())

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def success_ratio(self) -> float:
        return 1.0 - self.error_rate()

    def lines(self) -> list[str]:
        out = []
        for op, c in sorted(self.ops.items()):
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(c.errors.items()))
            out.append(
                f"{op}: attempted={c.attempted} succeeded={c.succeeded} "
                f"failed={c.failed}" + (f" ({kinds})" if kinds else "")
            )
        return out

    def to_dict(self) -> dict:
        return {
            op: {"attempted": c.attempted, "succeeded": c.succeeded,
                 "failed": c.failed, "errors": dict(c.errors)}
            for op, c in sorted(self.ops.items())
        }


class PeakMemory:
    """Peak of the summed proportional set size (PSS) of some processes,
    sampled on a background thread while the block runs.

    PSS splits each page among the processes that share it, so workers
    forked from a measured process do not count its pages again. Reads
    ``/proc/<pid>/smaps_rollup`` (Linux).
    """

    def __init__(self, pids, interval_s: float = 0.1) -> None:
        #: Called at every sample: the pids to add up.
        self.pids = pids
        self.interval_s = interval_s
        self.peak_kb = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def sample(self) -> None:
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/smaps_rollup") as fh:
                    for line in fh:
                        if line.startswith("Pss:"):
                            total += int(line.split()[1])
                            break
            except OSError:  # the process has just exited
                continue
        self.peak_kb = max(self.peak_kb, total)
        self.samples += 1

    def _watch(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def with_children(pid: int) -> list[int]:
    """``pid`` and its live child processes."""
    children = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name, in parentheses, may itself hold spaces
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return [pid] + children


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed numpy + interpreter loop.

    A portable normaliser: dividing a wall time by it compares runs on
    different machines. Metadata only, never an end-to-end metric.
    """
    a = np.random.default_rng(0).standard_normal((64, 64))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += float(np.sort(a[i % 64]).sum()) + float((a @ a[:, i % 64])[0])
        total = 0
        for i in range(500_000):
            total += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_digest(root: Path, dirs=("src",)) -> str:
    """SHA-256 prefix over the Python sources under ``dirs``."""
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in (root / d).rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def source_key(root: Path) -> str:
    """What a deterministic workflow's output depends on: the package's
    sources, the benchmark's own (its workflow parameters and claim
    thresholds), and the interpreter and numpy versions."""
    return (f"{source_digest(root, ('src', 'perfbench'))}"
            f"-py{platform.python_version()}-np{np.__version__}")


def source_revision(root: Path) -> str:
    """Git revision when the checkout has one, else a digest of ``src``.

    Reads ``.git`` directly (no subprocess, nothing outside the
    checkout).
    """
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                return "git:" + ref_path.read_text().strip()
        else:
            return "git:" + ref
    return "src-sha256:" + source_digest(root)


def run_metadata(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "revision": source_revision(root),
        "seed": seed,
        "calibration_s": calibration_s(),
    }
