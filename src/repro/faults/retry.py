"""Bounded retry with deterministic backoff for campaigns and clients.

The policy object is shared by the serial and parallel campaign paths
(and pickles into workers), so retry behaviour — like everything else
in the pipeline — is independent of ``n_jobs``. Backoff durations are
a pure function of the attempt number (``backoff_s * 2**(attempt-2)``,
optionally capped by ``max_backoff_s``), and elapsed-time bookkeeping
uses ``time.monotonic()`` so a wall-clock jump mid-campaign can neither
skip nor stretch a backoff.

The serving client (:mod:`repro.serve.client`) shares the same policy
with two additions that stay deterministic:

* **Seeded jitter** — ``jitter=0.3`` shaves up to 30% off each backoff,
  with the shave drawn from a SHA-256 hash of ``(seed, attempt, key)``
  rather than a process RNG. Two clients retrying the same overloaded
  server desynchronize (different keys → different waits) yet every
  rerun of a chaos test waits the exact same schedule.
* **``max_elapsed_s``** — a monotonic wall-clock cap across *all*
  attempts: once the next backoff would overrun it, retrying stops and
  the last error is returned. Bounds worst-case client latency under
  a long outage independently of ``max_attempts``.
"""

from __future__ import annotations

import functools
import hashlib
import time
import warnings
from dataclasses import dataclass

from .errors import FaultError

__all__ = ["RetryPolicy", "call_with_retry"]


@functools.cache  # the once-per-process guard
def _warn_jitter_without_key() -> None:
    warnings.warn(
        "RetryPolicy.backoff_for(attempt) without key= jitters every "
        "caller identically; pass key=<call id> so concurrent retriers "
        "desynchronize",
        RuntimeWarning,
        stacklevel=3,
    )


def _jitter_uniform(seed: int, attempt: int, key: str) -> float:
    """Uniform in [0, 1) from a stable hash — the same discipline as
    :func:`repro.faults.plan._stable_uniform`, never a process RNG."""
    payload = repr((int(seed), int(attempt), str(key))).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-attempt resilience knobs for campaign launches and serve clients.

    Parameters
    ----------
    max_attempts:
        Total tries per call (1 = no retry). Exhausting them
        quarantines the run (campaigns) or surfaces the last error
        (clients).
    backoff_s:
        Base backoff; attempt ``k`` waits ``backoff_s * 2**(k-2)``
        seconds before running (0, the default, retries immediately —
        the simulator backend has no transient congestion to wait out).
    timeout_s:
        Cooperative per-attempt deadline. Checked between kernel
        launches and between replicates; an overrun raises
        :class:`~repro.faults.errors.LaunchTimeout`, which is retried
        and ultimately quarantined like any other fault. ``None``
        disables the deadline (and its clock reads) entirely.
    max_backoff_s:
        Cap on any single backoff, applied before jitter. ``None`` (the
        default) leaves the exponential schedule uncapped.
    jitter:
        Fraction of each backoff deterministically shaved off, in
        ``[0, 1]``: the wait becomes ``backoff * (1 - jitter * u)`` with
        ``u`` drawn from ``sha256((seed, attempt, key))``. 0 (the
        default) disables jitter and all hashing.
    seed:
        Seed folded into the jitter hash (so chaos experiments can
        re-roll schedules without changing keys).
    max_elapsed_s:
        Monotonic wall-clock budget across all attempts of one call;
        see :func:`call_with_retry`. ``None`` disables it.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    timeout_s: float | None = None
    max_backoff_s: float | None = None
    jitter: float = 0.0
    seed: int = 0
    max_elapsed_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_backoff_s is not None and self.max_backoff_s <= 0:
            raise ValueError("max_backoff_s must be positive (or None)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_elapsed_s is not None and self.max_elapsed_s <= 0:
            raise ValueError("max_elapsed_s must be positive (or None)")

    def backoff_for(self, attempt: int, key: str | None = None) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based; 0 for
        the first attempt).

        ``key`` names the call being retried (request id, run key) and
        feeds the jitter hash; with ``jitter > 0`` and no key it warns
        once per process (``RuntimeWarning``) and jitters on an empty
        key — every caller then gets the same schedule, safe but
        synchronized, the thundering herd jitter exists to avoid.
        """
        if attempt <= 1 or self.backoff_s <= 0:
            return 0.0
        wait = self.backoff_s * (2.0 ** (attempt - 2))
        if self.max_backoff_s is not None:
            wait = min(wait, self.max_backoff_s)
        if self.jitter > 0:
            if key is None:
                _warn_jitter_without_key()
                key = ""
            wait *= 1.0 - self.jitter * _jitter_uniform(
                self.seed, attempt, key
            )
        return wait

    def deadline(self) -> float | None:
        """Monotonic per-attempt deadline starting now, or None."""
        if self.timeout_s is None:
            return None
        return time.monotonic() + self.timeout_s


def call_with_retry(
    fn,
    policy: RetryPolicy,
    recoverable: tuple[type[BaseException], ...] = (FaultError,),
    on_retry=None,
    sleep=time.sleep,
    retry_key: str | None = None,
):
    """Run ``fn(attempt)`` under the policy.

    Returns ``(result, None, attempts)`` on success or
    ``(None, last_exception, attempts)`` once attempts — or the
    policy's ``max_elapsed_s`` wall-clock budget — are exhausted.
    Non-recoverable exceptions propagate immediately — a misconfigured
    campaign (``ValueError``/``TypeError``) must fail fast, not churn
    through retries. ``on_retry(attempt, exc)`` is called before each
    re-attempt (obs accounting hooks in the campaign layer).
    ``retry_key`` names this call for the policy's seeded jitter.
    """
    started = (
        time.monotonic() if policy.max_elapsed_s is not None else None
    )
    last_exc: BaseException | None = None
    attempt = 0
    while True:
        attempt += 1
        wait = policy.backoff_for(attempt, key=retry_key)
        if started is not None and attempt > 1:
            # Give up early when the next backoff would blow the
            # wall-clock budget; report the attempts actually made.
            if (time.monotonic() - started) + wait > policy.max_elapsed_s:
                return None, last_exc, attempt - 1
        if wait > 0:
            # Monotonic bookkeeping: sleep() can wake early on signals;
            # top up until the full backoff has elapsed.
            deadline = time.monotonic() + wait
            remaining = wait
            while remaining > 0:
                sleep(remaining)
                remaining = deadline - time.monotonic()
        try:
            return fn(attempt), None, attempt
        except recoverable as exc:
            last_exc = exc
            if attempt >= policy.max_attempts:
                return None, exc, attempt
            if on_retry is not None:
                on_retry(attempt, exc)
