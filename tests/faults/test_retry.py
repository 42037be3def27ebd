"""Unit tests for retry policies and the bounded-retry driver."""

import time

import pytest

from repro.faults import FaultPlan  # noqa: F401  (package import sanity)
from repro.faults import InjectedFault, RetryPolicy, call_with_retry


class TestRetryPolicyValidation:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.backoff_s == 0.0
        assert policy.timeout_s is None

    def test_max_attempts_floor(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_backoff_nonnegative(self):
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=-1)

    def test_timeout_positive_or_none(self):
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0)
        assert RetryPolicy(timeout_s=None).deadline() is None


class TestBackoffSchedule:
    def test_first_attempt_never_waits(self):
        assert RetryPolicy(backoff_s=1.0).backoff_for(1) == 0.0

    def test_exponential_doubling(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1)
        assert [policy.backoff_for(k) for k in (2, 3, 4)] == pytest.approx(
            [0.1, 0.2, 0.4]
        )

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_s=0.0).backoff_for(4) == 0.0

    def test_deadline_is_monotonic_offset(self):
        policy = RetryPolicy(timeout_s=5.0)
        before = time.monotonic()
        deadline = policy.deadline()
        assert deadline == pytest.approx(before + 5.0, abs=0.5)


class TestCallWithRetry:
    def test_success_first_try(self):
        result, exc, attempts = call_with_retry(
            lambda attempt: attempt * 10, RetryPolicy()
        )
        assert (result, exc, attempts) == (10, None, 1)

    def test_recoverable_failure_then_success(self):
        def flaky(attempt):
            if attempt < 3:
                raise InjectedFault("transient")
            return "ok"

        result, exc, attempts = call_with_retry(flaky, RetryPolicy())
        assert (result, exc, attempts) == ("ok", None, 3)

    def test_exhaustion_returns_last_exception(self):
        def always_fails(attempt):
            raise InjectedFault(f"attempt {attempt}")

        result, exc, attempts = call_with_retry(
            always_fails, RetryPolicy(max_attempts=2)
        )
        assert result is None
        assert isinstance(exc, InjectedFault) and "attempt 2" in str(exc)
        assert attempts == 2

    def test_non_recoverable_propagates_immediately(self):
        calls = []

        def misconfigured(attempt):
            calls.append(attempt)
            raise ValueError("bad argument")

        with pytest.raises(ValueError, match="bad argument"):
            call_with_retry(misconfigured, RetryPolicy(max_attempts=5))
        assert calls == [1]  # fail fast, no retry churn

    def test_custom_recoverable_set(self):
        def flaky(attempt):
            if attempt == 1:
                raise KeyError("missing counter")
            return attempt

        result, exc, attempts = call_with_retry(
            flaky, RetryPolicy(), recoverable=(KeyError,)
        )
        assert (result, exc, attempts) == (2, None, 2)

    def test_on_retry_called_before_each_reattempt(self):
        seen = []

        def flaky(attempt):
            if attempt < 3:
                raise InjectedFault("again")
            return attempt

        call_with_retry(
            flaky,
            RetryPolicy(max_attempts=4),
            on_retry=lambda attempt, exc: seen.append(
                (attempt, type(exc).__name__)
            ),
        )
        assert seen == [(1, "InjectedFault"), (2, "InjectedFault")]

    def test_backoff_uses_injected_sleep(self, monkeypatch):
        clock = {"now": 100.0}
        waits = []

        def fake_monotonic():
            return clock["now"]

        def fake_sleep(seconds):
            waits.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr(time, "monotonic", fake_monotonic)

        def always_fails(attempt):
            raise InjectedFault("again")

        call_with_retry(
            always_fails,
            RetryPolicy(max_attempts=3, backoff_s=0.5),
            sleep=fake_sleep,
        )
        # Attempt 1 runs immediately; attempts 2 and 3 back off 0.5/1.0s.
        assert waits == pytest.approx([0.5, 1.0])

    def test_backoff_tops_up_after_early_wakeup(self, monkeypatch):
        clock = {"now": 0.0}
        waits = []

        def fake_sleep(seconds):
            waits.append(seconds)
            clock["now"] += seconds / 2  # wake early, as a signal would

        monkeypatch.setattr(time, "monotonic", lambda: clock["now"])

        def fails_once(attempt):
            if attempt == 1:
                raise InjectedFault("again")
            return "ok"

        result, _, _ = call_with_retry(
            fails_once,
            RetryPolicy(max_attempts=2, backoff_s=1.0),
            sleep=fake_sleep,
        )
        assert result == "ok"
        # Slept again until the full monotonic backoff had elapsed.
        assert len(waits) > 1
        assert sum(w / 2 for w in waits) >= 1.0


class TestSeededJitter:
    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5, seed=3)
        first = policy.backoff_for(2, key="req-1")
        assert policy.backoff_for(2, key="req-1") == first  # replayable

    def test_jitter_desynchronizes_keys(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5, seed=3)
        waits = {policy.backoff_for(2, key=f"req-{i}") for i in range(16)}
        assert len(waits) > 1  # distinct keys spread out

    def test_jitter_is_subtractive_and_bounded(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5, seed=0)
        for i in range(32):
            wait = policy.backoff_for(2, key=f"k{i}")
            assert 0.5 <= wait <= 1.0  # never above base, never below 1-jitter

    def test_seed_changes_the_schedule(self):
        a = RetryPolicy(backoff_s=1.0, jitter=0.5, seed=0)
        b = RetryPolicy(backoff_s=1.0, jitter=0.5, seed=1)
        waits_a = [a.backoff_for(2, key=f"k{i}") for i in range(8)]
        waits_b = [b.backoff_for(2, key=f"k{i}") for i in range(8)]
        assert waits_a != waits_b

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.0, seed=9)
        assert policy.backoff_for(3, key="anything") == pytest.approx(0.2)

    def test_jitter_without_key_warns_once(self):
        from repro.faults.retry import _warn_jitter_without_key

        _warn_jitter_without_key.cache_clear()
        policy = RetryPolicy(backoff_s=1.0, jitter=0.5)
        with pytest.warns(RuntimeWarning, match="key="):
            policy.backoff_for(2)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy.backoff_for(2)  # second call stays silent

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestBackoffCap:
    def test_max_backoff_caps_the_doubling(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_s=0.1, max_backoff_s=0.25
        )
        assert policy.backoff_for(2) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.2)
        assert policy.backoff_for(4) == pytest.approx(0.25)  # capped
        assert policy.backoff_for(7) == pytest.approx(0.25)

    def test_jitter_applies_after_the_cap(self):
        policy = RetryPolicy(
            backoff_s=1.0, max_backoff_s=0.5, jitter=0.5, seed=0
        )
        for i in range(16):
            wait = policy.backoff_for(5, key=f"k{i}")
            assert 0.25 <= wait <= 0.5

    def test_max_backoff_validation(self):
        with pytest.raises(ValueError, match="max_backoff_s"):
            RetryPolicy(max_backoff_s=0)


class TestMaxElapsedBudget:
    def test_gives_up_when_the_next_wait_would_bust_the_budget(self):
        calls = []
        sleeps = []

        def always_fails(attempt):
            calls.append(attempt)
            raise InjectedFault("down")

        result, exc, attempts = call_with_retry(
            always_fails,
            RetryPolicy(
                max_attempts=10, backoff_s=100.0, max_elapsed_s=1.0
            ),
            sleep=sleeps.append,
        )
        # Attempt 1 fails; a 100 s backoff cannot fit the 1 s budget,
        # so the driver stops without sleeping at all.
        assert result is None
        assert isinstance(exc, InjectedFault)
        assert attempts == 1
        assert calls == [1]
        assert sleeps == []

    def test_budget_roomy_enough_lets_retries_run(self):
        def fails_once(attempt):
            if attempt == 1:
                raise InjectedFault("again")
            return "ok"

        result, exc, attempts = call_with_retry(
            fails_once,
            RetryPolicy(max_attempts=3, backoff_s=0.0, max_elapsed_s=60.0),
            sleep=lambda s: None,
        )
        assert result == "ok"
        assert exc is None
        assert attempts == 2

    def test_max_elapsed_validation(self):
        with pytest.raises(ValueError, match="max_elapsed_s"):
            RetryPolicy(max_elapsed_s=-1)


class TestCompat:
    def test_positional_construction_still_works(self):
        policy = RetryPolicy(5, 0.5, 30.0)
        assert policy.max_attempts == 5
        assert policy.backoff_s == 0.5
        assert policy.timeout_s == 30.0
        # New fields default inert: old call sites see old behavior.
        assert policy.max_backoff_s is None
        assert policy.jitter == 0.0
        assert policy.max_elapsed_s is None
