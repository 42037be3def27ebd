"""Unit tests for deterministic fault plans (repro.faults.plan)."""

import pytest

from repro.faults import (
    SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_injection,
    should_inject,
)
from repro.obs import collect


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("profiler.lunch", "raise")

    def test_mode_validated_per_site(self):
        with pytest.raises(ValueError, match="invalid for site"):
            FaultSpec("io.write", "raise")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("profiler.launch", "raise", probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("profiler.launch", "raise", probability=-0.1)

    def test_every_site_mode_pair_constructs(self):
        for site, modes in SITES.items():
            for mode in modes:
                assert FaultSpec(site, mode).mode == mode

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = FaultSpec(
            "profiler.launch", "nan_counters",
            match={"problem": 4096}, payload={"times": 1},
        )
        roundtripped = pickle.loads(pickle.dumps(spec))
        assert roundtripped == spec
        assert hash(roundtripped) == hash(spec)
        assert roundtripped.payload_dict == {"times": 1}

    def test_plan_rejects_non_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultPlan(["profiler.launch"])


class TestMatching:
    def test_match_requires_equal_value(self):
        spec = FaultSpec("profiler.launch", "raise", match={"problem": 4096})
        assert spec.matches({"problem": 4096, "kernel": "reduce1"})
        assert not spec.matches({"problem": 8192})

    def test_absent_key_never_matches(self):
        spec = FaultSpec("profiler.launch", "raise", match={"problem": 4096})
        assert not spec.matches({"kernel": "reduce1"})

    def test_empty_match_matches_everything(self):
        assert FaultSpec("profiler.launch", "raise").matches({"anything": 1})


class TestDeterminism:
    def test_decision_is_pure_function_of_context(self):
        spec = FaultSpec("profiler.launch", "raise", probability=0.5)
        contexts = [{"problem": p, "kernel": "reduce1"} for p in range(50)]
        first = [spec.fires(7, c) for c in contexts]
        second = [spec.fires(7, c) for c in reversed(contexts)]
        assert first == list(reversed(second))
        # Not degenerate: a 0.5 rule fires on some contexts, not all.
        assert 0 < sum(first) < len(first)

    def test_decision_depends_on_seed(self):
        spec = FaultSpec("profiler.launch", "raise", probability=0.5)
        contexts = [{"problem": p} for p in range(50)]
        assert [spec.fires(0, c) for c in contexts] != [
            spec.fires(1, c) for c in contexts
        ]

    def test_two_rules_decide_independently(self):
        a = FaultSpec("profiler.launch", "raise", probability=0.5)
        b = FaultSpec("profiler.launch", "hang", probability=0.5)
        contexts = [{"problem": p} for p in range(100)]
        decisions_a = [a.fires(3, c) for c in contexts]
        decisions_b = [b.fires(3, c) for c in contexts]
        assert decisions_a != decisions_b

    def test_probability_extremes(self):
        ctx = {"problem": 1}
        assert FaultSpec("profiler.launch", "raise", probability=1.0).fires(0, ctx)
        assert not FaultSpec(
            "profiler.launch", "raise", probability=0.0
        ).fires(0, ctx)


class TestPlanDecide:
    def test_first_firing_rule_wins(self):
        plan = FaultPlan([
            FaultSpec("profiler.launch", "raise", match={"problem": 1}),
            FaultSpec("profiler.launch", "hang"),
        ])
        assert plan.decide("profiler.launch", {"problem": 1}).mode == "raise"
        assert plan.decide("profiler.launch", {"problem": 2}).mode == "hang"

    def test_site_filter(self):
        plan = FaultPlan([FaultSpec("io.write", "torn_file")])
        assert plan.decide("profiler.launch", {}) is None

    def test_events_and_summary(self):
        plan = FaultPlan([FaultSpec("profiler.launch", "raise")])
        plan.decide("profiler.launch", {"problem": 1})
        plan.decide("profiler.launch", {"problem": 2})
        assert plan.summary() == {"profiler.launch:raise": 2}
        assert [e[2]["problem"] for e in plan.events] == [1, 2]

    def test_times_bound_models_transient_fault(self):
        plan = FaultPlan([
            FaultSpec("profiler.launch", "raise", payload={"times": 1})
        ])
        ctx = {"problem": 1}
        assert plan.decide("profiler.launch", ctx) is not None
        assert plan.decide("profiler.launch", ctx) is None  # retry recovers
        # A different context has its own budget.
        assert plan.decide("profiler.launch", {"problem": 2}) is not None

    def test_times_bound_is_per_plan_instance(self):
        spec = FaultSpec("profiler.launch", "raise", payload={"times": 1})
        ctx = {"problem": 1}
        assert FaultPlan([spec]).decide("profiler.launch", ctx) is not None
        assert FaultPlan([spec]).decide("profiler.launch", ctx) is not None


class TestInjectionState:
    def test_disabled_by_default(self):
        assert active_plan() is None
        assert should_inject("profiler.launch", problem=1) is None

    def test_install_and_restore(self):
        plan = FaultPlan([FaultSpec("profiler.launch", "raise")])
        with fault_injection(plan):
            assert active_plan() is plan
            assert should_inject("profiler.launch", problem=1) is plan.specs[0]
        assert active_plan() is None

    def test_restored_even_on_error(self):
        with pytest.raises(RuntimeError):
            with fault_injection(FaultPlan()):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_none_shields_inner_block(self):
        outer = FaultPlan([FaultSpec("profiler.launch", "raise")])
        with fault_injection(outer):
            with fault_injection(None):
                assert should_inject("profiler.launch", problem=1) is None
            assert should_inject("profiler.launch", problem=1) is not None

    def test_rejects_non_plan(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            with fault_injection("chaos"):
                pass

    def test_fired_faults_counted_in_metrics(self):
        plan = FaultPlan([FaultSpec("profiler.launch", "nan_counters")])
        with collect() as registry:
            with fault_injection(plan):
                should_inject("profiler.launch", problem=1)
        counters = registry.snapshot()["counter"]
        fired = {k: v for k, v in counters.items()
                 if k.startswith("faults.injected")}
        assert sum(fired.values()) == 1
        (key,) = fired
        assert "nan_counters" in key and "profiler.launch" in key
