"""Tests for the bench-history journal and watchdog (repro.obs.history)."""

import json

import pytest

from repro.obs import append_history, compare_results, read_history
from repro.obs.history import (
    DEFAULT_THRESHOLD_PCT,
    SCHEMA,
    Regression,
)


def _payload(**speedups) -> dict:
    return {
        "schema": "repro-bench/1",
        "results": [
            {"op": op, "speedup": s} for op, s in sorted(speedups.items())
        ],
    }


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _payload(resolve=10.0))
        append_history(path, _payload(resolve=11.0))
        entries = read_history(path)
        assert len(entries) == 2
        assert entries[0]["bench"]["results"][0]["speedup"] == 10.0
        assert entries[1]["bench"]["results"][0]["speedup"] == 11.0

    def test_entries_carry_schema_and_provenance(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _payload(resolve=10.0))
        (entry,) = read_history(path)
        assert entry["schema"] == SCHEMA
        prov = entry["provenance"]
        assert prov["schema"] == "repro-manifest/1"
        assert "python" in prov and "host" in prov

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "benchmarks" / "history.jsonl"
        append_history(path, _payload(x=1.0))
        assert len(read_history(path)) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": "repro-bench-history/9"}) + "\n")
        with pytest.raises(ValueError, match="unknown schema"):
            read_history(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _payload(a=1.0))
        with open(path, "a") as fh:
            fh.write("\n")
        append_history(path, _payload(a=2.0))
        assert len(read_history(path)) == 2


class TestCompareResults:
    def test_no_regression_when_equal(self):
        current = baseline = _payload(resolve=10.0, simulate=5.0)
        assert compare_results(current, baseline) == []

    def test_improvement_is_not_a_regression(self):
        assert compare_results(
            _payload(resolve=20.0), _payload(resolve=10.0)
        ) == []

    def test_drop_past_threshold_flagged(self):
        regs = compare_results(
            _payload(resolve=5.0), _payload(resolve=10.0), threshold_pct=30.0
        )
        assert [r.op for r in regs] == ["resolve"]
        assert regs[0].drop_pct == pytest.approx(50.0)

    def test_drop_within_threshold_passes(self):
        assert compare_results(
            _payload(resolve=8.0), _payload(resolve=10.0), threshold_pct=30.0
        ) == []

    def test_threshold_is_strict_boundary(self):
        # exactly at the threshold is not a regression; just past it is
        at = compare_results(
            _payload(op=7.5), _payload(op=10.0), threshold_pct=25.0
        )
        past = compare_results(
            _payload(op=7.0), _payload(op=10.0), threshold_pct=25.0
        )
        assert at == []
        assert len(past) == 1

    def test_new_and_retired_ops_skipped(self):
        current = _payload(brand_new=0.1, shared=10.0)
        baseline = _payload(retired=50.0, shared=10.0)
        assert compare_results(current, baseline) == []

    def test_sorted_by_op(self):
        regs = compare_results(
            _payload(zeta=1.0, alpha=1.0),
            _payload(zeta=10.0, alpha=10.0),
        )
        assert [r.op for r in regs] == ["alpha", "zeta"]

    def test_nonpositive_baseline_speedup_skipped(self):
        assert compare_results(
            _payload(op=1.0), _payload(op=0.0)
        ) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_results(_payload(), _payload(), threshold_pct=-1.0)

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD_PCT == pytest.approx(30.0)


class TestRegression:
    def test_drop_pct(self):
        reg = Regression("op", baseline_speedup=10.0, current_speedup=4.0)
        assert reg.drop_pct == pytest.approx(60.0)

    def test_zero_baseline_guard(self):
        assert Regression("op", 0.0, 1.0).drop_pct == 0.0

    def test_describe(self):
        text = Regression("resolve", 14.9, 5.0).describe()
        assert "resolve" in text
        assert "14.90x" in text and "5.00x" in text
        assert "66% drop" in text
