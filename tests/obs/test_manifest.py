"""Tests for provenance manifests (repro.obs.manifest)."""

import json

import pytest

from repro.obs import (
    Manifest,
    build_manifest,
    collect,
    git_revision,
    inc,
    span,
    trace,
)
from repro.obs.manifest import SCHEMA


class TestManifestRoundtrip:
    def test_json_roundtrip(self, tmp_path):
        m = Manifest(
            kernel="matrixMul", arch="GTX580", tag="trial", seed=7,
            n_runs=42, config={"n_trees": 300},
        )
        path = tmp_path / "manifest.json"
        path.write_text(m.to_json())
        back = Manifest.read(path)
        assert back == m

    def test_schema_tag_written(self, tmp_path):
        m = Manifest(kernel="k", arch="a")
        data = json.loads(m.to_json())
        assert data["schema"] == SCHEMA

    def test_unknown_schema_rejected(self):
        bad = json.dumps({"kernel": "k", "arch": "a", "schema": "other/9"})
        with pytest.raises(ValueError, match="schema"):
            Manifest.from_json(bad)

    def test_unknown_fields_ignored(self):
        text = Manifest(kernel="k", arch="a").to_json()
        data = json.loads(text)
        data["future_field"] = True
        assert Manifest.from_json(json.dumps(data)).kernel == "k"


class TestBuildManifest:
    def test_captures_environment(self):
        m = build_manifest(kernel="k", arch="a", seed=1, n_runs=3)
        assert m.schema == SCHEMA
        assert m.python
        assert m.created_unix > 0

    def test_git_revision_recorded_in_repo(self):
        rev = git_revision()
        m = build_manifest(kernel="k", arch="a")
        assert m.git_rev == rev
        if rev is not None:
            assert len(rev) == 40

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(tmp_path) is None

    def test_folds_active_trace_and_metrics(self):
        with trace(), collect():
            with span("stage.one"):
                with span("stage.two"):
                    pass
            with span("stage.one"):
                pass
            inc("events", 5.0)
            m = build_manifest(kernel="k", arch="a")
        assert m.timings["stage.one"]["count"] == 2
        assert "stage.two" in m.timings
        assert m.metrics["counter"]["events"] == pytest.approx(5.0)

    def test_explicit_records_override_active(self):
        with trace() as tracer:
            with span("ignored"):
                pass
            m = build_manifest(
                kernel="k", arch="a", trace_records=[], metrics={}
            )
        assert m.timings == {}
        assert m.metrics == {}
        assert tracer.find("ignored")

    def test_no_collectors_no_timings(self):
        m = build_manifest(kernel="k", arch="a")
        assert m.timings == {}
        assert m.metrics == {}
