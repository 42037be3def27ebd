"""Tests for the artifact schema registry (BF601-BF605)."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    SCHEMAS,
    Severity,
    lint_artifacts,
    validate_artifact,
    validate_fields,
)
from repro.analysis.schemas import load_artifact, schema_for_path
from repro.gpusim.arch import GTX580
from repro.kernels import kernel_registry
from repro.obs.history import append_history, read_history
from repro.obs.log import EventLog, read_events
from repro.obs.manifest import Manifest, build_manifest
from repro.profiling.campaign import Campaign
from repro.profiling.repository import ProfileRepository

REPO_ROOT = Path(__file__).resolve().parents[2]
VECTOR_ADD = kernel_registry()["vectorAdd"]


def rules_fired(findings):
    return {f.rule for f in findings}


def write_manifest(tmp_path, mutate=None):
    manifest = build_manifest(
        kernel="vectorAdd", arch="GTX580", seed=7, n_runs=3,
        trace_records=[], metrics={},
    )
    path = tmp_path / "manifest.json"
    path.write_text(manifest.to_json())
    if mutate is not None:
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
    return path


def run_campaign(tmp_path, checkpoint=None):
    campaign = Campaign(VECTOR_ADD, GTX580, rng=0)
    return campaign.run(
        problems=VECTOR_ADD.default_sweep()[:3], checkpoint=checkpoint
    )


class TestShippedFormatsValidate:
    def test_manifest(self, tmp_path):
        assert validate_artifact(write_manifest(tmp_path)) == []

    def test_event_log_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("campaign.start", kernel="vectorAdd")
        log.emit("campaign.finish", n=3)
        assert validate_artifact(path) == []

    def test_checkpoint_journal(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        run_campaign(tmp_path, checkpoint=path)
        assert validate_artifact(path) == []

    def test_repository_meta(self, tmp_path):
        repo = ProfileRepository(tmp_path / "repo")
        cdir = repo.save(run_campaign(tmp_path))
        assert validate_artifact(cdir / "meta.json") == []

    def test_bench_baseline(self):
        assert validate_artifact(REPO_ROOT / "BENCH_core.json") == []

    def test_committed_history_journal(self):
        path = REPO_ROOT / "benchmarks" / "history.jsonl"
        assert validate_artifact(path) == []

    def test_fresh_history_append(self, tmp_path):
        bench = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
        path = append_history(tmp_path / "history.jsonl", bench)
        assert validate_artifact(path) == []

    def test_lint_artifacts_batches(self, tmp_path):
        paths = [write_manifest(tmp_path),
                 REPO_ROOT / "BENCH_core.json"]
        assert lint_artifacts(paths) == []


class TestBF601SchemaTag:
    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "thing.json"
        path.write_text(json.dumps({"schema": "mystery/9"}))
        findings = validate_artifact(path)
        assert "BF601" in rules_fired(findings)
        tagged = [f for f in findings if f.rule == "BF601"]
        assert "mystery/9" in tagged[0].message

    def test_missing_tag_unmatched_filename(self, tmp_path):
        path = tmp_path / "thing.json"
        path.write_text(json.dumps({"kernel": "vectorAdd"}))
        assert "BF601" in rules_fired(validate_artifact(path))

    def test_tagless_format_matched_by_filename(self, tmp_path):
        assert schema_for_path("some/dir/meta.json") is \
            SCHEMAS["repro-campaign-meta/1"]

    def test_mixed_tags_in_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("ok")
        with open(path, "a") as fh:
            line = dict(log.events[0].to_dict(), schema="repro-bench/1")
            fh.write(json.dumps(line) + "\n")
        assert "BF601" in rules_fired(validate_artifact(path))


class TestBF602MissingFields:
    def test_renamed_field_is_finding_not_exception(self, tmp_path):
        def rename(data):
            data["kern"] = data.pop("kernel")

        findings = validate_artifact(write_manifest(tmp_path, rename))
        fired = rules_fired(findings)
        assert "BF602" in fired and "BF603" in fired
        missing = [f for f in findings if f.rule == "BF602"]
        assert "kernel" in missing[0].message
        drift = [f for f in findings if f.rule == "BF603"]
        assert any("kern" in f.message for f in drift)

    def test_optional_fields_may_be_absent(self, tmp_path):
        def drop_optional(data):
            data.pop("checksums")
            data.pop("git_rev")

        path = write_manifest(tmp_path, drop_optional)
        assert validate_artifact(path) == []


class TestBF603Drift:
    def test_unknown_field_is_warning(self, tmp_path):
        def add(data):
            data["vibe"] = "good"

        findings = validate_artifact(write_manifest(tmp_path, add))
        assert [f.rule for f in findings] == ["BF603"]
        assert findings[0].severity == Severity.WARNING

    def test_type_mismatch_is_error(self, tmp_path):
        def mistype(data):
            data["n_runs"] = "three"

        findings = validate_artifact(write_manifest(tmp_path, mistype))
        assert [f.rule for f in findings] == ["BF603"]
        assert findings[0].severity == Severity.ERROR

    def test_bool_is_not_an_int(self, tmp_path):
        def boolify(data):
            data["seed"] = True

        findings = validate_artifact(write_manifest(tmp_path, boolify))
        assert [f.rule for f in findings] == ["BF603"]
        assert findings[0].severity == Severity.ERROR

    def test_nullable_fields_accept_null(self, tmp_path):
        def nullify(data):
            data["tag"] = None
            data["seed"] = None

        path = write_manifest(tmp_path, nullify)
        assert validate_artifact(path) == []


class TestBF604Parse:
    def test_invalid_json_document(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        findings = validate_artifact(path)
        assert rules_fired(findings) == {"BF604"}
        assert findings[0].severity == Severity.ERROR

    def test_torn_trailing_line_is_warning(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("ok")
        with open(path, "a") as fh:
            fh.write('{"schema": "repro-events/1", "kind": "tru')
        findings = [
            f for f in validate_artifact(path) if f.rule == "BF604"
        ]
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING

    def test_torn_mid_file_is_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("ok")
        good = path.read_text()
        path.write_text(good + '{"torn\n' + good)
        findings = [
            f for f in validate_artifact(path) if f.rule == "BF604"
        ]
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR


class TestBF605JournalStructure:
    def read_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        run_campaign(tmp_path, checkpoint=path)
        return path, path.read_text().splitlines()

    def test_entry_without_body_flagged(self, tmp_path):
        path, lines = self.read_checkpoint(tmp_path)
        path.write_text("\n".join(lines) + '\n{"index": 99}\n')
        assert "BF605" in rules_fired(validate_artifact(path))

    def test_entry_with_both_bodies_flagged(self, tmp_path):
        path, lines = self.read_checkpoint(tmp_path)
        entry = json.loads(lines[1])
        entry["quarantined"] = {"problem": [1], "error": "x"}
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        assert "BF605" in rules_fired(validate_artifact(path))

    def test_entry_lines_not_held_to_header_schema(self, tmp_path):
        # Journal entries carry no schema tag; only the header does.
        path, _lines = self.read_checkpoint(tmp_path)
        assert validate_artifact(path) == []


class TestReaderWiring:
    def test_manifest_from_json_names_rule(self, tmp_path):
        path = write_manifest(
            tmp_path, lambda d: d.update(kern=d.pop("kernel"))
        )
        with pytest.raises(ValueError, match="BF602"):
            Manifest.read(path)

    def test_manifest_round_trip_still_works(self, tmp_path):
        path = write_manifest(tmp_path)
        assert Manifest.read(path).kernel == "vectorAdd"

    def test_read_events_names_rule(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("ok")
        data = log.events[0].to_dict()
        del data["seq"]
        with open(path, "a") as fh:
            fh.write(json.dumps(data) + "\n")
        with pytest.raises(ValueError, match="BF602"):
            read_events(path)

    def test_read_events_round_trip_still_works(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path).emit("ok", n=1)
        events = read_events(path)
        assert len(events) == 1 and events[0].kind == "ok"

    def test_read_history_names_rule(self, tmp_path):
        bench = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
        path = append_history(tmp_path / "history.jsonl", bench)
        line = json.loads(path.read_text())
        del line["provenance"]
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match="BF602"):
            read_history(path)

    def test_repository_verify_reports_drift(self, tmp_path):
        repo = ProfileRepository(tmp_path / "repo")
        cdir = repo.save(run_campaign(tmp_path))
        meta_path = cdir / "meta.json"
        data = json.loads(meta_path.read_text())
        data["surprise"] = 1
        meta_path.write_text(json.dumps(data))
        findings = repo.verify(repo.keys()[0])
        assert any("BF603" in f and "legacy/drift" in f
                   for f in findings)

    def test_repository_verify_reports_renamed_field(self, tmp_path):
        repo = ProfileRepository(tmp_path / "repo")
        cdir = repo.save(run_campaign(tmp_path))
        manifest_path = cdir / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["kern"] = data.pop("kernel")
        manifest_path.write_text(json.dumps(data))
        findings = repo.verify(repo.keys()[0])
        assert any("BF602" in f and "corrupt" in f for f in findings)

    def test_intact_repository_verifies_clean(self, tmp_path):
        repo = ProfileRepository(tmp_path / "repo")
        repo.save(run_campaign(tmp_path))
        assert repo.verify(repo.keys()[0]) == []


class TestValidateFields:
    def test_clean_payload(self):
        manifest = build_manifest(
            kernel="k", arch="a", trace_records=[], metrics={},
        )
        data = json.loads(manifest.to_json())
        assert validate_fields(data, "repro-manifest/1") == []

    def test_unknown_tag(self):
        problems = validate_fields({}, "nope/1")
        assert problems and problems[0].startswith("BF601")

    def test_entry_specs_used_for_journal_entries(self):
        good = {"index": 0, "records": []}
        assert validate_fields(
            good, "repro-checkpoint/1", entry=True
        ) == []
        bad = {"records": []}
        problems = validate_fields(
            bad, "repro-checkpoint/1", entry=True
        )
        assert problems and problems[0].startswith("BF602")


class TestRepositoryV2Artifacts:
    """The formats added with the sharded layout all validate."""

    def _v2_repo(self, tmp_path):
        repo = ProfileRepository(tmp_path / "repo")
        cdir = repo.save(run_campaign(tmp_path))
        return repo, cdir

    def test_registered(self):
        for tag in ("repro-repo/1", "repro-matrix/1",
                    "repro-forest-state/1"):
            assert tag in SCHEMAS

    def test_repo_marker(self, tmp_path):
        repo, _ = self._v2_repo(tmp_path)
        assert validate_artifact(repo.root / "repo.json") == []

    def test_matrix_header(self, tmp_path):
        _, cdir = self._v2_repo(tmp_path)
        assert validate_artifact(cdir / "matrix.json") == []

    def test_forest_state(self, tmp_path):
        from repro.ml import fit_from_repo
        from repro.profiling.repository import CampaignKey

        repo, _ = self._v2_repo(tmp_path)
        state = tmp_path / "state.json"
        fit_from_repo(
            repo, CampaignKey("vectorAdd", "GTX580"),
            state_path=state, n_trees=3, seed=0,
        )
        assert validate_artifact(state) == []
