"""Fit-registry behaviour: versioning, latest-resolution, integrity."""

import json

import numpy as np
import pytest

from repro.profiling import CampaignKey
from repro.serve import FitRegistry, RegistryIntegrityError

from .conftest import make_servable

KEY = CampaignKey("gemm", "volta")


class TestPublish:
    def test_layout(self, tmp_path, servable):
        reg = FitRegistry(tmp_path)
        ver = reg.publish(servable)
        vdir = tmp_path / ver.key.dirname / ver.version
        assert (vdir / "fit.json").exists()
        assert (vdir / "manifest.json").exists()
        assert (tmp_path / ver.key.dirname / "index.json").exists()

    def test_version_defaults_to_content_digest(self, tmp_path, servable):
        ver = FitRegistry(tmp_path).publish(servable)
        assert ver.version == servable.digest[:16]

    def test_version_prefers_campaign_manifest_digest(self, tmp_path):
        sv = make_servable()
        sv.source["campaign_manifest_sha256"] = "deadbeef" * 8
        ver = FitRegistry(tmp_path).publish(sv)
        assert ver.version == ("deadbeef" * 8)[:16]

    def test_manifest_records_payload_checksum(self, tmp_path, servable):
        reg = FitRegistry(tmp_path)
        ver = reg.publish(servable)
        manifest = json.loads(
            (tmp_path / ver.key.dirname / ver.version / "manifest.json")
            .read_text()
        )
        assert manifest["checksums"]["fit.json"] == servable.digest

    def test_republish_is_idempotent(self, tmp_path, servable):
        reg = FitRegistry(tmp_path)
        reg.publish(servable)
        reg.publish(servable)
        assert reg.versions(KEY) == [servable.digest[:16]]


class TestResolve:
    def test_latest_is_publish_order(self, tmp_path):
        reg = FitRegistry(tmp_path)
        first = reg.publish(make_servable(seed=0))
        second = reg.publish(make_servable(seed=9))
        assert reg.versions(KEY) == [first.version, second.version]
        assert reg.resolve_version(KEY) == second.version

    def test_explicit_version_loads_that_fit(self, tmp_path):
        reg = FitRegistry(tmp_path)
        first = reg.publish(make_servable(seed=0))
        reg.publish(make_servable(seed=9))
        loaded = reg.load(KEY, first.version)
        assert loaded.digest == first.digest

    def test_missing_campaign_raises(self, tmp_path):
        reg = FitRegistry(tmp_path)
        with pytest.raises(FileNotFoundError, match="no fit published"):
            reg.resolve_version(CampaignKey("nope", "never"))

    def test_has(self, registry):
        assert registry.has(KEY)
        assert not registry.has(CampaignKey("nope", "never"))

    def test_keys_lists_published_campaigns(self, tmp_path):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(kernel="a", arch="x"))
        reg.publish(make_servable(kernel="b", arch="y", tag="t"))
        keys = reg.keys()
        assert CampaignKey("a", "x") in keys
        assert CampaignKey("b", "y", "t") in keys


class TestIntegrity:
    def test_roundtrip_bit_identical(self, registry, servable, queries):
        loaded = registry.load(KEY)
        for q in queries:
            assert np.array_equal(loaded.predict(q), servable.predict(q))

    def test_tampered_artifact_refused(self, registry, servable):
        version = registry.resolve_version(KEY)
        fit_path = registry.root / KEY.dirname / version / "fit.json"
        fit_path.write_text(
            fit_path.read_text().replace('"volta"', '"turing"')
        )
        with pytest.raises(
            RegistryIntegrityError,
            match=r"BF610.*registry corrupt.*digest mismatch",
        ) as err:
            registry.load(KEY)
        assert "refused" in str(err.value)

    def test_truncated_artifact_refused(self, registry):
        version = registry.resolve_version(KEY)
        fit_path = registry.root / KEY.dirname / version / "fit.json"
        fit_path.write_text(fit_path.read_text()[: 100])
        with pytest.raises(RegistryIntegrityError, match="corrupt"):
            registry.load(KEY)

    def test_publish_crashed_before_manifest_refuses_explicit_load(
        self, tmp_path, servable, crash_before_rename
    ):
        # fit.json landed, manifest.json did not: the fit cannot be
        # checksummed, so loading it by explicit version is refused.
        reg = FitRegistry(tmp_path)
        with crash_before_rename("manifest.json"):
            with pytest.raises(OSError, match="simulated crash"):
                reg.publish(servable, version="v1")
        assert (tmp_path / KEY.dirname / "v1" / "fit.json").exists()
        with pytest.raises(
            RegistryIntegrityError, match="records no fit.json digest"
        ):
            reg.load(KEY, version="v1")

    def test_corrupt_index_refused(self, registry):
        (registry.root / KEY.dirname / "index.json").write_text("{nope")
        with pytest.raises(RegistryIntegrityError, match="corrupt"):
            registry.versions(KEY)

    def test_error_is_a_valueerror(self, registry):
        # Callers that already catch ValueError for repository corruption
        # handle registry corruption the same way.
        assert issubclass(RegistryIntegrityError, ValueError)

    def test_index_schema_tag_validates(self, registry):
        from repro.analysis import validate_artifact

        assert validate_artifact(
            registry.root / KEY.dirname / "index.json"
        ) == []


class TestRunStore:
    def test_registry_and_repository_satisfy_protocol(self, tmp_path):
        from repro.core import RunStore
        from repro.profiling.repository import ProfileRepository

        assert isinstance(FitRegistry(tmp_path / "reg"), RunStore)
        assert isinstance(ProfileRepository(tmp_path / "repo"), RunStore)

    def test_iter_keys_matches_keys(self, tmp_path):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(kernel="a", arch="x"))
        reg.publish(make_servable(kernel="b", arch="y"))
        by_dirname = lambda k: k.dirname  # noqa: E731
        assert sorted(reg.iter_keys(), key=by_dirname) == sorted(
            reg.keys(), key=by_dirname
        )


class TestVerify:
    def test_clean_registry_verifies_empty(self, registry):
        assert registry.verify(KEY) == []
        assert registry.verify_all() == {}

    def test_tamper_detected(self, registry):
        version = registry.resolve_version(KEY)
        fit_path = registry.root / KEY.dirname / version / "fit.json"
        fit_path.write_text(fit_path.read_text().replace('"volta"', '"x"'))
        findings = registry.verify_all()
        assert KEY.dirname in findings
        assert any("corrupt" in f for f in findings[KEY.dirname])

    def test_missing_fit_detected(self, registry):
        version = registry.resolve_version(KEY)
        (registry.root / KEY.dirname / version / "fit.json").unlink()
        findings = registry.verify(KEY)
        assert any("missing on disk" in f for f in findings)


class TestGc:
    def _publish_versions(self, tmp_path, n):
        reg = FitRegistry(tmp_path)
        versions = [
            reg.publish(make_servable(seed=i, trees=4)).version
            for i in range(n)
        ]
        return reg, versions

    def test_keep_latest_validated(self, tmp_path):
        reg = FitRegistry(tmp_path)
        with pytest.raises(ValueError, match="keep_latest"):
            reg.gc(keep_latest=0)

    def test_gc_drops_old_versions(self, tmp_path):
        reg, versions = self._publish_versions(tmp_path, 3)
        removed = reg.gc(keep_latest=1)
        assert removed == {KEY.dirname: versions[:-1]}
        assert reg.versions(KEY) == [versions[-1]]
        assert reg.resolve_version(KEY) == versions[-1]
        reg.load(KEY)  # survivor still loads clean
        for gone in versions[:-1]:
            assert not (reg.root / KEY.dirname / gone).exists()

    def test_gc_noop_when_under_budget(self, tmp_path):
        reg, versions = self._publish_versions(tmp_path, 2)
        assert reg.gc(keep_latest=5) == {}
        assert reg.versions(KEY) == versions
