"""Repository integrity: checksums, verify/quarantine, refusals."""

import hashlib
import json

import pytest

from repro.faults import FaultPlan, FaultSpec, fault_injection
from repro.gpusim import GTX580
from repro.kernels import VectorAddKernel
from repro.profiling import (
    Campaign,
    CampaignKey,
    ProfileRepository,
    RepositoryIntegrityError,
)
from repro.profiling import repository


@pytest.fixture(scope="module")
def result():
    kernel = VectorAddKernel()
    return Campaign(kernel, GTX580, rng=2).run(
        problems=kernel.default_sweep()[:3]
    )


def _flip_middle_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestChecksums:
    def test_clean_roundtrip_verifies(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        repo.save(result, seed=2)
        key = CampaignKey(result.kernel, result.arch)
        assert repo.verify(key) == []
        loaded = repo.load(key)
        assert len(loaded.records) == len(result.records)
        assert loaded.records[0].counters == result.records[0].counters

    def test_flipped_byte_in_data_fails_load(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(result)
        _flip_middle_byte(cdir / "runs.csv")
        key = CampaignKey(result.kernel, result.arch)
        with pytest.raises(RepositoryIntegrityError, match="corrupt"):
            repo.load(key)
        # Depending on where the byte lands the file is either invalid
        # UTF-8 or valid text with a wrong checksum; both are "corrupt".
        assert any("corrupt" in f for f in repo.verify(key))

    def test_corrupt_meta_fails_load(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(result)
        (cdir / "meta.json").write_text('{"kernel": "vecto')
        with pytest.raises(RepositoryIntegrityError, match="corrupt"):
            repo.load(CampaignKey(result.kernel, result.arch))

    def test_missing_data_file_fails_load(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(result)
        (cdir / "runs.csv").unlink()
        with pytest.raises(RepositoryIntegrityError, match="corrupt"):
            repo.load(CampaignKey(result.kernel, result.arch))

    def test_manifest_records_data_checksums(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        repo.save(result)
        manifest = repo.load_manifest(CampaignKey(result.kernel, result.arch))
        assert sorted(manifest.checksums) == ["meta.json", "runs.csv"]


class TestInjectedWriteFaults:
    def test_torn_write_is_caught_by_verify(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        plan = FaultPlan([
            FaultSpec("repository.write", "torn_file",
                      match={"file": "runs.csv"})
        ])
        with fault_injection(plan):
            repo.save(result)
        key = CampaignKey(result.kernel, result.arch)
        assert any("checksum mismatch" in f for f in repo.verify(key))
        with pytest.raises(RepositoryIntegrityError, match="corrupt"):
            repo.load(key)

    def test_corrupt_write_keeps_length_but_fails_checksum(
        self, tmp_path, result
    ):
        repo = ProfileRepository(tmp_path)
        plan = FaultPlan([
            FaultSpec("repository.write", "corrupt_file",
                      match={"file": "runs.csv"})
        ])
        with fault_injection(plan):
            cdir = repo.save(result)
        clean_len = len(
            ProfileRepository(tmp_path / "clean").save(result)
            .joinpath("runs.csv").read_bytes()
        )
        assert len((cdir / "runs.csv").read_bytes()) == clean_len
        assert any(
            "checksum mismatch" in f
            for f in repo.verify(CampaignKey(result.kernel, result.arch))
        )


class TestQuarantine:
    def test_quarantine_moves_damage_aside(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(result)
        _flip_middle_byte(cdir / "runs.csv")
        key = CampaignKey(result.kernel, result.arch)
        moved = repo.quarantine(key)
        assert moved.parent.name == "_quarantine"
        assert (moved / "runs.csv").exists()  # evidence preserved
        assert not repo.has(key)
        assert repo.list_campaigns() == []
        assert repo.verify_all() == {}  # quarantine area is skipped
        with pytest.raises(FileNotFoundError):
            repo.load(key)

    def test_quarantine_dedupes_repeat_offenders(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        key = CampaignKey(result.kernel, result.arch)
        repo.save(result)
        first = repo.quarantine(key)
        repo.save(result)
        second = repo.quarantine(key)
        assert first != second and second.name.endswith(".1")

    def test_quarantine_missing_campaign_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ProfileRepository(tmp_path).quarantine(CampaignKey("k", "a"))


def _torn_save(repo, result, tag, monkeypatch):
    """Save, crashing just before ``manifest.json`` is written."""
    real = repository._atomic_write

    def crash_at_manifest(path, text, campaign):
        if path.name == "manifest.json":
            raise OSError("simulated crash before the manifest landed")
        real(path, text, campaign)

    with monkeypatch.context() as patch:
        patch.setattr(repository, "_atomic_write", crash_at_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            repo.save(result, tag=tag)
    return CampaignKey(result.kernel, result.arch, tag=tag)


class TestRefusals:
    def test_torn_save_refuses_load(self, tmp_path, result, monkeypatch):
        repo = ProfileRepository(tmp_path)
        key = _torn_save(repo, result, "torn", monkeypatch)
        assert repo.has(key)
        with pytest.raises(RepositoryIntegrityError, match="manifest.json"):
            repo.load(key)
        with pytest.raises(RepositoryIntegrityError, match="manifest.json"):
            repo.load_manifest(key)
        with pytest.raises(RepositoryIntegrityError, match="manifest.json"):
            repo.manifest_digest(key)
        # Damage, not drift: `repro repo verify` exits 1 on it.
        findings = repo.verify(key)
        assert f"{key.dirname}/manifest.json: missing (no checksums to " \
            "verify)" in findings
        assert not any("legacy" in f for f in findings)

    def test_torn_save_refuses_append(self, tmp_path, result, monkeypatch):
        repo = ProfileRepository(tmp_path)
        key = _torn_save(repo, result, "torn", monkeypatch)
        runs = next(tmp_path.glob(f"shards/*/{key.dirname}/runs.csv"))
        before = runs.read_bytes()
        with pytest.raises(RepositoryIntegrityError, match="manifest.json"):
            repo.append(result, key=key)
        assert runs.read_bytes() == before

    def test_meta_missing_key_refused(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(result, tag="short-meta")
        meta = json.loads((cdir / "meta.json").read_text())
        del meta["family"]
        meta_text = json.dumps(meta, indent=2)
        (cdir / "meta.json").write_text(meta_text)
        # Re-seal the manifest so only the missing key is wrong.
        manifest = json.loads((cdir / "manifest.json").read_text())
        manifest["checksums"]["meta.json"] = hashlib.sha256(
            meta_text.encode()
        ).hexdigest()
        (cdir / "manifest.json").write_text(json.dumps(manifest))
        key = CampaignKey(result.kernel, result.arch, tag="short-meta")
        with pytest.raises(RepositoryIntegrityError, match="'family'"):
            repo.load(key)
        with pytest.raises(RepositoryIntegrityError, match="'family'"):
            repo.append(result, key=key)

    def test_list_campaigns_skips_unparsable_meta(self, tmp_path, result):
        repo = ProfileRepository(tmp_path)
        repo.save(result, tag="good")
        bad = repo.save(result, tag="bad")
        (bad / "meta.json").write_text("{broken")
        with pytest.warns(RuntimeWarning, match="skipping campaign"):
            metas = repo.list_campaigns()
        assert [m["tag"] for m in metas] == ["good"]
