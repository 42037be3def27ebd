"""Tests for the structured on-disk repository."""

import pytest

from repro.gpusim import GTX580
from repro.kernels import VectorAddKernel
from repro.profiling.campaign import Campaign, CampaignResult
from repro.profiling.repository import (
    CampaignKey,
    ProfileRepository,
    RepositoryIntegrityError,
)

KEY = CampaignKey("vectorAdd", "GTX580")


@pytest.fixture()
def campaign():
    return Campaign(VectorAddKernel(), GTX580, rng=0).run(
        problems=[1 << 14, 1 << 15], replicates=2
    )


class TestCampaignKey:
    def test_dirname_sanitizes(self):
        key = CampaignKey("mat mul/2", "GTX 580", tag="a:b")
        assert key.dirname == "mat_mul_2__GTX_580__a_b"

    def test_requires_kernel_and_arch(self):
        with pytest.raises(ValueError):
            CampaignKey("", "GTX580")
        with pytest.raises(ValueError):
            CampaignKey("vectorAdd", "")

    def test_hashable_and_frozen(self):
        assert CampaignKey("k", "a") == CampaignKey("k", "a")
        assert len({CampaignKey("k", "a"), CampaignKey("k", "a")}) == 1
        with pytest.raises(Exception):
            CampaignKey("k", "a").kernel = "other"


class TestRoundtrip:
    def test_save_and_load(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        loaded = repo.load(KEY)
        assert len(loaded) == len(campaign)
        assert loaded.kernel == campaign.kernel
        assert loaded.family == "fermi"

    def test_values_bit_exact(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        loaded = repo.load(KEY)
        for orig, back in zip(campaign.records, loaded.records):
            assert back.time_s == orig.time_s
            assert back.problem == orig.problem
            assert back.counters == orig.counters
            assert back.machine == orig.machine

    def test_matrix_identical_after_roundtrip(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        loaded = repo.load(KEY)
        X1, y1, n1 = campaign.matrix()
        X2, y2, n2 = loaded.matrix()
        assert n1 == n2
        assert (X1 == X2).all()
        assert (y1 == y2).all()

    def test_tagging(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        tagged = CampaignKey("vectorAdd", "GTX580", tag="trial1")
        repo.save(campaign, key=tagged)
        assert repo.has(tagged)
        assert not repo.has(KEY)
        loaded = repo.load(tagged)
        assert len(loaded) == len(campaign)

    def test_save_with_explicit_key_and_extra_tag_rejected(
        self, campaign, tmp_path
    ):
        repo = ProfileRepository(tmp_path)
        with pytest.raises(TypeError):
            repo.save(campaign, tag="t", key=KEY)


class TestManifest:
    def test_save_writes_manifest(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign, seed=7, config={"replicates": 2})
        assert (cdir / "manifest.json").exists()
        manifest = repo.load_manifest(KEY)
        assert manifest is not None
        assert manifest.kernel == "vectorAdd"
        assert manifest.arch == "GTX580"
        assert manifest.seed == 7
        assert manifest.config == {"replicates": 2}
        assert manifest.n_runs == len(campaign)

    def test_manifest_missing_refused(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        (cdir / "manifest.json").unlink()
        with pytest.raises(RepositoryIntegrityError, match="missing"):
            repo.load_manifest(KEY)

    def test_keys_lists_stored_campaigns(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        repo.save(campaign, key=CampaignKey("vectorAdd", "GTX580", tag="t2"))
        keys = repo.keys()
        assert KEY in keys
        assert CampaignKey("vectorAdd", "GTX580", tag="t2") in keys


class TestManagement:
    def test_list_campaigns(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        metas = repo.list_campaigns()
        assert len(metas) == 1
        assert metas[0]["kernel"] == "vectorAdd"
        assert metas[0]["n_runs"] == 4

    def test_missing_campaign_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ProfileRepository(tmp_path).load(CampaignKey("nothing", "here"))

    def test_refuses_empty_campaign(self, tmp_path):
        empty = CampaignResult(kernel="k", arch="x", family="fermi")
        with pytest.raises(ValueError):
            ProfileRepository(tmp_path).save(empty)

    def test_overwrite_replaces(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        shorter = CampaignResult(
            kernel=campaign.kernel, arch=campaign.arch,
            family=campaign.family, records=campaign.records[:2],
        )
        repo.save(shorter)
        assert len(repo.load(KEY)) == 2

    def test_creates_root_directory(self, tmp_path):
        root = tmp_path / "deep" / "repo"
        ProfileRepository(root)
        assert root.is_dir()

    def test_corruption_detected(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        # truncate the CSV: drop the last data row
        data = (cdir / "runs.csv").read_text().rstrip("\n").splitlines()
        (cdir / "runs.csv").write_text("\n".join(data[:-1]) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            repo.load(KEY)
