"""Sharded layout: shard routing, verify snapshots, stats, refusals.

A root that is not a layout-2 repository — a flat tree of campaign
directories, or a ``repo.json`` declaring another layout — is refused
with :class:`RepositoryIntegrityError` and left exactly as it was.
"""

import json
import os

import pytest

from repro.core.store import SHARD_DIR, shard_of
from repro.gpusim import GTX580
from repro.kernels import VectorAddKernel
from repro.profiling.campaign import Campaign
from repro.profiling.repository import (
    CampaignKey,
    ProfileRepository,
    RepositoryIntegrityError,
)

KEY = CampaignKey("vectorAdd", "GTX580")


@pytest.fixture(scope="module")
def campaign():
    return Campaign(VectorAddKernel(), GTX580, rng=0).run(
        problems=[1 << 14, 1 << 15], replicates=2
    )


def flatten(root):
    """Rewrite a repository as a flat tree: campaign dirs at the root."""
    for cdir in root.glob(f"{SHARD_DIR}/*/*"):
        if cdir.is_dir():
            os.replace(cdir, root / cdir.name)
    for bucket in (root / SHARD_DIR).glob("*"):
        for leftover in bucket.glob("*"):
            leftover.unlink()
        bucket.rmdir()
    (root / SHARD_DIR).rmdir()
    (root / "repo.json").unlink()


class TestShardedLayout:
    def test_new_repository_is_v2(self, tmp_path):
        ProfileRepository(tmp_path)
        marker = json.loads((tmp_path / "repo.json").read_text())
        assert marker == {"schema": "repro-repo/1", "layout": 2}

    def test_save_lands_in_hash_bucket(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        bucket = shard_of(KEY.dirname)
        assert cdir == tmp_path / SHARD_DIR / bucket / KEY.dirname
        assert (cdir / "runs.csv").is_file()
        assert (tmp_path / SHARD_DIR / bucket / "shard.json").is_file()

    def test_shard_manifest_tracks_campaign(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        manifest = json.loads(
            (tmp_path / SHARD_DIR / shard_of(KEY.dirname) / "shard.json")
            .read_text()
        )
        assert manifest["schema"] == "repro-shard/1"
        entry = manifest["campaigns"][KEY.dirname]
        assert entry["meta"]["kernel"] == "vectorAdd"
        assert "runs.csv" in entry["stat"]
        assert entry["verified"] is None  # fresh save: not yet verified

    def test_roundtrip_through_shards(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        assert repo.has(KEY)
        assert [k for k in repo.iter_keys()] == [KEY]
        loaded = repo.load(KEY)
        assert len(loaded) == len(campaign)

    def test_stats(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        s = repo.stats()
        assert s["layout"] == 2
        assert s["campaigns"] == 1
        assert s["runs"] == len(campaign)
        assert s["shards"]["used"] == 1
        assert s["shards"]["total"] == 256
        assert s["shards"]["max_fill"] == 1
        assert s["index"] == {"fresh": 1, "stale": 0, "missing": 0}


class TestVerifySnapshots:
    def test_clean_verify_records_snapshot(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        repo.save(campaign)
        assert repo.verify_all() == {KEY.dirname: []}
        manifest = json.loads(
            (tmp_path / SHARD_DIR / shard_of(KEY.dirname) / "shard.json")
            .read_text()
        )
        snap = manifest["campaigns"][KEY.dirname]["verified"]
        assert snap is not None and "runs.csv" in snap

    def test_mutation_invalidates_fast_path(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        assert repo.verify_all() == {KEY.dirname: []}
        data = (cdir / "runs.csv").read_bytes()
        (cdir / "runs.csv").write_bytes(data[:-10] + b"corrupted\n")
        findings = ProfileRepository(tmp_path).verify_all()
        assert KEY.dirname in findings
        assert any("corrupt" in f for f in findings[KEY.dirname])

    def test_full_ignores_snapshots(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        assert repo.verify_all() == {KEY.dirname: []}
        # Tamper while faking the recorded stat so the fast path would
        # be fooled; --full must still re-hash and catch it.
        st = (cdir / "runs.csv").stat()
        data = (cdir / "runs.csv").read_bytes()
        swapped = data.replace(b"0", b"1", 1)
        assert swapped != data and len(swapped) == len(data)
        (cdir / "runs.csv").write_bytes(swapped)
        os.utime(cdir / "runs.csv", ns=(st.st_atime_ns, st.st_mtime_ns))
        assert repo.verify_all() == {KEY.dirname: []}  # fast path fooled
        findings = repo.verify_all(full=True)
        assert any("corrupt" in f for f in findings[KEY.dirname])


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRefusals:
    def test_flat_tree_refused_and_untouched(self, campaign, tmp_path):
        ProfileRepository(tmp_path).save(campaign)
        flatten(tmp_path)
        before = _tree(tmp_path)
        with pytest.raises(RepositoryIntegrityError, match="layout-1"):
            ProfileRepository(tmp_path)
        assert _tree(tmp_path) == before
        assert not (tmp_path / "repo.json").exists()

    @pytest.mark.parametrize("layout", [1, 3, None])
    def test_marker_with_other_layout_refused(self, tmp_path, layout):
        marker = {"schema": "repro-repo/1", "layout": layout}
        (tmp_path / "repo.json").write_text(json.dumps(marker))
        before = _tree(tmp_path)
        with pytest.raises(RepositoryIntegrityError, match=f"layout {layout}"):
            ProfileRepository(tmp_path)
        assert _tree(tmp_path) == before


class TestQuarantineV2:
    def test_quarantine_moves_and_forgets(self, campaign, tmp_path):
        repo = ProfileRepository(tmp_path)
        cdir = repo.save(campaign)
        (cdir / "runs.csv").write_bytes(b"garbage\n")
        target = repo.quarantine(KEY)
        assert target == tmp_path / "_quarantine" / KEY.dirname
        assert target.is_dir()
        assert not repo.has(KEY)
        assert repo.verify_all() == {}
        manifest = json.loads(
            (tmp_path / SHARD_DIR / shard_of(KEY.dirname) / "shard.json")
            .read_text()
        )
        assert KEY.dirname not in manifest["campaigns"]
