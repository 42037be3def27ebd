"""CLI tests for the chaos harness and repository verification."""

import json

import pytest

from repro.cli import main


def _flip_middle_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestChaosCommand:
    def test_requires_some_fault(self):
        with pytest.raises(SystemExit, match="no faults configured"):
            main(["chaos", "vectorAdd"])

    def test_campaign_survives_partial_faults(self, capsys):
        rc = main([
            "chaos", "vectorAdd", "--sizes",
            "16384,32768,65536,131072",
            "--launch-rate", "0.4", "--seed", "3", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_records"] + payload["n_quarantined"] == 4
        assert payload["n_records"] > 0
        assert payload["faults_fired"]

    def test_quarantine_set_is_njobs_invariant(self, capsys):
        argv = ["chaos", "vectorAdd", "--sizes",
                "16384,32768,65536,131072",
                "--launch-rate", "0.4", "--seed", "3", "--format", "json"]
        main(argv)
        serial = json.loads(capsys.readouterr().out)
        main(argv + ["--jobs", "3"])
        parallel = json.loads(capsys.readouterr().out)
        assert serial["quarantined"] == parallel["quarantined"]
        assert serial["n_records"] == parallel["n_records"]

    def test_total_loss_exits_nonzero(self, capsys):
        rc = main([
            "chaos", "vectorAdd", "--sizes", "16384,32768",
            "--launch-rate", "1.0", "--retries", "1",
        ])
        assert rc == 1

    def test_transient_faults_recovered_by_retries(self, capsys):
        rc = main([
            "chaos", "vectorAdd", "--sizes", "16384,32768",
            "--launch-rate", "1.0", "--transient", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_quarantined"] == 0
        assert payload["faults_fired"] == {"profiler.launch:raise": 2}

    def test_plan_file_and_save_to(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 0,
            "specs": [{"site": "repository.write", "mode": "torn_file",
                       "match": {"file": "runs.csv"}}],
        }))
        rc = main([
            "chaos", "vectorAdd", "--sizes", "16384,32768",
            "--plan", str(plan), "--save-to", str(tmp_path / "repo"),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("corrupt" in f for f in payload["repository_findings"])

    def test_bad_plan_file_rejected(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([{"site": "nowhere", "mode": "raise"}]))
        with pytest.raises(SystemExit, match="bad fault plan"):
            main(["chaos", "vectorAdd", "--plan", str(plan)])


class TestRepoCommand:
    def _populate_clean(self, root) -> None:
        # chaos requires a fault; build the repo through the library.
        from repro.gpusim import GTX580
        from repro.kernels import VectorAddKernel
        from repro.profiling import Campaign, ProfileRepository

        kernel = VectorAddKernel()
        result = Campaign(kernel, GTX580, rng=0).run(
            problems=kernel.default_sweep()[:2]
        )
        ProfileRepository(root).save(result)

    def test_list_and_verify_clean(self, tmp_path, capsys):
        self._populate_clean(tmp_path)
        assert main(["repo", "list", str(tmp_path)]) == 0
        assert "vectorAdd" in capsys.readouterr().out
        assert main(["repo", "verify", str(tmp_path)]) == 0
        assert "0 damaged" in capsys.readouterr().out

    def test_verify_flags_damage(self, tmp_path, capsys):
        self._populate_clean(tmp_path)
        cdir = next(tmp_path.glob("shards/*/*/runs.csv")).parent
        _flip_middle_byte(cdir / "runs.csv")
        assert main(["repo", "verify", str(tmp_path)]) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_verify_quarantine_moves_damage(self, tmp_path, capsys):
        self._populate_clean(tmp_path)
        cdir = next(tmp_path.glob("shards/*/*/runs.csv")).parent
        _flip_middle_byte(cdir / "runs.csv")
        assert main(["repo", "verify", str(tmp_path), "--quarantine"]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert not cdir.exists()
        assert (tmp_path / "_quarantine" / cdir.name).is_dir()
        # A second verify over the now-empty root is clean.
        assert main(["repo", "verify", str(tmp_path)]) == 0

    def test_missing_manifest_is_damage(self, tmp_path, capsys):
        self._populate_clean(tmp_path)
        cdir = next(tmp_path.glob("shards/*/*/manifest.json")).parent
        (cdir / "manifest.json").unlink()
        assert main(["repo", "verify", str(tmp_path)]) == 1
        assert "DAMAGED" in capsys.readouterr().out
        assert main(["repo", "verify", str(tmp_path), "--quarantine"]) == 0
        assert (tmp_path / "_quarantine" / cdir.name).is_dir()
        assert main(["repo", "verify", str(tmp_path)]) == 0


class TestRepoStats:
    def test_flat_tree_refused(self, tmp_path):
        from tests.profiling.test_repository_v2 import flatten

        TestRepoCommand()._populate_clean(tmp_path)
        flatten(tmp_path)
        with pytest.raises(SystemExit, match="layout-1"):
            main(["repo", "stats", str(tmp_path)])

    def test_stats_json(self, tmp_path, capsys):
        TestRepoCommand()._populate_clean(tmp_path)
        assert main(["repo", "stats", str(tmp_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"] == 2
        assert payload["campaigns"] == 1
        assert payload["index"]["fresh"] == 1

    def test_verify_full_flag(self, tmp_path, capsys):
        TestRepoCommand()._populate_clean(tmp_path)
        assert main(["repo", "verify", str(tmp_path), "--full"]) == 0
        assert "0 damaged" in capsys.readouterr().out
