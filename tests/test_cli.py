"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "reduce1"])
        assert args.arch == "GTX580"
        assert args.response == "time"
        assert args.repeats == 3

    def test_predict_requires_sizes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "matrixMul"])


class TestCommands:
    def test_list_kernels(self, capsys):
        assert main(["list-kernels"]) == 0
        out = capsys.readouterr().out
        assert "reduce1" in out
        assert "matrixMul" in out
        assert "needleman-wunsch" in out

    def test_list_archs(self, capsys):
        assert main(["list-archs"]) == 0
        out = capsys.readouterr().out
        assert "GTX580" in out and "K20m" in out
        assert "mbw" in out

    def test_profile(self, capsys):
        assert main(["profile", "vectorAdd", "65536"]) == 0
        out = capsys.readouterr().out
        assert "gld_request" in out
        assert "execution time" in out

    def test_profile_kepler_reports_power(self, capsys):
        assert main(["profile", "vectorAdd", "65536", "--arch", "K20m"]) == 0
        out = capsys.readouterr().out
        assert "average power" in out

    def test_analyze_small(self, capsys):
        rc = main([
            "analyze", "reduce2", "--sizes",
            ",".join(str(1 << p) for p in range(14, 23)),
            "--replicates", "2", "--trees", "40", "--repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Variable importance" in out
        assert "bottleneck" in out

    def test_predict_small(self, capsys):
        rc = main([
            "predict", "vectorAdd", "--sizes", "100000,400000",
            "--trees", "40", "--replicates", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted time" in out
        assert "ms" in out

    def test_unknown_kernel_exits(self):
        with pytest.raises(SystemExit, match="unknown kernel"):
            main(["profile", "nonexistent", "100"])

    def test_unknown_arch_exits(self):
        with pytest.raises(SystemExit, match="unknown architecture"):
            main(["profile", "vectorAdd", "100", "--arch", "RTX9090"])

    def test_bad_sizes_exit(self):
        with pytest.raises(SystemExit, match="could not parse"):
            main(["predict", "vectorAdd", "--sizes", "abc"])


SMALL_ANALYZE = [
    "analyze", "reduce2", "--sizes",
    ",".join(str(1 << p) for p in range(14, 22)),
    "--trees", "30", "--repeats", "1",
]


class TestJsonFormat:
    def test_list_kernels_json(self, capsys):
        assert main(["list-kernels", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {k["kernel"] for k in data["kernels"]}
        assert {"reduce1", "matrixMul"} <= names

    def test_list_archs_json(self, capsys):
        assert main(["list-archs", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_name = {a["arch"]: a for a in data["archs"]}
        assert "GTX580" in by_name
        assert "mbw" in by_name["GTX580"]["machine_metrics"]

    def test_profile_json(self, capsys):
        assert main(["profile", "vectorAdd", "65536",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel"] == "vectorAdd"
        assert data["time_s"] > 0
        assert "gld_request" in data["counters"]

    def test_analyze_json(self, capsys):
        assert main(SMALL_ANALYZE + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel"] == "reduce2"
        assert data["bottlenecks"]
        assert "trace" not in data

    def test_predict_json(self, capsys):
        assert main([
            "predict", "vectorAdd", "--sizes", "100000,400000",
            "--trees", "30", "--replicates", "2", "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [p["size"] for p in data["predictions"]] == [100000, 400000]
        assert all(p["predicted_time_s"] > 0 for p in data["predictions"])


class TestTracing:
    def test_analyze_trace_json_has_span_tree(self, capsys):
        assert main(SMALL_ANALYZE + [
            "--jobs", "2", "--trace", "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in data["trace"]["spans"]]
        # the acceptance tree: campaign fan-out (merged children),
        # per-problem profiling, and the forest fit
        assert "campaign.run" in names
        assert names.count("profile") == 8
        assert "forest.fit" in names
        assert "blackforest.fit" in names
        # worker spans were merged in from child processes
        pids = {s["pid"] for s in data["trace"]["spans"]}
        assert len(pids) > 1
        assert data["trace"]["chrome_trace"]
        assert data["metrics"]["counter"]

    def test_analyze_trace_text_appends_tree(self, capsys):
        assert main(SMALL_ANALYZE + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out
        assert "profile" in out

    def test_trace_wrapper_text(self, capsys):
        assert main(["trace", "profile", "vectorAdd", "65536"]) == 0
        out = capsys.readouterr().out
        assert "gpusim.launch" in out

    def test_trace_wrapper_json_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main([
            "trace", "--format", "json", "--out", str(out_file),
            "profile", "vectorAdd", "65536",
        ]) == 0
        data = json.loads(out_file.read_text())
        assert {"command", "spans", "chrome_trace", "metrics"} <= set(data)
        assert any(s["name"] == "profile" for s in data["spans"])

    def test_trace_out_crash_keeps_previous_file(
        self, tmp_path, capsys, crash_before_rename
    ):
        out_file = tmp_path / "trace.json"
        out_file.write_text("previous trace\n")
        with crash_before_rename("trace.json"):
            with pytest.raises(OSError, match="simulated crash"):
                main(["trace", "--out", str(out_file),
                      "profile", "vectorAdd", "65536"])
        assert out_file.read_text() == "previous trace\n"

    def test_trace_wrapper_rejects_nesting(self):
        with pytest.raises(SystemExit, match="nest"):
            main(["trace", "trace", "profile", "vectorAdd", "65536"])

    def test_trace_wrapper_requires_command(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestNormalizedFlags:
    """--seed / --jobs / --format are uniform across subcommands."""

    @pytest.mark.parametrize("argv", [
        ["profile", "k", "1"],
        ["analyze", "k"],
        ["predict", "k", "--sizes", "1"],
        ["transfer", "k"],
    ])
    def test_seed_everywhere(self, argv):
        args = build_parser().parse_args(argv + ["--seed", "9"])
        assert args.seed == 9

    @pytest.mark.parametrize("argv", [
        ["analyze", "k"],
        ["predict", "k", "--sizes", "1"],
        ["transfer", "k"],
    ])
    def test_jobs_on_sweep_commands(self, argv):
        args = build_parser().parse_args(argv + ["--jobs", "4"])
        assert args.jobs == 4

    @pytest.mark.parametrize("argv", [
        ["list-kernels"],
        ["list-archs"],
        ["profile", "k", "1"],
        ["analyze", "k"],
        ["predict", "k", "--sizes", "1"],
        ["transfer", "k"],
        ["lint"],
        ["bench"],
    ])
    def test_format_everywhere(self, argv):
        args = build_parser().parse_args(argv + ["--format", "json"])
        assert args.format == "json"


class TestReportCommand:
    ARGS = [
        "report", "vectorAdd", "--sizes", "16384,65536,262144,1048576",
        "--replicates", "2", "--trees", "20", "--repeats", "2",
    ]

    def test_text_report_to_stdout(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "=== Bottleneck report: vectorAdd on GTX580 ===" in out
        assert "--- Fit quality ---" in out
        assert "--- Importance stability ---" in out
        assert "--- Event timeline ---" in out  # live run captures events

    def test_html_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(self.ARGS + ["--format", "html", "--out", str(out)]) == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert str(out) in capsys.readouterr().err

    def test_out_crash_keeps_previous_report(
        self, tmp_path, capsys, crash_before_rename
    ):
        out = tmp_path / "report.md"
        out.write_text("previous report\n")
        with crash_before_rename("report.md"):
            with pytest.raises(OSError, match="simulated crash"):
                main(self.ARGS + ["--format", "md", "--out", str(out)])
        assert out.read_text() == "previous report\n"

    def test_trace_flag_adds_hot_path_section(self, capsys):
        assert main(self.ARGS + ["--trace"]) == 0
        assert "Hot paths (span self-time)" in capsys.readouterr().out

    def test_report_from_saved_repository(self, tmp_path, capsys):
        from repro import GTX580, Campaign
        from repro.kernels import VectorAddKernel
        from repro.profiling import ProfileRepository

        campaign = Campaign(VectorAddKernel(), GTX580, rng=0).run(
            problems=[1 << 14, 1 << 16, 1 << 18, 1 << 20], replicates=2
        )
        ProfileRepository(tmp_path).save(campaign, tag="t1")
        code = main([
            "report", "vectorAdd", "--repo", str(tmp_path), "--tag", "t1",
            "--trees", "20", "--repeats", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bottleneck report: vectorAdd on GTX580" in out

    def test_missing_repo_campaign_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load"):
            main([
                "report", "vectorAdd", "--repo", str(tmp_path),
            ])

    def test_markdown_format(self, capsys):
        assert main(self.ARGS + ["--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "# Bottleneck report: vectorAdd on GTX580" in out
        assert "| rank | predictor |" in out


IDENTITY_COMMANDS = {
    "analyze": [
        "analyze", "reduce2", "--sizes",
        ",".join(str(1 << p) for p in range(14, 20)),
        "--trees", "10", "--repeats", "1",
    ],
    # Needleman-Wunsch profiles through the batched launch path.
    "analyze-nw": [
        "analyze", "needleman-wunsch", "--sizes",
        ",".join(str(64 * k) for k in range(1, 17)),
        "--trees", "30", "--repeats", "1",
    ],
    "predict": [
        "predict", "vectorAdd", "--sizes", "100000,400000",
        "--trees", "10", "--replicates", "2",
    ],
    "transfer": [
        "transfer", "transpose-naive", "--replicates", "1", "--trees", "10",
    ],
}


class TestOutputIdentity:
    """The JSON result is a function of the inputs alone: the worker
    count and tracing change no byte of it."""

    @staticmethod
    def _json_out(capsys, argv):
        assert main(argv + ["--format", "json"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(IDENTITY_COMMANDS))
    def test_jobs_and_trace_leave_output_identical(self, capsys, command):
        argv = IDENTITY_COMMANDS[command]
        serial = self._json_out(capsys, argv + ["--jobs", "1"])
        assert self._json_out(capsys, argv + ["--jobs", "4"]) == serial
        traced = json.loads(self._json_out(capsys, argv + ["--trace"]))
        assert set(traced) - set(json.loads(serial)) == {"trace", "metrics"}
        del traced["trace"], traced["metrics"]
        assert json.dumps(traced, indent=2) + "\n" == serial
