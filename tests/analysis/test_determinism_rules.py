"""Tests for the determinism sanitizer (BF401-BF405)."""

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_determinism, lint_determinism_file
from repro.analysis.determinism import (
    ALLOWLIST_PATH,
    AllowlistEntry,
    apply_allowlist,
    load_allowlist,
    pipeline_modules,
)
from repro.analysis.findings import run_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint_snippet(code, path="src/repro/core/model.py"):
    tree = ast.parse(textwrap.dedent(code))
    return run_rules("determinism", tree, path)


def rules_fired(code, path="src/repro/core/model.py"):
    return {f.rule for f in lint_snippet(code, path)}


def fixture_findings(name):
    return lint_determinism_file(FIXTURES / name)


class TestBF401UnseededRandom:
    def test_stdlib_random_flagged(self):
        findings = fixture_findings("unseeded_random.py")
        stdlib = [f for f in findings if "stdlib random" in f.message]
        assert len(stdlib) == 2
        assert all(f.rule == "BF401" for f in stdlib)

    def test_numpy_global_state_flagged(self):
        findings = fixture_findings("unseeded_random.py")
        legacy = [f for f in findings if "RandomState" in f.message]
        assert len(legacy) == 2

    def test_bare_default_rng_flagged(self):
        findings = fixture_findings("unseeded_random.py")
        bare = [f for f in findings if "default_rng" in f.message]
        assert len(bare) == 1
        assert bare[0].context["qualname"] == "entropy_seeded"

    def test_seeded_generator_is_clean(self):
        code = """
        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal()
        """
        assert rules_fired(code) == set()

    def test_generator_methods_are_clean(self):
        assert rules_fired("x = rng.shuffle(items)") == set()

    def test_line_numbers_in_subject(self):
        findings = lint_snippet("\nimport random\nx = random.random()")
        assert findings[0].subject.endswith(":3")


class TestBF402WallClock:
    def test_wall_clock_flagged(self):
        findings = fixture_findings("wall_clock.py")
        assert [f.rule for f in findings] == ["BF402", "BF402"]
        assert all(f.context["qualname"] == "measure_badly"
                   for f in findings)

    def test_monotonic_clocks_clean(self):
        code = """
        def elapsed(fn):
            t0 = time.monotonic()
            fn()
            return time.perf_counter() - t0
        """
        assert rules_fired(code) == set()

    def test_datetime_time_not_confused(self):
        assert rules_fired("t = obj.time()") == set()


class TestBF403SetIteration:
    def test_fixture_fires_three_times(self):
        findings = fixture_findings("set_iteration.py")
        assert [f.rule for f in findings] == ["BF403"] * 3
        assert all(f.context["qualname"] == "order_dependent"
                   for f in findings)

    def test_for_over_set_literal(self):
        code = """
        for item in {"a", "b"}:
            emit(item)
        """
        assert rules_fired(code) == {"BF403"}

    def test_sorted_set_is_clean(self):
        assert rules_fired("out = sorted({x for x in xs})") == set()

    def test_sum_over_set_genexp_is_clean(self):
        assert rules_fired("n = sum(f(x) for x in set(xs))") == set()

    def test_list_of_set_call_flagged(self):
        assert rules_fired("out = list(set(xs))") == {"BF403"}

    def test_set_method_chain_flagged(self):
        code = """
        for k in set(a).union(b):
            emit(k)
        """
        assert rules_fired(code) == {"BF403"}


class TestBF404RawWrites:
    @pytest.mark.parametrize("package", ["obs", "ml"])
    def test_persistence_fixture_flagged(self, package):
        source = (FIXTURES / "obs" / "raw_writes.py").read_text()
        findings = lint_snippet(source, f"src/repro/{package}/raw_writes.py")
        assert [f.rule for f in findings] == ["BF404", "BF404"]
        messages = " ".join(f.message for f in findings)
        assert "open" in messages and "write_text" in messages

    def test_read_open_is_clean(self):
        code = "fh = open(path)"
        assert rules_fired(code, "src/repro/obs/log.py") == set()

    @pytest.mark.parametrize("module", ["cli.py", "bench.py", "viz/html.py"])
    def test_write_outside_old_persistence_dirs_flagged(self, module):
        code = "fh = open(path, 'w')\nPath(path).write_text(text)"
        findings = lint_snippet(code, f"src/repro/{module}")
        assert [f.rule for f in findings] == ["BF404", "BF404"]

    def test_atomic_write_outside_old_persistence_dirs_clean(self):
        code = """
        from repro.io import atomic_write
        atomic_write(path, text)
        with open(path) as fh:
            fh.read()
        """
        assert rules_fired(code, "src/repro/cli.py") == set()

    def test_durable_io_module_exempt(self):
        code = "fh = open(tmp, 'wb')"
        assert rules_fired(code, "src/repro/io.py") == set()
        # Only the package's own durable writer, not any module named io.
        assert rules_fired(code, "src/repro/core/io.py") == {"BF404"}

    def test_pass_covers_modules_off_the_pipeline(self, tmp_path):
        root = tmp_path / "repro"
        (root / "ml").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "ml" / "forest.py").write_text("x = 1\n")
        (root / "cli.py").write_text(
            "import time\nt = time.time()\nopen(path, 'w')\n"
        )
        findings = lint_determinism(root, allowlist=None)
        # BF404 reaches the unreachable CLI; BF402 (clocks) does not.
        assert [(f.rule, Path(f.subject.split(":")[0]).name)
                for f in findings] == [("BF404", "cli.py")]

    def test_mode_keyword_detected(self):
        code = "fh = open(path, mode='w')"
        assert rules_fired(code, "src/repro/profiling/repository.py") \
            == {"BF404"}

    def test_append_mode_flag_not_required(self):
        # "a" appends — torn-tail risk is handled by the journal reader,
        # only full rewrites ("w") must be atomic.
        code = "fh = open(path, 'a')"
        assert rules_fired(code, "src/repro/obs/log.py") == set()


class TestBF405RogueMultiprocessing:
    def test_fixture_flags_both_import_forms(self):
        findings = fixture_findings("rogue_pool.py")
        assert [f.rule for f in findings] == ["BF405", "BF405"]

    def test_repro_parallel_is_exempt(self):
        code = "from concurrent.futures import ProcessPoolExecutor"
        assert rules_fired(code, "src/repro/parallel.py") == set()

    def test_other_modules_flagged(self):
        code = "import multiprocessing"
        assert rules_fired(code, "src/repro/ml/forest.py") == {"BF405"}

    def test_unrelated_imports_clean(self):
        assert rules_fired("import itertools\nimport json") == set()


class TestCleanFixture:
    def test_clean_module_has_no_findings(self):
        assert fixture_findings("clean_module.py") == []


class TestPipelineReachability:
    def test_entry_points_and_their_imports_in_scope(self):
        modules = {p.name for p in pipeline_modules()}
        assert {"campaign.py", "forest.py", "parallel.py",
                "model.py"} <= modules

    def test_frontends_out_of_scope(self):
        modules = {p.name for p in pipeline_modules()}
        assert "cli.py" not in modules
        assert "bench.py" not in modules


class TestAllowlist:
    def test_packaged_allowlist_is_small_and_justified(self):
        entries = load_allowlist()
        assert 0 < len(entries) <= 10
        for entry in entries:
            assert len(entry.justification) > 10, entry

    def test_no_stale_entries(self):
        # Every allowlist entry must still suppress at least one raw
        # finding, or it is dead weight hiding future regressions.
        raw = lint_determinism(allowlist=None)
        for entry in load_allowlist():
            assert any(entry.matches(f) for f in raw), \
                f"stale allowlist entry: {entry}"

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "allowlist.txt"
        bad.write_text("BF402 some/path.py\n")
        with pytest.raises(ValueError, match="allowlist entries"):
            load_allowlist(bad)

    def test_missing_justification_rejected(self, tmp_path):
        bad = tmp_path / "allowlist.txt"
        bad.write_text("BF402 some/path.py func —\n")
        with pytest.raises(ValueError):
            load_allowlist(bad)

    def test_comments_and_blanks_skipped(self, tmp_path):
        lst = tmp_path / "allowlist.txt"
        lst.write_text("# header\n\nBF402 a/b.py fn — because reasons\n")
        entries = load_allowlist(lst)
        assert len(entries) == 1
        assert entries[0].qualname == "fn"

    def test_wildcard_qualname_matches_everything(self):
        findings = fixture_findings("wall_clock.py")
        entry = AllowlistEntry("BF402", "fixtures/wall_clock.py", "*",
                               "test")
        assert apply_allowlist(findings, [entry]) == []

    def test_qualname_must_match(self):
        findings = fixture_findings("wall_clock.py")
        entry = AllowlistEntry("BF402", "fixtures/wall_clock.py",
                               "other_function", "test")
        assert apply_allowlist(findings, [entry]) == findings


class TestSelfHosting:
    def test_shipped_pipeline_is_clean(self):
        assert lint_determinism() == []

    def test_raw_findings_exist_and_are_all_allowlisted(self):
        raw = lint_determinism(allowlist=None)
        assert raw, "expected justified hazards in the shipped tree"
        assert apply_allowlist(raw, load_allowlist(ALLOWLIST_PATH)) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = lint_determinism_file(bad)
        assert len(findings) == 1
        assert "cannot parse" in findings[0].message
