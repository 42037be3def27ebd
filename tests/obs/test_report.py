"""Tests for the structured bottleneck report (repro.obs.report).

The load-bearing pins here are the determinism contract — the rendered
report is byte-identical with tracing on or off and for any worker
count — and the ranked-importance section reproducing
``fit.importance`` ordering bit-for-bit.
"""

import pytest

from repro import BlackForest, Campaign, GTX580
from repro.kernels import VectorAddKernel
from repro.obs import (
    Event,
    EventLog,
    Report,
    ReportSection,
    build_report,
    collect,
    trace,
)
from repro.obs.report import Chart, Para, Table

SIZES = [1 << 14, 1 << 16, 1 << 18, 1 << 20]


def _campaign(n_jobs=1):
    return Campaign(VectorAddKernel(), GTX580, rng=0).run(
        problems=SIZES, replicates=2, n_jobs=n_jobs
    )


def _fit(campaign, repeats=2, n_jobs=1):
    return BlackForest(
        n_trees=20, importance_repeats=repeats, n_jobs=n_jobs, rng=1
    ).fit(campaign)


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


@pytest.fixture(scope="module")
def fit(campaign):
    return _fit(campaign)


def _section(report, title):
    return next(s for s in report.sections if s.title == title)


def _tables(section):
    return [b for b in section.blocks if isinstance(b, Table)]


class TestReportStructure:
    def test_section_builders(self):
        report = Report("T")
        sec = report.section("S")
        sec.para("hello")
        sec.table(["a"], [(1,)], caption="c")
        sec.chart(["x"], [2.0], title="t")
        assert isinstance(sec, ReportSection)
        assert [type(b) for b in sec.blocks] == [Para, Table, Chart]

    def test_render_dispatch(self):
        report = Report("T")
        assert report.render("text").startswith("=== T ===")
        assert report.render("md").startswith("# T")
        assert report.render("markdown") == report.render("md")
        assert report.render("html").startswith("<!DOCTYPE html>")

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown report format"):
            Report("T").render("pdf")

    def test_save_infers_format_from_suffix(self, tmp_path):
        report = Report("T")
        report.section("S").para("body")
        html = (tmp_path / "r.html")
        md = (tmp_path / "r.md")
        txt = (tmp_path / "r.out")
        report.save(html)
        report.save(md)
        report.save(txt)
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert md.read_text().startswith("# T")
        assert txt.read_text().startswith("=== T ===")

    def test_crash_mid_save_keeps_previous_report(
        self, tmp_path, crash_before_rename
    ):
        path = tmp_path / "r.md"
        old = Report("Old")
        old.section("S").para("previous body")
        old.save(path)
        new = Report("New")
        new.section("S").para("next body")
        with crash_before_rename("r.md"):
            with pytest.raises(OSError, match="simulated crash"):
                new.save(path)
        assert path.read_text() == old.render("md")


class TestBottleneckReport:
    def test_core_sections_present(self, fit, campaign):
        report = build_report(fit, campaign)
        titles = [s.title for s in report.sections]
        assert titles[0] == "Fit quality"
        assert "Variable importance (GTX580)" in titles
        assert "Importance stability" in titles
        assert "Detected bottlenecks" in titles
        assert any(t.startswith("Counters:") for t in titles)

    def test_title_names_kernel_and_arch(self, fit, campaign):
        report = build_report(fit, campaign)
        assert report.title == f"Bottleneck report: {fit.kernel} on GTX580"

    def test_fit_only_report_skips_campaign_sections(self, fit):
        report = build_report(fit)
        titles = [s.title for s in report.sections]
        assert not any(t.startswith("Counters:") for t in titles)
        assert "Occupancy and memory path" not in titles

    def test_importance_order_matches_fit_bit_for_bit(self, fit, campaign):
        report = build_report(fit, campaign, top_k=10)
        sec = _section(report, "Variable importance (GTX580)")
        (table,) = _tables(sec)
        k = min(10, len(fit.importance.names))
        assert [row[1] for row in table.rows] == list(
            fit.importance.names[:k]
        )
        assert [row[2] for row in table.rows] == [
            f"{float(s):.4g}" for s in fit.importance.scores[:k]
        ]
        chart = next(b for b in sec.blocks if isinstance(b, Chart))
        assert chart.labels == list(fit.importance.names[:k])
        assert chart.values == [float(s) for s in fit.importance.scores[:k]]

    def test_top_k_limits_rows(self, fit, campaign):
        report = build_report(fit, campaign, top_k=3)
        sec = _section(report, "Variable importance (GTX580)")
        (table,) = _tables(sec)
        assert len(table.rows) == 3

    def test_importance_rows_carry_catalogue_metadata(self, fit):
        report = build_report(fit)
        sec = _section(report, "Variable importance (GTX580)")
        (table,) = _tables(sec)
        by_name = {row[1]: row for row in table.rows}
        counters = {
            n: r for n, r in by_name.items() if r[4] != "characteristic"
        }
        if counters:  # catalogue-backed rows name their family and unit
            row = next(iter(counters.values()))
            assert row[6] != "-"

    def test_stability_assessed_with_repeats(self, fit, campaign):
        report = build_report(fit, campaign)
        sec = _section(report, "Importance stability")
        text = next(b for b in sec.blocks if isinstance(b, Para)).text
        assert "Spearman rank correlation across 2 repeated" in text
        assert ("STABLE" in text) or ("UNSTABLE" in text)

    def test_stability_not_assessed_single_repeat(self, campaign):
        single = _fit(campaign, repeats=1)
        report = build_report(single)
        sec = _section(report, "Importance stability")
        text = next(b for b in sec.blocks if isinstance(b, Para)).text
        assert "Not assessed" in text

    def test_quarantine_paragraph_when_clean(self, fit, campaign):
        report = build_report(fit, campaign)
        sec = _section(report, "Fit quality")
        paras = [b.text for b in sec.blocks if isinstance(b, Para)]
        assert any("No quarantined runs" in t for t in paras)


class TestOptionalSections:
    def test_trace_enables_hot_path_section(self, fit, campaign):
        with trace() as tracer:
            _campaign()
        report = build_report(fit, campaign, trace=tracer.records)
        sec = _section(report, "Hot paths (span self-time)")
        (table,) = _tables(sec)
        spans = [row[0] for row in table.rows]
        assert "campaign.run" in spans

    def test_events_enable_timeline_section(self, fit):
        log = EventLog()
        log.merge([
            Event("fit.start", t_s=1.0, seq=1, pid=9, fields={"stage": "x"}),
            Event("fit.end", t_s=2.0, seq=2, pid=9),
        ])
        report = build_report(fit, events=log)
        sec = _section(report, "Event timeline")
        (table,) = _tables(sec)
        assert [row[2] for row in table.rows] == ["fit.start", "fit.end"]
        assert table.rows[0][0] == "0.0 ms"
        assert table.rows[1][0] == "1000.0 ms"

    def test_empty_trace_and_events_add_no_sections(self, fit):
        report = build_report(fit, trace=[], events=[])
        titles = [s.title for s in report.sections]
        assert "Hot paths (span self-time)" not in titles
        assert "Event timeline" not in titles


class TestDeterminism:
    def test_report_identical_with_tracing_and_metrics_on(
        self, fit, campaign
    ):
        plain = build_report(fit, campaign).render("html")
        with trace(), collect():
            traced = build_report(fit, campaign).render("html")
        assert traced == plain

    def test_report_identical_across_n_jobs(self):
        serial = build_report(
            _fit(_campaign(n_jobs=1)), _campaign(n_jobs=1)
        )
        parallel = build_report(
            _fit(_campaign(n_jobs=2), n_jobs=2), _campaign(n_jobs=2)
        )
        for format in ("text", "md", "html"):
            assert serial.render(format) == parallel.render(format)

    def test_rebuild_is_byte_identical(self, fit, campaign):
        a = build_report(fit, campaign).render("text")
        b = build_report(fit, campaign).render("text")
        assert a == b


class TestHtmlRendering:
    def test_self_contained_no_external_assets(self, fit, campaign):
        html = build_report(fit, campaign).render("html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<svg" in html  # charts are inline SVG
        assert "<script" not in html
        # no fetched assets: the xmlns namespace URI is the only URL
        assert "<link" not in html
        assert "src=" not in html and "href=" not in html
        assert "@import" not in html

    def test_html_escapes_markup(self):
        report = Report("a <b> & c")
        report.section("s<1>").para("x < y & z")
        html = report.render("html")
        assert "a &lt;b&gt; &amp; c" in html
        assert "s&lt;1&gt;" in html
        assert "x &lt; y &amp; z" in html

    def test_markdown_tables_and_fenced_charts(self, fit, campaign):
        md = build_report(fit, campaign).render("md")
        assert "| rank | predictor |" in md
        assert "```" in md


class TestFitArtifactReportMethods:
    def test_blackforest_fit_report(self, fit, campaign):
        report = fit.report(campaign)
        assert isinstance(report, Report)
        assert report.title.startswith("Bottleneck report:")

    def test_problem_scaling_fit_report_keyword(self, campaign):
        from repro.core import ProblemScalingPredictor

        ps = ProblemScalingPredictor(
            BlackForest(n_trees=20, importance_repeats=1, rng=1), rng=1
        ).fit(campaign)
        report = ps.report(campaign=campaign)
        assert isinstance(report, Report)
        titles = [s.title for s in report.sections]
        assert "Problem-scaling model" in titles

    def test_hardware_fit_report(self, campaign):
        from repro.core import HardwareScalingPredictor

        hw = HardwareScalingPredictor(n_trees=20, rng=1).fit(campaign)
        report = hw.report(campaign=campaign)
        assert report.title == "Hardware-scaling report: GTX580"
        titles = [s.title for s in report.sections]
        assert "Hardware-scaling model" in titles
