"""Structured bottleneck report: one artifact from fit + campaign + trace.

The paper's tool is "enhanced with visualization and reporting
capabilities" (Section 4.3); this module is the reporting capability as
a *structured* value. :func:`build_report` assembles a :class:`Report`
— an ordered list of titled sections made of paragraphs, tables and bar
charts — from any fit artifact of the unified predictor protocol
(:class:`~repro.core.model.BlackForestFit`,
:class:`~repro.core.prediction.ProblemScalingFit`,
:class:`~repro.core.hardware.HardwareScalingFit`), optionally joined
with the training campaign (counter tables, occupancy and memory-path
summaries, quarantine record), a span trace (hot-path attribution via
:func:`~repro.obs.export.span_totals`) and a structured event log
(lifecycle timeline). One structure, three renderers: terminal text,
Markdown, and a **self-contained** single-file HTML document whose only
graphics are inline SVG (:func:`repro.viz.svg.svg_bar_chart`) — no
scripts, no external assets, openable straight from a CI artifact list.

Determinism is part of the contract: the report is built only from the
values passed in — never from ambient tracing/metrics state — and every
iteration is over explicitly sorted or ranked sequences, so the same
fit and campaign produce byte-identical output whether tracing was on
or off and however many workers ran the campaign (pinned by
``tests/obs/test_report.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from repro.io import atomic_write
from repro.ml.metrics import spearman_rank_correlation
from repro.viz.svg import svg_bar_chart
from repro.viz.text import bar_chart, table as text_table

from .export import span_totals

__all__ = ["Report", "ReportSection", "build_report"]

#: Mean pairwise Spearman rho below which a repeated importance ranking
#: is flagged as unstable (the repeats disagree on predictor order).
STABILITY_THRESHOLD = 0.8

#: Counters summarized by the occupancy / memory-path section, in
#: render order (only those present in the campaign appear).
_OCCUPANCY_COUNTERS = (
    "achieved_occupancy",
    "issue_slot_utilization",
    "warp_execution_efficiency",
    "ipc",
)
_MEMORY_COUNTERS = (
    "gld_efficiency",
    "gst_efficiency",
    "gld_throughput",
    "gst_throughput",
    "l2_read_throughput",
    "l2_write_throughput",
    "dram_read_throughput",
    "dram_write_throughput",
)


# -- report structure --------------------------------------------------------


@dataclass
class Para:
    """One paragraph of prose."""

    text: str


@dataclass
class Table:
    """A small table; rows are tuples of already-formatted cells."""

    headers: list[str]
    rows: list[tuple]
    caption: str | None = None


@dataclass
class Chart:
    """A horizontal bar chart (ASCII in text/md, inline SVG in HTML)."""

    labels: list[str]
    values: list[float]
    title: str | None = None


@dataclass
class ReportSection:
    """A titled run of blocks."""

    title: str
    blocks: list = field(default_factory=list)

    def para(self, text: str) -> None:
        self.blocks.append(Para(text))

    def table(self, headers, rows, caption=None) -> None:
        self.blocks.append(Table(list(headers), list(rows), caption))

    def chart(self, labels, values, title=None) -> None:
        self.blocks.append(Chart(list(labels), [float(v) for v in values], title))


@dataclass
class Report:
    """A structured analysis report, renderable to text/Markdown/HTML."""

    title: str
    sections: list[ReportSection] = field(default_factory=list)

    def section(self, title: str) -> ReportSection:
        sec = ReportSection(title)
        self.sections.append(sec)
        return sec

    # -- renderers -----------------------------------------------------------

    def to_text(self) -> str:
        """Terminal rendering (fixed-width tables, ASCII bars)."""
        lines = [f"=== {self.title} ==="]
        for sec in self.sections:
            lines += ["", f"--- {sec.title} ---"]
            for block in sec.blocks:
                lines.append("")
                if isinstance(block, Para):
                    lines.append(block.text)
                elif isinstance(block, Table):
                    lines.append(
                        text_table(block.headers, block.rows, title=block.caption)
                    )
                elif isinstance(block, Chart):
                    lines.append(
                        bar_chart(
                            block.labels,
                            np.array(block.values),
                            title=block.title,
                        )
                    )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering."""
        lines = [f"# {self.title}"]
        for sec in self.sections:
            lines += ["", f"## {sec.title}"]
            for block in sec.blocks:
                lines.append("")
                if isinstance(block, Para):
                    lines.append(block.text)
                elif isinstance(block, Table):
                    if block.caption:
                        lines += [f"**{block.caption}**", ""]
                    lines.append("| " + " | ".join(block.headers) + " |")
                    lines.append("|" + "|".join(" --- " for _ in block.headers) + "|")
                    for row in block.rows:
                        cells = [str(c).replace("|", "\\|") for c in row]
                        lines.append("| " + " | ".join(cells) + " |")
                elif isinstance(block, Chart):
                    chart = bar_chart(
                        block.labels, np.array(block.values), title=block.title
                    )
                    lines += ["```", chart, "```"]
        return "\n".join(lines) + "\n"

    def to_html(self) -> str:
        """Self-contained single-file HTML (inline CSS + SVG, no JS)."""
        parts = [
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8">',
            f"<title>{escape(self.title)}</title>",
            "<style>",
            _HTML_STYLE,
            "</style></head><body>",
            f"<h1>{escape(self.title)}</h1>",
        ]
        for sec in self.sections:
            parts.append(f"<section><h2>{escape(sec.title)}</h2>")
            for block in sec.blocks:
                if isinstance(block, Para):
                    parts.append(f"<p>{escape(block.text)}</p>")
                elif isinstance(block, Table):
                    if block.caption:
                        parts.append(f"<p><b>{escape(block.caption)}</b></p>")
                    parts.append("<table><thead><tr>")
                    parts += [f"<th>{escape(h)}</th>" for h in block.headers]
                    parts.append("</tr></thead><tbody>")
                    for row in block.rows:
                        parts.append(
                            "<tr>"
                            + "".join(f"<td>{escape(str(c))}</td>" for c in row)
                            + "</tr>"
                        )
                    parts.append("</tbody></table>")
                elif isinstance(block, Chart):
                    parts.append(
                        svg_bar_chart(
                            block.labels, block.values, title=block.title
                        )
                    )
            parts.append("</section>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"

    def render(self, format: str = "text") -> str:
        """Render to ``"text"``, ``"md"``/``"markdown"``, or ``"html"``."""
        if format == "text":
            return self.to_text()
        if format in ("md", "markdown"):
            return self.to_markdown()
        if format == "html":
            return self.to_html()
        raise ValueError(f"unknown report format {format!r}")

    def save(self, path, format: str | None = None) -> Path:
        """Write the report to ``path`` (format inferred from suffix),
        atomically: a crash mid-save leaves the previous report intact."""
        path = Path(path)
        if format is None:
            format = {
                ".md": "md",
                ".markdown": "md",
                ".html": "html",
                ".htm": "html",
            }.get(path.suffix.lower(), "text")
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, self.render(format))
        return path


_HTML_STYLE = """\
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a2733; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: .3rem; }
h2 { color: #2c4a66; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #c4ccd4; padding: .25rem .6rem;
         font-size: .9rem; text-align: left; }
th { background: #eef2f6; }
svg { display: block; margin: .5rem 0; }\
"""


# -- section builders --------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _counter_meta(name: str):
    """Catalogue spec for a predictor name, or None for characteristics."""
    from repro.gpusim.counters import CATALOGUE

    return CATALOGUE.get(name)


def _importance_section(report: Report, fit, top_k: int) -> None:
    ranking = fit.importance
    sec = report.section(f"Variable importance ({fit.arch})")
    k = min(top_k, len(ranking.names))
    sec.chart(
        ranking.names[:k],
        [float(s) for s in ranking.scores[:k]],
        title="Permutation importance (%IncMSE)",
    )
    rows = []
    for rank, (name, score) in enumerate(
        zip(ranking.names[:k], ranking.scores[:k]), start=1
    ):
        spec = _counter_meta(name)
        if spec is not None:
            kind, unit = spec.kind, spec.unit
            families = "/".join(spec.families)
            meaning = spec.meaning
        else:
            kind, unit, families = "characteristic", "-", "-"
            meaning = "problem/machine characteristic"
        rows.append(
            (
                rank,
                name,
                f"{float(score):.4g}",
                ranking.direction_of(name),
                kind,
                unit,
                families,
                meaning if len(meaning) <= 60 else meaning[:57] + "...",
            )
        )
    sec.table(
        ["rank", "predictor", "score", "direction", "kind", "unit",
         "families", "meaning"],
        rows,
        caption="Ranked predictors with counter-catalogue metadata",
    )


def _stability_section(report: Report, fit) -> None:
    samples = getattr(fit, "importance_samples", None)
    sec = report.section("Importance stability")
    if not samples or len(samples) < 2:
        sec.para(
            "Not assessed: the fit ran a single importance pass "
            "(importance_repeats=1). Refit with importance_repeats>1 to "
            "quantify ranking stability."
        )
        return
    rhos = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            rhos.append(spearman_rank_correlation(samples[i], samples[j]))
    mean_rho = float(np.mean(rhos))
    stable = mean_rho >= STABILITY_THRESHOLD
    sec.para(
        f"Spearman rank correlation across {len(samples)} repeated "
        f"importance fits: mean rho = {mean_rho:.3f} "
        f"(min {min(rhos):.3f}, max {max(rhos):.3f}). "
        + (
            "The ranking is STABLE: repeats agree on predictor order."
            if stable
            else f"The ranking is UNSTABLE (mean rho < "
            f"{STABILITY_THRESHOLD}): treat the reported order as "
            "indicative only and increase campaign size or "
            "importance_repeats."
        )
    )
    # Per-predictor score spread across the repeats, in ranked order.
    names = fit.feature_names
    stack = np.vstack(samples)
    order = [names.index(n) for n in fit.importance.names[:8] if n in names]
    rows = [
        (
            names[j],
            f"{float(stack[:, j].mean()):.4g}",
            f"{float(stack[:, j].min()):.4g}",
            f"{float(stack[:, j].max()):.4g}",
        )
        for j in order
    ]
    sec.table(
        ["predictor", "mean score", "min", "max"],
        rows,
        caption="Score spread across repeats (top predictors)",
    )


def _fit_quality_section(report: Report, fit, campaign) -> None:
    sec = report.section("Fit quality")
    rows = [
        ("kernel", fit.kernel),
        ("architecture", fit.arch),
        ("response", fit.response),
        ("training runs", len(fit.y_train)),
        ("test runs", len(fit.y_test)),
        ("predictors", len(fit.feature_names)),
        ("OOB MSE", _fmt(fit.oob_mse)),
        ("OOB explained variance",
         f"{100 * fit.oob_explained_variance:.1f}%"),
        ("test MSE", _fmt(fit.test_mse)),
        ("test explained variance",
         f"{100 * fit.test_explained_variance:.1f}%"),
    ]
    if fit.reduced_retains_power is not None:
        rows.append(
            (
                f"reduced model ({len(fit.reduced_feature_names)} vars)",
                f"{100 * fit.reduced_test_explained_variance:.1f}% "
                + ("(retains predictive power)" if fit.reduced_retains_power
                   else "(LOSES predictive power)"),
            )
        )
    sec.table(["quantity", "value"], rows)
    _degradation_blocks(sec, fit.degradation, campaign)


def _degradation_blocks(sec: ReportSection, degradation, campaign) -> None:
    if degradation:
        sec.para(
            "Training matrix repair (the fit ran on a degraded "
            "campaign): "
            + json.dumps(degradation, sort_keys=True, default=str)
        )
    quarantined = getattr(campaign, "quarantined", None) if campaign else None
    if quarantined:
        sec.table(
            ["problem", "stage", "attempts", "error"],
            [
                (str(q.problem), q.stage, q.attempts, q.error)
                for q in quarantined
            ],
            caption=f"Quarantined runs ({len(quarantined)})",
        )
    elif campaign is not None:
        sec.para("No quarantined runs: every profiled problem survived.")


def _counter_table_section(report: Report, campaign) -> None:
    if not campaign.records:
        return
    sec = report.section(f"Counters: {campaign.kernel}")
    rows = []
    for name in campaign.counter_names:
        values = np.array(
            [r.counters[name] for r in campaign.records if name in r.counters]
        )
        if values.size == 0:
            continue
        spec = _counter_meta(name)
        unit = spec.unit if spec is not None else "-"
        rows.append(
            (
                name,
                unit,
                f"{float(values.mean()):.4g}",
                f"{float(values.min()):.4g}",
                f"{float(values.max()):.4g}",
            )
        )
    sec.table(
        ["counter", "unit", "mean", "min", "max"],
        rows,
        caption=(
            f"{len(campaign.records)} runs on {campaign.arch} "
            f"({campaign.family})"
        ),
    )


def _pick_counter_rows(campaign, names) -> list[tuple]:
    rows = []
    for name in names:
        values = np.array(
            [r.counters[name] for r in campaign.records if name in r.counters]
        )
        if values.size == 0:
            continue
        spec = _counter_meta(name)
        rows.append(
            (
                name,
                spec.unit if spec is not None else "-",
                f"{float(values.mean()):.4g}",
            )
        )
    return rows


def _occupancy_section(report: Report, campaign) -> None:
    if not campaign.records:
        return
    occ = _pick_counter_rows(campaign, _OCCUPANCY_COUNTERS)
    mem = _pick_counter_rows(campaign, _MEMORY_COUNTERS)
    if not occ and not mem:
        return
    sec = report.section("Occupancy and memory path")
    if occ:
        sec.table(
            ["metric", "unit", "mean"], occ, caption="Occupancy / issue"
        )
    if mem:
        sec.table(
            ["metric", "unit", "mean"], mem, caption="Memory path"
        )


def _hot_path_section(report: Report, trace) -> None:
    records = getattr(trace, "records", trace)
    if not records:
        return
    totals = span_totals(records)
    sec = report.section("Hot paths (span self-time)")
    ranked = sorted(
        totals.items(), key=lambda kv: (-kv[1]["self_s"], kv[0])
    )
    sec.table(
        ["span", "count", "self", "total", "min", "max"],
        [
            (
                name,
                agg["count"],
                f"{agg['self_s'] * 1e3:.2f} ms",
                f"{agg['total_s'] * 1e3:.2f} ms",
                f"{agg['min_s'] * 1e3:.2f} ms",
                f"{agg['max_s'] * 1e3:.2f} ms",
            )
            for name, agg in ranked
        ],
        caption="Exclusive self-time partitions the wall clock; "
        "total is inclusive of children.",
    )
    top = ranked[: min(8, len(ranked))]
    sec.chart(
        [name for name, _ in top],
        [agg["self_s"] for _, agg in top],
        title="Self-time (s) by span name",
    )


def _timeline_section(report: Report, events) -> None:
    evs = getattr(events, "events", events)
    if not evs:
        return
    sec = report.section("Event timeline")
    origin = evs[0].t_s
    sec.table(
        ["+t", "pid", "kind", "detail"],
        [
            (
                f"{(e.t_s - origin) * 1e3:.1f} ms",
                e.pid,
                e.kind,
                ", ".join(
                    f"{k}={e.fields[k]}" for k in sorted(e.fields)
                ),
            )
            for e in evs
        ],
        caption=f"{len(evs)} lifecycle events "
        f"({len({e.kind for e in evs})} kinds)",
    )


def _retained_section(report: Report, fit) -> None:
    sec = report.section("Problem-scaling model")
    sec.para(
        f"Retained predictors ({len(fit.retained)}): "
        + ", ".join(fit.retained)
        + f". Problem characteristics: {', '.join(fit.characteristics)}."
    )
    quality = fit.counter_models.quality_table()
    if quality:
        sec.table(
            ["counter", "model", "R^2", "deviance"],
            [
                (name, kind, f"{r2:.3f}", f"{dev:.4g}")
                for name, kind, r2, dev in quality
            ],
            caption="Counter scaling models (fit on training problems)",
        )


def _hardware_section(report: Report, fit) -> None:
    sec = report.section("Hardware-scaling model")
    sec.para(
        f"Forest trained on {fit.train_arch} over {len(fit.variables)} "
        "predictors; assess with a campaign measured on the target "
        "architecture to score cross-architecture prediction."
    )
    sec.table(
        ["predictor"],
        [(v,) for v in fit.variables],
        caption="Training variables (cross-architecture feature set)",
    )


def _bottleneck_section(report: Report, fit) -> None:
    sec = report.section("Detected bottlenecks")
    if fit.bottlenecks:
        sec.table(
            ["rank", "pattern", "evidence", "best witness rank"],
            [
                (i + 1, b.pattern.key, ", ".join(b.evidence), b.best_rank + 1)
                for i, b in enumerate(fit.bottlenecks)
            ],
        )
        for b in fit.bottlenecks:
            sec.para(b.describe())
    else:
        sec.para(
            "No known bottleneck pattern matched the important variables."
        )


# -- entry point -------------------------------------------------------------


def build_report(
    fit,
    campaign=None,
    *,
    trace=None,
    events=None,
    top_k: int = 10,
) -> Report:
    """Assemble a :class:`Report` from a fit artifact and optional context.

    ``fit`` is any artifact of the unified predictor protocol;
    ``campaign`` (the training/assessment campaign) enables the counter
    and occupancy sections; ``trace`` (a
    :class:`~repro.obs.spans.Tracer` or span-record list) enables the
    hot-path section; ``events`` (an
    :class:`~repro.obs.log.EventLog` or event list) enables the
    timeline. Only the passed-in values are consulted — never ambient
    collector state — which is what makes the output reproducible.
    """
    # Unwrap the problem-scaling artifact: its bottleneck analysis
    # lives on the inner BlackForest fit.
    inner = getattr(fit, "blackforest_fit", None)
    is_problem_scaling = inner is not None
    is_hardware = inner is None and hasattr(fit, "train_arch")

    if is_hardware:
        report = Report(
            f"Hardware-scaling report: {fit.train_arch}"
        )
        _hardware_section(report, fit)
        if fit.degradation:
            sec = report.section("Fit quality")
            _degradation_blocks(sec, fit.degradation, campaign)
        elif campaign is not None:
            sec = report.section("Fit quality")
            _degradation_blocks(sec, None, campaign)
    else:
        bf = inner if is_problem_scaling else fit
        report = Report(
            f"Bottleneck report: {bf.kernel} on {bf.arch}"
        )
        _fit_quality_section(report, bf, campaign)
        _importance_section(report, bf, top_k)
        _stability_section(report, bf)
        _bottleneck_section(report, bf)
        if is_problem_scaling:
            _retained_section(report, fit)

    if campaign is not None:
        _counter_table_section(report, campaign)
        _occupancy_section(report, campaign)
    if trace is not None:
        _hot_path_section(report, trace)
    if events is not None:
        _timeline_section(report, events)
    return report
