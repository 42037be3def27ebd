"""Whole-tree lint orchestration.

:func:`lint_tree` is what ``repro lint`` (and CI) runs: the full rule
set over everything the shipped package declares —

1. the counter catalogue (BF0xx),
2. every built-in GPU architecture description (BF2xx),
3. the workload models every registered kernel emits for the first
   problem of its paper sweep, on both GPU families (BF10x),
4. one deterministic simulated counter vector per kernel/arch pair
   (BF12x) — the same checks the profiler's sanitizer mode applies
   per launch,
5. the package source tree (BF3xx).

6. the determinism sanitizer (BF4xx) over every module reachable from
   the pipeline entry points, minus the committed allowlist.

Findings come back sorted most-severe-first; :func:`summarize` renders
the text report and :func:`as_json` the machine-readable one (findings
re-sorted by (rule id, file, line) so CI diffs are stable).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.gpusim.arch import GTX480, GTX580, K20M, GPUArchitecture

from .arch import lint_arch
from .catalogue import lint_catalogue
from .determinism import lint_determinism
from .findings import Finding, Severity, all_rules, max_severity, run_rules
from .source import lint_source_tree
from .workload import lint_counters, lint_workload

__all__ = [
    "DEFAULT_ARCHS",
    "lint_tree",
    "lint_kernel_launches",
    "summarize",
    "as_json",
    "exit_code",
    "rule_table",
]

DEFAULT_ARCHS: tuple[GPUArchitecture, ...] = (GTX480, GTX580, K20M)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).parent


def lint_kernel_launches(
    archs: Sequence[GPUArchitecture] = DEFAULT_ARCHS,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint every registered kernel's workload models and the counter
    vectors they produce, on each GPU architecture."""
    from repro.gpusim.simulator import GPUSimulator, finalize_counters
    from repro.kernels import kernel_registry

    findings: list[Finding] = []
    for arch in archs:
        sim = GPUSimulator(arch)
        for name, kernel in sorted(kernel_registry().items()):
            problem = kernel.default_sweep()[0]
            try:
                workloads = kernel.workloads(problem, arch)
            except (AttributeError, ValueError):
                continue  # kernel does not model this architecture class
            for wl in workloads:
                findings.extend(
                    _tag(run_rules("workload", wl, arch, select=select),
                         kernel=name, arch=arch.name)
                )
            values, _ = finalize_counters(arch, sim.run_totals(workloads))
            findings.extend(
                _tag(run_rules("counters", dict(values), arch.family,
                               select=select),
                     kernel=name, arch=arch.name)
            )
    return findings


def _tag(findings: list[Finding], **context) -> list[Finding]:
    return [
        Finding(
            rule=f.rule, severity=f.severity, message=f.message,
            subject=f.subject, context={**f.context, **context},
        )
        for f in findings
    ]


def lint_tree(
    source_root: str | Path | None = None,
    archs: Sequence[GPUArchitecture] = DEFAULT_ARCHS,
    select: Iterable[str] | None = None,
    include_launches: bool = True,
    include_source: bool = True,
) -> list[Finding]:
    """Run the full rule set over the shipped package."""
    from repro.gpusim.counters import CATALOGUE

    findings: list[Finding] = list(run_rules("catalogue", CATALOGUE,
                                             select=select))
    for arch in archs:
        findings.extend(run_rules("arch", arch, select=select))
    if include_launches:
        findings.extend(lint_kernel_launches(archs, select=select))
    if include_source:
        root = _package_root() if source_root is None else Path(source_root)
        source_findings = lint_source_tree(root) + lint_determinism(root)
        if select is not None:
            source_findings = [
                f for f in source_findings
                if any(f.rule.startswith(s) for s in select)
            ]
        findings.extend(source_findings)
    findings.sort(key=lambda f: (-f.severity, f.rule, f.subject))
    return findings


def summarize(findings: Sequence[Finding], n_rules: int | None = None) -> str:
    """Human-readable lint report."""
    n_rules = len(all_rules()) if n_rules is None else n_rules
    lines = [f.format() for f in findings]
    counts = {s: sum(1 for f in findings if f.severity == s) for s in Severity}
    tally = ", ".join(
        f"{counts[s]} {s.name.lower()}{'s' if counts[s] != 1 else ''}"
        for s in sorted(Severity, reverse=True)
        if counts[s]
    )
    if findings:
        lines.append("")
        lines.append(f"{len(findings)} findings ({tally}) from {n_rules} rules")
    else:
        lines.append(f"clean: 0 findings from {n_rules} rules")
    return "\n".join(lines)


_SUBJECT_LINE = re.compile(r"^(?P<file>.*):(?P<line>\d+)$")


def _sort_key(finding: Finding) -> tuple[str, str, int]:
    """(rule id, file, line) — the JSON report's stable order.

    Subjects that are not ``path:line`` locations (counter names,
    architectures) sort as line 0 of themselves, so every finding has a
    total order and CI diffs never churn.
    """
    m = _SUBJECT_LINE.match(finding.subject)
    if m:
        return finding.rule, m.group("file"), int(m.group("line"))
    return finding.rule, finding.subject, 0


def as_json(findings: Sequence[Finding], n_rules: int | None = None) -> str:
    """Machine-readable lint report (stable schema for CI consumers).

    Findings are re-sorted by (rule id, file, line) — independent of
    discovery order — and each carries its rule metadata (severity,
    family, doc URL), so two runs over the same tree produce the same
    bytes and a CI diff shows exactly what changed.
    """
    worst = max_severity(findings)
    payload = {
        "findings": [f.as_dict() for f in sorted(findings, key=_sort_key)],
        "counts": {
            s.name.lower(): sum(1 for f in findings if f.severity == s)
            for s in Severity
        },
        "max_severity": worst.name.lower() if worst is not None else None,
        "rules_run": len(all_rules()) if n_rules is None else n_rules,
    }
    return json.dumps(payload, indent=2, default=str, sort_keys=True)


def exit_code(findings: Sequence[Finding], fail_on: Severity) -> int:
    """1 when any finding is at or above the threshold, else 0.

    The boundary is inclusive: ``--fail-on warning`` fails on WARNING
    *and* ERROR findings (pinned by tests/analysis/test_runner_cli.py).
    """
    worst = max_severity(findings)
    return 1 if worst is not None and worst >= fail_on else 0


def rule_table() -> list[tuple[str, str, str, str]]:
    """(id, severity, domain, summary) rows for docs and --list-rules."""
    return [
        (r.id, r.severity.name.lower(), r.domain, r.summary)
        for r in all_rules()
    ]
