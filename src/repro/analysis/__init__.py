"""Static analysis: counter-invariant linter and workload sanitizer.

The statistical pipeline is only as trustworthy as the counter vectors
and workload models feeding it — a mislabeled counter family or an
out-of-range access pattern silently corrupts every downstream
importance ranking and prediction. This subpackage is the fail-fast
correctness layer:

* :mod:`~repro.analysis.catalogue` — internal consistency of the
  counter catalogue (family tags, units, predictor flags, metric
  dependencies);
* :mod:`~repro.analysis.workload` — invariants over kernel workload
  models and finalized counter vectors;
* :mod:`~repro.analysis.arch` — architecture-description validation;
* :mod:`~repro.analysis.source` — AST lint over the package source
  (unknown counter literals, unguarded metric divisions, float
  equality in timing paths);
* :mod:`~repro.analysis.determinism` — reproducibility sanitizer over
  every module reachable from the pipeline entry points (unseeded
  randomness, wall-clock timing, unordered set iteration, non-atomic
  artifact writes, process fan-out outside :mod:`repro.parallel`);
* :mod:`~repro.analysis.plan` — pre-flight campaign plan checks
  (design rank, collinearity, counter coverage, transfer overlap,
  cost/budget) run by ``repro lint --plan`` and ``Campaign.run``;
* :mod:`~repro.analysis.schemas` — versioned schema registry for every
  on-disk artifact format, behind ``repro lint --artifacts`` and
  :meth:`ProfileRepository.verify_all` (each campaign's sidecars);
* :mod:`~repro.analysis.runner` — whole-tree orchestration behind the
  ``repro lint`` CLI and the CI gate.

Rules are registered :class:`Rule` objects with stable ``BFxxx`` ids
(see ``docs/analysis.md``); the profiler re-runs the workload and
counter rules per launch in sanitizer mode (``Profiler(...,
sanitize=True)``) and raises :class:`InvariantViolation` on ERROR
findings.
"""

from . import arch as _arch_rules  # noqa: F401 — import registers rules
from . import catalogue as _catalogue_rules  # noqa: F401
from . import determinism as _determinism_rules  # noqa: F401
from . import plan as _plan_rules  # noqa: F401
from . import schemas as _schema_rules  # noqa: F401
from . import source as _source_rules  # noqa: F401
from . import workload as _workload_rules  # noqa: F401
from .arch import lint_arch
from .catalogue import lint_catalogue
from .determinism import lint_determinism, lint_determinism_file
from .findings import (
    Finding,
    InvariantViolation,
    Rule,
    Severity,
    all_rules,
    doc_url_of,
    family_of,
    get_rule,
    max_severity,
    rule,
    rules_for,
    run_rules,
)
from .plan import CampaignPlan, lint_plan, plan_from_dict, plan_from_file
from .runner import (
    as_json,
    exit_code,
    lint_kernel_launches,
    lint_tree,
    rule_table,
    summarize,
)
from .schemas import (
    SCHEMAS,
    lint_artifacts,
    validate_artifact,
    validate_fields,
)
from .source import lint_source_file, lint_source_tree
from .workload import lint_counters, lint_workload

__all__ = [
    "Finding",
    "InvariantViolation",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "max_severity",
    "family_of",
    "doc_url_of",
    "rule",
    "rules_for",
    "run_rules",
    "lint_arch",
    "lint_catalogue",
    "lint_counters",
    "lint_workload",
    "lint_source_file",
    "lint_source_tree",
    "lint_determinism",
    "lint_determinism_file",
    "lint_tree",
    "lint_kernel_launches",
    "CampaignPlan",
    "lint_plan",
    "plan_from_dict",
    "plan_from_file",
    "SCHEMAS",
    "lint_artifacts",
    "validate_artifact",
    "validate_fields",
    "as_json",
    "exit_code",
    "summarize",
    "rule_table",
]
