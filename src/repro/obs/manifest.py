"""Per-run manifests: the provenance record written beside artifacts.

The paper's workflow stores campaign data in a "structured repository";
a :class:`Manifest` is the sidecar that makes a stored campaign
reproducible and auditable after the fact — which seed produced it,
which kernel/architecture pair, which git revision of the tool, what
configuration, and where the collection time went (span totals from the
active trace, when one was recorded).

Manifests are JSON documents with a schema tag
(``repro-manifest/1``); :meth:`ProfileRepository.save
<repro.profiling.repository.ProfileRepository.save>` writes one as
``manifest.json`` under the same :class:`CampaignKey
<repro.profiling.repository.CampaignKey>` as the campaign data.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["Manifest", "git_revision", "provenance", "build_manifest"]

#: Schema tag written into every manifest.
SCHEMA = "repro-manifest/1"


def git_revision(root: str | Path | None = None) -> str | None:
    """Current git commit hash, or None outside a work tree / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    """Manifest-style stamp of where a journal record was produced: git
    revision, python version, host and machine."""
    return {
        "schema": SCHEMA,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "host": platform.node(),
        "machine": platform.machine(),
    }


@dataclass
class Manifest:
    """Provenance of one run / stored campaign."""

    kernel: str
    arch: str
    tag: str | None = None
    seed: int | None = None
    n_runs: int = 0
    config: dict = field(default_factory=dict)
    #: Per-span-name wall-clock totals, ``{name: {count, total_s}}``.
    timings: dict = field(default_factory=dict)
    #: Metric snapshot (``MetricsRegistry.snapshot()``), when collected.
    metrics: dict = field(default_factory=dict)
    #: SHA-256 of sibling artifact files, ``{filename: hexdigest}`` —
    #: what :meth:`ProfileRepository.verify` checks. Empty for legacy
    #: manifests (``from_json`` tolerates the missing key).
    checksums: dict = field(default_factory=dict)
    git_rev: str | None = None
    python: str = ""
    created_unix: float = 0.0
    schema: str = SCHEMA

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        data = json.loads(text)
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unknown manifest schema {data.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
        # Schema-registry validation (function-level import: the obs
        # package must not pull in repro.analysis at init time). A
        # renamed or mistyped field is a named BF6xx drift report, not
        # a TypeError from the dataclass constructor.
        from repro.analysis.schemas import validate_fields

        problems = validate_fields(data, SCHEMA)
        if problems:
            raise ValueError(
                f"manifest does not conform to {SCHEMA} — "
                + "; ".join(problems)
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def read(cls, path: str | Path) -> "Manifest":
        return cls.from_json(Path(path).read_text())


def build_manifest(
    *,
    kernel: str,
    arch: str,
    tag: str | None = None,
    seed: int | None = None,
    n_runs: int = 0,
    config: dict | None = None,
    trace_records=None,
    metrics=None,
    checksums: dict | None = None,
) -> Manifest:
    """Assemble a manifest from the pieces the pipeline has at hand.

    ``trace_records`` (a list of :class:`~repro.obs.spans.SpanRecord`)
    is folded to per-stage totals; ``metrics`` may be a
    :class:`~repro.obs.metrics.MetricsRegistry` or a ready snapshot
    dict. Both default to the currently installed collectors, so a
    traced CLI run records its own timings with no extra plumbing.
    """
    from .export import span_totals
    from .metrics import MetricsRegistry, current_metrics
    from .spans import current_tracer

    if trace_records is None:
        tracer = current_tracer()
        trace_records = tracer.records if tracer is not None else []
    if metrics is None:
        metrics = current_metrics()
    if isinstance(metrics, MetricsRegistry):
        metrics = metrics.snapshot()
    return Manifest(
        kernel=kernel,
        arch=arch,
        tag=tag,
        seed=seed,
        n_runs=n_runs,
        config=dict(config) if config else {},
        timings=span_totals(trace_records),
        metrics=metrics or {},
        checksums=dict(checksums) if checksums else {},
        git_rev=git_revision(),
        python=platform.python_version(),
        created_unix=time.time(),
    )
