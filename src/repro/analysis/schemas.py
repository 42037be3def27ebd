"""Artifact schema registry: versioned on-disk formats, rules BF601–BF605.

Every durable format the pipeline emits is registered here with its
schema tag, shape (single JSON document, JSONL stream, or headered
journal) and field specs:

=======================  ==========================================
tag                      written by
=======================  ==========================================
``repro-manifest/1``     :mod:`repro.obs.manifest` (campaign sidecar)
``repro-events/1``       :mod:`repro.obs.log` (JSONL event sink)
``repro-checkpoint/1``   :mod:`repro.profiling.checkpoint` (journal)
``repro-bench/1``        ``repro bench --json`` (BENCH_core.json)
``repro-bench-history/1``  :mod:`repro.obs.history` (bench journal)
``repro-campaign-meta/1``  :mod:`repro.profiling.repository`
                           (``meta.json``; tagless, matched by name)
``repro-fit/1``          :mod:`repro.serve.artifact` (servable fit)
``repro-fit-index/1``    :mod:`repro.serve.registry` (version index)
``repro-repo/1``         :mod:`repro.profiling.repository`
                         (``repo.json`` layout marker)
``repro-matrix/1``       :mod:`repro.profiling.index`
                         (columnar counter-matrix header)
``repro-forest-state/1``  :mod:`repro.ml.incremental`
                          (incremental-fit forest state)
``repro-serve-health/1``  :mod:`repro.serve.server` (``ping``
                          readiness document — a wire shape, not a
                          file; ``repro query ping`` output)
``repro-telemetry/1``    :mod:`repro.obs.telemetry` (rotating JSONL
                         snapshot journal; heartbeats + scrapes)
``repro-flightrec/1``    :meth:`repro.obs.log.EventLog.dump` (crash-triggered
                         ring-buffer dump)
=======================  ==========================================

Validation produces *findings*, not exceptions: a renamed field in a
manifest is a named BF6xx drift report pointing at the file, never a
``KeyError`` three layers up. The rules:

* **BF601** — the document carries a known schema tag (or matches a
  registered tagless format by filename).
* **BF602** — every required field of the declared schema is present.
* **BF603** — fields have the declared types; unrecognized fields are
  reported as drift (WARNING — readers ignore them, diffs should not).
* **BF604** — the document parses at all; a torn *trailing* JSONL line
  is a WARNING (crash-tolerant readers discard it by contract), torn
  anywhere else is an ERROR.
* **BF605** — journal structure: a checkpoint's header precedes entry
  lines and every entry pairs an index with records or a quarantine.

Used by ``repro lint --artifacts PATH``, wired into
:meth:`ProfileRepository.verify_all` and :meth:`repro.io.Journal.read`
(the checkpoint, event, history and telemetry readers). Both sides
split JSONL with :func:`repro.io.parse_jsonl`, the one definition of a
torn tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.io import parse_jsonl

from .findings import Finding, Severity, rule, run_rules

__all__ = [
    "FieldSpec",
    "ArtifactSchema",
    "ArtifactDocument",
    "SCHEMAS",
    "schema_for_tag",
    "schema_for_path",
    "load_artifact",
    "validate_artifact",
    "lint_artifacts",
    "validate_fields",
]


@dataclass(frozen=True)
class FieldSpec:
    """One field of a registered artifact format."""

    name: str
    #: Accepted python types after JSON decoding. ``bool`` is never
    #: accepted implicitly for numeric specs (it subclasses ``int``).
    types: tuple[type, ...]
    required: bool = True
    nullable: bool = False

    def accepts(self, value: object) -> bool:
        if value is None:
            return self.nullable
        if isinstance(value, bool) and bool not in self.types:
            return False
        return isinstance(value, self.types)

    def type_names(self) -> str:
        names = "/".join(t.__name__ for t in self.types)
        return names + ("/null" if self.nullable else "")


@dataclass(frozen=True)
class ArtifactSchema:
    """A versioned on-disk format the pipeline emits."""

    tag: str
    #: "json" (one document), "jsonl" (every line tagged), or
    #: "journal" (tagged header line, untagged entry lines).
    kind: str
    description: str
    fields: tuple[FieldSpec, ...] = ()
    #: For journals: specs of the entry lines after the header.
    entry_fields: tuple[FieldSpec, ...] = ()
    #: Filenames that identify a tagless format (``meta.json``).
    filename_hints: tuple[str, ...] = ()
    #: True when the format predates schema tags and carries none.
    tagless: bool = False

    def field_names(self) -> set[str]:
        return {f.name for f in self.fields}


def _f(name, types, required=True, nullable=False) -> FieldSpec:
    if not isinstance(types, tuple):
        types = (types,)
    return FieldSpec(name, types, required=required, nullable=nullable)


#: Every registered artifact format, by schema tag.
SCHEMAS: dict[str, ArtifactSchema] = {
    s.tag: s
    for s in (
        ArtifactSchema(
            tag="repro-manifest/1",
            kind="json",
            description="campaign provenance sidecar (manifest.json)",
            fields=(
                _f("schema", str),
                _f("kernel", str),
                _f("arch", str),
                _f("tag", str, nullable=True),
                _f("seed", int, nullable=True),
                _f("n_runs", int),
                _f("config", dict),
                _f("timings", dict),
                _f("metrics", dict),
                _f("checksums", dict, required=False),
                _f("git_rev", str, required=False, nullable=True),
                _f("python", str),
                _f("created_unix", (int, float)),
            ),
        ),
        ArtifactSchema(
            tag="repro-events/1",
            kind="jsonl",
            description="structured event log (JSONL sink)",
            fields=(
                _f("schema", str),
                _f("kind", str),
                _f("t_s", (int, float)),
                _f("seq", int),
                _f("pid", int, required=False),
                _f("span_id", int, required=False, nullable=True),
                _f("fields", dict),
            ),
        ),
        ArtifactSchema(
            tag="repro-checkpoint/1",
            kind="journal",
            description="campaign checkpoint journal",
            fields=(
                _f("schema", str),
                _f("fingerprint", dict),
            ),
            entry_fields=(
                _f("index", int),
                _f("records", list, required=False),
                _f("quarantined", dict, required=False),
            ),
        ),
        ArtifactSchema(
            tag="repro-bench/1",
            kind="json",
            description="bench report (BENCH_core.json baseline)",
            fields=(
                _f("schema", str),
                _f("quick", bool, required=False),
                _f("python", str, required=False),
                _f("numpy", str, required=False),
                _f("results", list),
            ),
        ),
        ArtifactSchema(
            tag="repro-bench-history/1",
            kind="jsonl",
            description="bench history journal (benchmarks/history.jsonl)",
            fields=(
                _f("schema", str),
                _f("provenance", dict),
                _f("bench", dict),
            ),
        ),
        ArtifactSchema(
            tag="repro-campaign-meta/1",
            kind="json",
            description="stored-campaign metadata (meta.json; tagless)",
            fields=(
                _f("kernel", str),
                _f("arch", str),
                _f("family", str),
                _f("tag", str, nullable=True),
                _f("n_runs", int),
                _f("counters", list),
                _f("characteristics", list),
                _f("machine_metrics", list),
            ),
            filename_hints=("meta.json",),
            tagless=True,
        ),
        ArtifactSchema(
            tag="repro-fit/1",
            kind="json",
            description="servable fit artifact (registry fit.json)",
            fields=(
                _f("schema", str),
                _f("kernel", str),
                _f("arch", str),
                _f("tag", str, nullable=True),
                _f("response", str),
                _f("feature_names", list),
                _f("source", dict),
                _f("forest", dict),
            ),
        ),
        ArtifactSchema(
            tag="repro-fit-index/1",
            kind="json",
            description="fit registry version index (index.json)",
            fields=(
                _f("schema", str),
                _f("versions", list),
            ),
        ),
        ArtifactSchema(
            tag="repro-repo/1",
            kind="json",
            description="repository layout marker (repo.json)",
            fields=(
                _f("schema", str),
                _f("layout", int),
            ),
        ),
        ArtifactSchema(
            tag="repro-matrix/1",
            kind="json",
            description="columnar counter-matrix index header (matrix.json)",
            fields=(
                _f("schema", str),
                _f("n_runs", int),
                _f("counters", list),
                _f("characteristics", list),
                _f("machine_metrics", list),
                _f("dtype", str),
                _f("power_missing", int),
                _f("source_sha256", str),
                _f("payload_sha256", str),
            ),
        ),
        ArtifactSchema(
            tag="repro-forest-state/1",
            kind="json",
            description="incremental-fit forest state (refit checkpoint)",
            fields=(
                _f("schema", str),
                _f("seed", int),
                _f("spawned", int),
                _f("config", dict),
                _f("n_features", int),
                _f("feature_names", list),
                _f("generations", list),
                _f("prefix_sha256", str),
                _f("trees", list),
            ),
        ),
        ArtifactSchema(
            tag="repro-telemetry/1",
            kind="jsonl",
            description="rotating telemetry snapshot journal",
            fields=(
                _f("schema", str),
                _f("seq", int),
                _f("source", str),
                _f("elapsed_s", (int, float)),
                _f("counters", dict),
                _f("gauges", dict),
                _f("timers", dict),
                _f("provenance", dict, required=False),
                _f("breakers", dict, required=False),
                _f("server", dict, required=False),
                _f("progress", dict, required=False),
            ),
        ),
        ArtifactSchema(
            tag="repro-flightrec/1",
            kind="json",
            description="flight-recorder ring dump (post-mortem tail)",
            fields=(
                _f("schema", str),
                _f("reason", str),
                _f("dump_count", int),
                _f("capacity", int),
                _f("recorded", int),
                _f("dropped", int),
                _f("provenance", dict),
                _f("events", list),
            ),
        ),
        ArtifactSchema(
            tag="repro-serve-health/1",
            kind="json",
            description="prediction-server readiness document (ping)",
            fields=(
                _f("schema", str),
                _f("ok", bool),
                _f("status", str),
                _f("registry_digest", str, nullable=True),
                _f("breakers", dict),
                _f("inflight", int),
                _f("requests_served", int),
            ),
        ),
    )
}


def schema_for_tag(tag: str) -> ArtifactSchema | None:
    return SCHEMAS.get(tag)


def schema_for_path(path: str | Path) -> ArtifactSchema | None:
    """The registered tagless format a filename identifies, if any."""
    name = Path(path).name
    for schema in SCHEMAS.values():
        if name in schema.filename_hints:
            return schema
    return None


@dataclass
class ArtifactDocument:
    """One artifact parsed (as far as possible) for validation.

    ``records`` holds ``(lineno, payload)`` pairs — a single pair at
    line 1 for plain JSON documents, one per line for JSONL/journals.
    Parsing never raises; failures land in ``parse_error`` /
    ``torn_tail`` for the rules to report.
    """

    path: str
    schema: ArtifactSchema | None = None
    tag: str | None = None
    records: list[tuple[int, dict]] = field(default_factory=list)
    #: The JSONL line that stopped parsing, if it was the journal tail
    #: (crash-tolerant readers discard it by contract).
    torn_tail: int | None = None
    #: Parse failure anywhere else: ``(lineno, message)``.
    parse_error: tuple[int, str] | None = None


def load_artifact(path: str | Path) -> ArtifactDocument:
    """Parse an artifact file into an :class:`ArtifactDocument`.

    Format detection: a ``.jsonl`` suffix (or >1 JSON line) means a
    line-oriented journal, otherwise one JSON document; the schema
    comes from the first line's tag, falling back to filename hints
    for registered tagless formats.
    """
    path = Path(path)
    doc = ArtifactDocument(path=str(path))
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        doc.parse_error = (0, f"unreadable: {exc}")
        return doc

    lines = text.splitlines()
    jsonl = path.suffix == ".jsonl" or (
        len([ln for ln in lines if ln.strip()]) > 1
        and all(ln.lstrip()[:1] in ("{", "") for ln in lines)
    )
    if not jsonl:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            doc.parse_error = (exc.lineno, f"not valid JSON: {exc.msg}")
            return doc
        if not isinstance(data, dict):
            doc.parse_error = (1, "top-level JSON value is not an object")
            return doc
        doc.records = [(1, data)]
        doc.tag = data.get("schema")
    else:
        parsed = parse_jsonl(text)
        doc.records = parsed.records
        doc.torn_tail = parsed.torn_tail
        doc.parse_error = parsed.error
        if doc.records:
            doc.tag = doc.records[0][1].get("schema")

    if doc.tag is not None:
        doc.schema = schema_for_tag(doc.tag)
    if doc.schema is None:
        doc.schema = schema_for_path(path)
    return doc


# ---------------------------------------------------------------------------
# rules


@rule("BF601", Severity.ERROR, "artifact",
      "every artifact declares a registered schema tag")
def check_schema_tag(r, doc: ArtifactDocument):
    if doc.parse_error is not None and not doc.records:
        return  # BF604 owns unparseable documents
    if doc.schema is None:
        if doc.tag is None:
            yield r.finding(
                "no schema tag and the filename matches no registered "
                "tagless format; readers cannot tell what this is",
                subject=f"{doc.path}:1",
            )
        else:
            yield r.finding(
                f"unknown schema tag {doc.tag!r}; registered tags: "
                f"{sorted(SCHEMAS)}",
                subject=f"{doc.path}:1", tag=doc.tag,
            )
        return
    if not doc.schema.tagless:
        for lineno, payload in _tagged_records(doc):
            tag = payload.get("schema")
            if tag != doc.schema.tag:
                yield r.finding(
                    f"schema tag {tag!r} does not match the document's "
                    f"declared {doc.schema.tag!r}",
                    subject=f"{doc.path}:{lineno}", tag=tag,
                )


def _tagged_records(doc: ArtifactDocument) -> list[tuple[int, dict]]:
    """The records that must carry the schema tag (all but journal
    entry lines)."""
    if doc.schema is not None and doc.schema.kind == "journal":
        return doc.records[:1]
    return doc.records


def _spec_records(
    doc: ArtifactDocument,
) -> list[tuple[int, dict, tuple[FieldSpec, ...]]]:
    """Every record paired with the field specs that govern it."""
    if doc.schema is None:
        return []
    out = []
    for i, (lineno, payload) in enumerate(doc.records):
        if doc.schema.kind == "journal" and i > 0:
            out.append((lineno, payload, doc.schema.entry_fields))
        else:
            out.append((lineno, payload, doc.schema.fields))
    return out


@rule("BF602", Severity.ERROR, "artifact",
      "every required field of the declared schema is present")
def check_required_fields(r, doc: ArtifactDocument):
    for lineno, payload, specs in _spec_records(doc):
        missing = [
            s.name for s in specs if s.required and s.name not in payload
        ]
        if missing:
            yield r.finding(
                f"missing required field(s) {missing} of "
                f"{doc.schema.tag}",
                subject=f"{doc.path}:{lineno}", missing=missing,
                schema=doc.schema.tag,
            )


@rule("BF603", Severity.WARNING, "artifact",
      "fields match their declared types and no unknown fields drift in")
def check_field_drift(r, doc: ArtifactDocument):
    for lineno, payload, specs in _spec_records(doc):
        by_name = {s.name: s for s in specs}
        unknown = sorted(set(payload) - set(by_name))
        if unknown:
            yield r.finding(
                f"unrecognized field(s) {unknown} for {doc.schema.tag} "
                f"— renamed or future fields; readers will silently "
                f"ignore them",
                subject=f"{doc.path}:{lineno}", unknown=unknown,
                schema=doc.schema.tag,
            )
        for name, spec in by_name.items():
            if name in payload and not spec.accepts(payload[name]):
                yield r.finding(
                    f"field {name!r} of {doc.schema.tag} is "
                    f"{type(payload[name]).__name__}, expected "
                    f"{spec.type_names()}",
                    subject=f"{doc.path}:{lineno}",
                    severity=Severity.ERROR, field=name,
                    schema=doc.schema.tag,
                )


@rule("BF604", Severity.ERROR, "artifact",
      "artifacts parse; only a torn trailing journal line is tolerated")
def check_parse(r, doc: ArtifactDocument):
    if doc.parse_error is not None:
        lineno, msg = doc.parse_error
        yield r.finding(msg, subject=f"{doc.path}:{lineno}")
    if doc.torn_tail is not None:
        yield r.finding(
            "torn trailing line (crash mid-append); readers discard it, "
            "but the interrupted write should be investigated",
            subject=f"{doc.path}:{doc.torn_tail}",
            severity=Severity.WARNING,
        )


@rule("BF605", Severity.ERROR, "artifact",
      "journal entries pair an index with records or a quarantine")
def check_journal_structure(r, doc: ArtifactDocument):
    if doc.schema is None or doc.schema.kind != "journal":
        return
    if not doc.records:
        yield r.finding(
            "journal has no header line",
            subject=f"{doc.path}:1",
        )
        return
    for lineno, payload in doc.records[1:]:
        has_body = ("records" in payload) != ("quarantined" in payload)
        if not has_body:
            yield r.finding(
                "entry must carry exactly one of 'records' or "
                "'quarantined'",
                subject=f"{doc.path}:{lineno}",
            )


# ---------------------------------------------------------------------------
# entry points


def validate_artifact(path: str | Path) -> list[Finding]:
    """Every BF6xx rule against one artifact file."""
    return run_rules("artifact", load_artifact(path))


def lint_artifacts(paths: Sequence[str | Path]) -> list[Finding]:
    """Validate a batch of artifact files."""
    findings: list[Finding] = []
    for path in paths:
        findings.extend(validate_artifact(path))
    return findings


def validate_fields(
    payload: dict, tag: str, *, entry: bool = False
) -> list[str]:
    """Problems with one in-memory payload against a registered schema.

    The lightweight hook for readers (:meth:`repro.io.Journal.read`,
    :meth:`~repro.obs.manifest.Manifest.from_json`): returns human
    strings naming the violated rule, empty when the payload conforms.
    """
    schema = SCHEMAS.get(tag)
    if schema is None:
        return [f"BF601: unknown schema tag {tag!r}"]
    specs = schema.entry_fields if entry else schema.fields
    problems: list[str] = []
    missing = [
        s.name for s in specs if s.required and s.name not in payload
    ]
    if missing:
        problems.append(
            f"BF602: missing required field(s) {missing} of {tag}"
        )
    for spec in specs:
        if spec.name in payload and not spec.accepts(payload[spec.name]):
            problems.append(
                f"BF603: field {spec.name!r} is "
                f"{type(payload[spec.name]).__name__}, expected "
                f"{spec.type_names()}"
            )
    return problems
