"""Determinism sanitizer: AST rules BF401–BF405 over the pipeline source.

The whole value proposition of this tool — bit-identical campaigns at
any ``n_jobs``, checkpoint resume, content-addressed repositories —
rests on the hot pipeline being *deterministic by construction*. These
rules flag source constructs that quietly break that property:

* **BF401** — unseeded randomness (stdlib ``random.*`` calls, legacy
  ``np.random.*`` global-state calls, a bare ``default_rng()``): every
  random draw must come from an explicitly seeded, explicitly threaded
  :class:`numpy.random.Generator` (see :mod:`repro.parallel`).
* **BF402** — ``time.time()`` in pipeline code: wall-clock time jumps
  (NTP, DST) and differs across workers; ordering and measurement must
  use ``time.monotonic()`` / ``time.perf_counter()``.
* **BF403** — iterating a ``set``/``frozenset`` into ordered output:
  string-hash randomization makes set order vary across *processes*,
  so any list/loop built from one differs between workers and runs.
* **BF404** — direct ``open(..., "w")`` / ``Path.write_text`` in
  persistence modules (``profiling/``, ``obs/``, ``serve/``, ``ml/``):
  durable artifacts must go through :func:`repro.io.atomic_write` so a
  crash can never leave a torn file.
* **BF405** — ``multiprocessing``/``concurrent.futures`` outside
  :mod:`repro.parallel`: process fan-out must flow through the one
  audited helper that guarantees order-stable, bit-identical results.

The pass is *scoped by reachability*: :func:`pipeline_modules` walks the
package import graph from the pipeline entry points (``Campaign.run``,
the predictor ``fit``/``predict`` layers) and only modules on those
paths are linted, so CLI frontends and benchmarks can write files and
read clocks freely.

The shipped tree must lint clean — :func:`lint_determinism` self-hosts
in CI. The few justified exceptions live in ``allowlist.txt`` next to
this module, one line each: ``<rule> <path-suffix> <qualname> — why``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding, Severity, rule, run_rules

__all__ = [
    "AllowlistEntry",
    "load_allowlist",
    "apply_allowlist",
    "pipeline_modules",
    "lint_determinism",
    "lint_determinism_file",
    "ALLOWLIST_PATH",
]

#: Packaged allowlist of justified suppressions (≤ 10 entries, enforced
#: by tests/analysis/test_determinism_rules.py).
ALLOWLIST_PATH = Path(__file__).with_name("allowlist.txt")

#: Modules whose code constitutes the pipeline entry points; everything
#: importable from these (transitively, within the package) is in scope.
ENTRY_MODULES = (
    "profiling/campaign.py",   # Campaign.run
    "profiling/profiler.py",   # per-launch profiling
    "core/model.py",           # BlackForest.fit
    "core/prediction.py",      # ProblemScalingPredictor.fit/predict
    "core/hardware.py",        # HardwareScalingPredictor.fit/predict
    "ml/forest.py",            # forest fit fan-out
)

#: stdlib ``random`` functions that consume the unseeded global state.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "seed", "getrandbits", "triangular",
}

#: Legacy ``numpy.random`` module-level functions backed by the hidden
#: global RandomState.
_NP_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "normal",
    "uniform", "standard_normal", "binomial", "poisson", "exponential",
}

#: Builtins that consume an iterable order-insensitively; feeding them a
#: set is fine.
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set",
    "frozenset",
}

#: Path fragments marking modules that persist pipeline artifacts (the
#: scope of BF404).
_PERSISTENCE_PATHS = ("/profiling/", "/obs/", "/serve/", "/ml/")


# ---------------------------------------------------------------------------
# shared AST walking with context


def _walk(tree: ast.AST) -> Iterator[tuple[ast.AST, list[ast.AST], str]]:
    """Yield ``(node, ancestors, qualname)`` for every node in the tree.

    ``qualname`` is the dotted enclosing class/function path (empty at
    module level) — what allowlist entries match against.
    """

    def visit(node: ast.AST, ancestors: list[ast.AST], names: list[str]):
        yield node, ancestors, ".".join(names)
        scoped = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if scoped:
            names.append(node.name)
        ancestors.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, ancestors, names)
        ancestors.pop()
        if scoped:
            names.pop()

    yield from visit(tree, [], [])


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.seed`` -> ``["np", "random", "seed"]`` (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


# ---------------------------------------------------------------------------
# rules


@rule("BF401", Severity.ERROR, "determinism",
      "pipeline code draws randomness only from seeded Generator streams")
def check_unseeded_random(r, tree: ast.AST, path: str):
    for node, _ancestors, qualname in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) == 2 and chain[0] == "random" \
                and chain[1] in _STDLIB_RANDOM_FNS:
            yield r.finding(
                f"stdlib random.{chain[1]}() uses the unseeded global "
                f"state; draw from a seeded numpy Generator stream "
                f"(repro.parallel.spawn_streams) instead",
                subject=f"{path}:{node.lineno}", qualname=qualname,
            )
        elif (len(chain) == 3 and chain[0] in ("np", "numpy")
                and chain[1] == "random" and chain[2] in _NP_RANDOM_FNS):
            yield r.finding(
                f"numpy.random.{chain[2]}() uses the hidden global "
                f"RandomState; draw from an explicit seeded Generator",
                subject=f"{path}:{node.lineno}", qualname=qualname,
            )
        elif chain and chain[-1] == "default_rng" and not node.args \
                and not node.keywords:
            yield r.finding(
                "default_rng() without a seed is entropy-seeded — every "
                "run differs; thread an explicit seed or parent stream",
                subject=f"{path}:{node.lineno}", qualname=qualname,
            )


@rule("BF402", Severity.ERROR, "determinism",
      "pipeline timing uses monotonic clocks, never wall-clock time.time()")
def check_wallclock(r, tree: ast.AST, path: str):
    for node, _ancestors, qualname in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _attr_chain(node.func) == ["time", "time"]:
            yield r.finding(
                "time.time() is wall-clock (jumps under NTP/DST and "
                "differs across workers); use time.monotonic() for "
                "ordering/deadlines or time.perf_counter() for intervals",
                subject=f"{path}:{node.lineno}", qualname=qualname,
            )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset"
        ):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return _is_set_expr(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _consumed_order_insensitively(ancestors: list[ast.AST]) -> bool:
    """True when the nearest enclosing call folds the iteration order
    away (``sorted(... for x in some_set)`` is deterministic)."""
    for ancestor in reversed(ancestors):
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            if isinstance(func, ast.Name) \
                    and func.id in _ORDER_INSENSITIVE_CONSUMERS:
                return True
            return False
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Module)):
            return False
    return False


@rule("BF403", Severity.WARNING, "determinism",
      "set/frozenset iteration never feeds ordered output unsorted")
def check_set_iteration(r, tree: ast.AST, path: str):
    def flag(lineno: int, qualname: str) -> Finding:
        return r.finding(
            "iterating a set into ordered output — string-hash "
            "randomization makes the order differ between processes; "
            "wrap in sorted(...)",
            subject=f"{path}:{lineno}", qualname=qualname,
        )

    for node, ancestors, qualname in _walk(tree):
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield flag(node.lineno, qualname)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if any(_is_set_expr(gen.iter) for gen in node.generators) \
                    and not _consumed_order_insensitively(ancestors):
                yield flag(node.lineno, qualname)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple") and node.args \
                and _is_set_expr(node.args[0]):
            yield flag(node.lineno, qualname)


def _write_mode(call: ast.Call) -> str | None:
    """The mode string of an ``open(...)`` call, if statically known."""
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@rule("BF404", Severity.ERROR, "determinism",
      "persistence modules write artifacts via repro.io.atomic_write, "
      "never a bare open('w')")
def check_raw_writes(r, tree: ast.AST, path: str):
    normalized = "/" + path.replace("\\", "/").lstrip("/")
    if not any(frag in normalized for frag in _PERSISTENCE_PATHS):
        return
    for node, _ancestors, qualname in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode(node)
            if mode is not None and "w" in mode:
                yield r.finding(
                    "bare open(..., 'w') can tear the artifact on a "
                    "crash; route the write through repro.io.atomic_write",
                    subject=f"{path}:{node.lineno}", qualname=qualname,
                )
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "write_text":
            yield r.finding(
                "Path.write_text is a non-atomic in-place write; route "
                "the write through repro.io.atomic_write",
                subject=f"{path}:{node.lineno}", qualname=qualname,
            )


@rule("BF405", Severity.ERROR, "determinism",
      "process fan-out happens only through repro.parallel")
def check_multiprocessing(r, tree: ast.AST, path: str):
    normalized = path.replace("\\", "/")
    if normalized.endswith("repro/parallel.py"):
        return
    for node, _ancestors, qualname in _walk(tree):
        modules: list[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        for mod in modules:
            root = mod.split(".")[0]
            if root in ("multiprocessing", "concurrent"):
                yield r.finding(
                    f"direct {mod} use outside repro.parallel — fan out "
                    f"through repro.parallel.process_map so results stay "
                    f"order-stable and bit-identical at any n_jobs",
                    subject=f"{path}:{node.lineno}", qualname=qualname,
                )


# ---------------------------------------------------------------------------
# allowlist


@dataclass(frozen=True)
class AllowlistEntry:
    """One justified suppression: rule + path suffix + qualname + why."""

    rule: str
    path: str
    qualname: str
    justification: str

    def matches(self, finding: Finding) -> bool:
        if finding.rule != self.rule:
            return False
        subject_path = finding.subject.rsplit(":", 1)[0].replace("\\", "/")
        if not subject_path.endswith(self.path):
            return False
        qualname = str(finding.context.get("qualname", ""))
        return self.qualname == "*" or qualname == self.qualname \
            or qualname.startswith(self.qualname + ".")


def load_allowlist(path: str | Path = ALLOWLIST_PATH) -> list[AllowlistEntry]:
    """Parse an allowlist file; every entry must carry a justification."""
    entries: list[AllowlistEntry] = []
    path = Path(path)
    if not path.exists():
        return entries
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, justification = line.partition("—")
        justification = justification.strip()
        parts = head.split()
        if len(parts) != 3 or not justification:
            raise ValueError(
                f"{path}:{lineno}: allowlist entries are "
                f"'<rule> <path-suffix> <qualname> — <justification>', "
                f"got {line!r}"
            )
        entries.append(AllowlistEntry(
            rule=parts[0], path=parts[1], qualname=parts[2],
            justification=justification,
        ))
    return entries


def apply_allowlist(
    findings: Iterable[Finding], entries: Iterable[AllowlistEntry]
) -> list[Finding]:
    """Drop findings covered by an allowlist entry."""
    entries = list(entries)
    return [
        f for f in findings
        if not any(entry.matches(f) for entry in entries)
    ]


# ---------------------------------------------------------------------------
# reachability + orchestration


def _resolve_import(
    module: str, root: Path, names: Iterable[str] = ()
) -> list[Path]:
    """Package-internal files an import statement pulls in.

    ``module`` is dotted and package-absolute (``repro.obs.log``) or
    already stripped of the package prefix. External modules resolve to
    nothing.
    """
    parts = module.split(".")
    if parts and parts[0] == root.name:
        parts = parts[1:]
    elif module.startswith(root.name) or not parts:
        parts = parts
    base = root.joinpath(*parts) if parts else root
    out: list[Path] = []
    if base.with_suffix(".py").is_file():
        out.append(base.with_suffix(".py"))
    elif (base / "__init__.py").is_file():
        out.append(base / "__init__.py")
        for name in names:
            sub = base / f"{name}.py"
            if sub.is_file():
                out.append(sub)
            elif (base / name / "__init__.py").is_file():
                out.append(base / name / "__init__.py")
    return out


def _module_imports(path: Path, root: Path) -> set[Path]:
    """Package-internal modules one file imports (top-level or lazy)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
    except SyntaxError:
        return set()
    package = root.name
    imports: set[Path] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package \
                        or alias.name.startswith(package + "."):
                    imports.update(_resolve_import(alias.name, root))
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level:
                base = path.parent
                for _ in range(node.level - 1):
                    base = base.parent
                try:
                    prefix = base.relative_to(root).parts
                except ValueError:
                    continue
                module = ".".join(prefix + tuple(
                    (node.module or "").split(".")
                )).strip(".")
                imports.update(_resolve_import(module, root, names))
            elif node.module and (
                node.module == package
                or node.module.startswith(package + ".")
            ):
                imports.update(_resolve_import(node.module, root, names))
    return imports


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).parent


def pipeline_modules(root: str | Path | None = None) -> list[Path]:
    """Every package module reachable (via imports) from the pipeline
    entry points, sorted — the determinism sanitizer's scope."""
    root = _package_root() if root is None else Path(root)
    frontier = [
        root / entry for entry in ENTRY_MODULES if (root / entry).is_file()
    ]
    seen: set[Path] = set()
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        frontier.extend(_module_imports(module, root) - seen)
    return sorted(seen)


def lint_determinism_file(path: str | Path) -> list[Finding]:
    """Run the BF4xx rules on one Python file (no allowlist applied)."""
    path = Path(path)
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
    except SyntaxError as exc:
        from .findings import get_rule

        return [get_rule("BF401").finding(
            f"cannot parse: {exc}", subject=str(path),
            severity=Severity.ERROR,
        )]
    return run_rules("determinism", tree, str(path))


def lint_determinism(
    root: str | Path | None = None,
    allowlist: str | Path | None = ALLOWLIST_PATH,
) -> list[Finding]:
    """The BF4xx pass over every pipeline-reachable module.

    ``allowlist=None`` disables suppression (tests use this to assert
    the raw findings); the default applies the packaged allowlist.
    """
    findings: list[Finding] = []
    for module in pipeline_modules(root):
        findings.extend(lint_determinism_file(module))
    if allowlist is not None:
        findings = apply_allowlist(findings, load_allowlist(allowlist))
    return findings
