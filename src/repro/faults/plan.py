"""Deterministic, seed-driven fault plans (the chaos layer).

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules installed
with the :func:`fault_injection` context manager. Production code asks
:func:`should_inject` at a handful of *sites*; with no plan installed
that is one module-global load plus an ``is None`` check — the same
zero-cost-when-disabled discipline as :mod:`repro.obs`.

Determinism is the whole point: a fault decision is a pure function of
``(plan seed, site, rule, context)``. Rules either match their context
exactly (``match={"problem": 4096}`` fires on that problem wherever and
whenever it runs) or fire with a probability derived from a SHA-256
hash of the context — never from call order, process identity, or a
shared mutable counter. A campaign therefore quarantines the *same*
runs under ``n_jobs=1`` and ``n_jobs=16``, and a chaos test can pin its
exact outcome.

Injection sites and the modes they accept:

========================  =============================================
site                      modes
========================  =============================================
``profiler.launch``       ``raise``, ``hang``, ``nan_counters``,
                          ``drop_counters``
``gpusim.launch``         ``raise``, ``truncate_trace``
``parallel.worker``       ``crash``
``io.write``              ``torn_file``, ``corrupt_file``
``serve.request``         ``raise``, ``delay``
``registry.load``         ``corrupt``, ``missing``
========================  =============================================

``io.write`` fires inside :func:`repro.io.atomic_write`, the one
whole-file write path, with context ``file`` (the file name) and
``dir`` (its parent directory's name — the campaign dirname for a
repository file).

The two serve-side sites drive ``repro chaos --serve``:
``serve.request`` fires inside the prediction server's request handling
(``raise`` → typed ``internal_error`` response, ``delay`` → sleep
``payload={"seconds": …}`` so deadlines trip), and ``registry.load``
fires inside :meth:`FitRegistry.load <repro.serve.registry.FitRegistry.load>`
(``corrupt`` → :class:`RegistryIntegrityError
<repro.serve.registry.RegistryIntegrityError>`, feeding the circuit
breaker; ``missing`` → :class:`FileNotFoundError`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "fault_injection",
    "active_plan",
    "should_inject",
    "SITES",
]

#: Valid modes per injection site.
SITES: dict[str, tuple[str, ...]] = {
    "profiler.launch": ("raise", "hang", "nan_counters", "drop_counters"),
    "gpusim.launch": ("raise", "truncate_trace"),
    "parallel.worker": ("crash",),
    "io.write": ("torn_file", "corrupt_file"),
    "serve.request": ("raise", "delay"),
    "registry.load": ("corrupt", "missing"),
}


def _stable_uniform(seed: int, site: str, ctx: dict) -> float:
    """Uniform in [0, 1) from a cross-process-stable hash of the context.

    ``repr`` of the sorted context items feeds SHA-256 (never ``hash()``,
    which is salted per process), so the draw is identical in every
    worker and on every run with the same plan seed.
    """
    payload = repr((seed, site, sorted(ctx.items()))).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One chaos rule: where, what, and when to inject.

    Parameters
    ----------
    site:
        Injection site (a key of :data:`SITES`).
    mode:
        Failure mode, validated against the site.
    match:
        Context equality constraints; the rule only considers contexts
        where every listed key equals the given value (e.g.
        ``{"problem": 4096}``). Keys absent from the context never
        match. ``None`` matches every context of the site.
    probability:
        Chance the rule fires on a matching context, decided by a
        stable hash of the context (default 1.0 = always).
    payload:
        Mode-specific knobs — ``counters`` (list) for
        ``nan_counters``/``drop_counters``, ``fraction`` (float) for
        ``truncate_trace``/``torn_file``. The special key ``times``
        (int, any mode) bounds how often the rule fires per matching
        context: ``{"times": 1}`` models a *transient* fault — the first
        attempt fails, the retry succeeds. A launch and all its retries
        run in one process, and a fan-out's workers start from the
        parent's counts and hand theirs back, so outcomes stay
        independent of ``n_jobs``.
    """

    site: str
    mode: str
    match: tuple = ()
    probability: float = 1.0
    payload: tuple = ()

    def __init__(
        self,
        site: str,
        mode: str,
        match: dict | None = None,
        probability: float = 1.0,
        payload: dict | None = None,
    ) -> None:
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {sorted(SITES)}"
            )
        if mode not in SITES[site]:
            raise ValueError(
                f"mode {mode!r} is invalid for site {site!r} "
                f"(valid: {SITES[site]})"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(
            self, "match", tuple(sorted((match or {}).items()))
        )
        object.__setattr__(self, "probability", float(probability))
        object.__setattr__(
            self, "payload", tuple(sorted((payload or {}).items()))
        )

    @property
    def payload_dict(self) -> dict:
        return dict(self.payload)

    def matches(self, ctx: dict) -> bool:
        for key, value in self.match:
            if key not in ctx or ctx[key] != value:
                return False
        return True

    def fires(self, seed: int, ctx: dict) -> bool:
        if not self.matches(ctx):
            return False
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        # The spec itself is folded into the hash so two probabilistic
        # rules at one site make independent decisions.
        return (
            _stable_uniform(seed, f"{self.site}:{self.mode}:{self.match}", ctx)
            < self.probability
        )


@dataclass
class FaultPlan:
    """An ordered rule set plus the seed driving probabilistic rules.

    ``decide`` returns the first rule that fires for a context; fired
    decisions are appended to :attr:`events` for reporting. Determinism
    never depends on the events. A process fan-out runs each task under
    a :meth:`fork` and folds what fired there back with :meth:`merge`,
    so the events and ``times`` counts cover the whole run at any
    ``n_jobs``.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0
    events: list[tuple[str, str, dict]] = field(default_factory=list)
    #: Fire counts per (rule index, context) — only consulted by rules
    #: with a ``times`` payload bound.
    _fired: dict = field(default_factory=dict)
    #: The ``times`` counts this plan was forked with (see :meth:`fork`).
    _forked: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec).__name__}")

    def decide(self, site: str, ctx: dict) -> FaultSpec | None:
        for rule_idx, spec in enumerate(self.specs):
            if spec.site != site or not spec.fires(self.seed, ctx):
                continue
            limit = spec.payload_dict.get("times")
            if limit is not None:
                key = (rule_idx, repr(sorted(ctx.items())))
                if self._fired.get(key, 0) >= limit:
                    continue
                self._fired[key] = self._fired.get(key, 0) + 1
            self.events.append((site, spec.mode, dict(ctx)))
            return spec
        return None

    def fork(self) -> "FaultPlan":
        """A copy for a worker process: the same rules, seed and
        ``times`` counts, and no events yet."""
        return FaultPlan(
            self.specs,
            self.seed,
            _fired=dict(self._fired),
            _forked=dict(self._fired),
        )

    def merge(self, fork: "FaultPlan") -> None:
        """Fold back what fired under a :meth:`fork` of this plan: its
        events, and the ``times`` counts it added."""
        self.events.extend(fork.events)
        for key, count in fork._fired.items():
            added = count - fork._forked.get(key, 0)
            if added:
                self._fired[key] = self._fired.get(key, 0) + added

    def summary(self) -> dict:
        """Per (site, mode) fired-event counts, for chaos reports."""
        counts: dict[str, int] = {}
        for site, mode, _ in self.events:
            key = f"{site}:{mode}"
            counts[key] = counts.get(key, 0) + 1
        return counts


# -- module-level injection state --------------------------------------------

_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The installed fault plan, or None when injection is disabled."""
    return _PLAN


def should_inject(site: str, **ctx) -> FaultSpec | None:
    """The hook production code calls at an injection site.

    Returns the firing :class:`FaultSpec` (the caller enacts the
    failure) or None. Disabled cost: one global load, one ``is None``
    check.
    """
    plan = _PLAN
    if plan is None:
        return None
    spec = plan.decide(site, ctx)
    if spec is not None:
        from repro.obs import metrics as _metrics

        _metrics.inc("faults.injected", site=site, mode=spec.mode)
    return spec


@contextmanager
def fault_injection(plan: FaultPlan | None):
    """Install a fault plan for the duration of the block.

    Passing ``None`` disables injection inside the block (useful to
    shield a sub-step from an outer plan). The previous plan is always
    restored, so chaos experiments nest without leaking state.
    """
    global _PLAN
    if plan is not None and not isinstance(plan, FaultPlan):
        raise TypeError("fault_injection expects a FaultPlan or None")
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous
