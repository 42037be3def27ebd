"""The unified predictor protocol: one call surface for the pipeline.

The toolchain grew three predictor front-ends — :class:`BlackForest`
(bottleneck analysis), :class:`ProblemScalingPredictor` (unseen sizes,
Section 6.1) and :class:`HardwareScalingPredictor` (cross-architecture,
Section 6.2) — each with its own fit/assess conventions. This module
pins the one protocol they all implement now (see docs/api.md):

* ``fit(campaign, ...) -> Fit`` — all configuration keyword-only; the
  returned *fit artifact* carries everything the fit produced **and**
  the ``predict``/``assess`` methods, so results travel as one value;
* ``predict(...)`` — available on both the predictor (delegating to
  its most recent fit) and the fit artifact;
* ``assess(campaign, ...)`` — score against a measured campaign,
  returning a report with ``explained_variance`` /
  ``mean_relative_error``;
* ``report(campaign=None, ...)`` — on the fit artifact: build a
  structured :class:`repro.obs.report.Report` (bottleneck rankings,
  fit quality, counter tables) renderable to text/Markdown/HTML.

Each operation has exactly one spelling: positional configuration
raises ``TypeError``, and retired attribute names raise
``AttributeError``.

Batched prediction
------------------

The serving layer (:mod:`repro.serve`) answers many queries against one
fit. :func:`predict_many` is the batch entry point: it stacks the queued
query matrices into one feature matrix and runs a *single* vectorized
``predict`` pass over the stack — one ``tree.predict`` per tree for the
whole batch instead of one full forest walk per query — then splits the
result back per query. Because every pipeline predictor's ``predict`` is
an elementwise (per-row) map, the stacked pass is **bit-identical** to
the per-query loop; fit artifacts without a native ``predict_many``
transparently fall back to that loop.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = ["Predictor", "FitArtifact", "predict_many", "stacked_predict"]


def stacked_predict(predict, queries: Sequence) -> list[np.ndarray]:
    """Run row-wise ``predict`` once over stacked queries, split back.

    ``queries`` is a sequence of 2-D feature matrices (one per queued
    request; a single row is the common case). Empty queries contribute
    zero rows and get an empty prediction back. Correct for any
    ``predict`` that maps rows independently — the contract every
    pipeline predictor satisfies — and then bit-identical to
    ``[predict(q) for q in queries]``.
    """
    mats = [np.asarray(q, dtype=float) for q in queries]
    if not mats:
        return []
    widths = {m.shape[1] for m in mats if m.ndim == 2}
    if any(m.ndim != 2 for m in mats) or len(widths) > 1:
        raise ValueError(
            "predict_many queries must all be 2-D with the same number "
            f"of columns; got shapes {[m.shape for m in mats]}"
        )
    lengths = [m.shape[0] for m in mats]
    nonempty = [m for m in mats if m.shape[0]]
    if not nonempty:
        return [np.zeros(0) for _ in mats]
    stacked = nonempty[0] if len(nonempty) == 1 else np.concatenate(nonempty)
    flat = np.asarray(predict(stacked))
    out: list[np.ndarray] = []
    lo = 0
    for n in lengths:
        out.append(flat[lo : lo + n])
        lo += n
    return out


def predict_many(fit, queries: Sequence) -> list[np.ndarray]:
    """Batch-predict ``queries`` against a fit artifact.

    Uses the artifact's native ``predict_many`` (the vectorized stacked
    pass) when it has one, else falls back to a per-query ``predict``
    loop — so *every* FitArtifact supports batching, and the two paths
    agree bit for bit.
    """
    native = getattr(fit, "predict_many", None)
    if callable(native):
        return native(queries)
    return [np.asarray(fit.predict(np.asarray(q, dtype=float)))
            for q in queries]


@runtime_checkable
class FitArtifact(Protocol):
    """What ``Predictor.fit`` returns: results plus predict/assess."""

    def predict(self, X): ...

    def assess(self, campaign, **config): ...

    def report(self, campaign=None, **config): ...


@runtime_checkable
class Predictor(Protocol):
    """The unified three-method surface of every pipeline predictor."""

    def fit(self, campaign, **config) -> FitArtifact: ...

    def predict(self, X): ...

    def assess(self, campaign, **config): ...
