"""Hardware scaling: predict performance on a different (similar) GPU.

Section 6.2 of the paper: characterize the application *and* the
training hardware, inject machine characteristics (Table 2) as extra
predictors, and use the model trained on one GPU to predict execution
times measured on another.

The paper's findings, all reproducible here:

* "sufficiently similar hardware" is hardware where the variable
  importance ranking is similar — :func:`importance_similarity` is the
  similarity test Section 7 calls for;
* for MM the approach "works straightforwardly" (GTX580 -> K20m, same
  importance ranking, good accuracy, Fig. 7);
* for NW the important predictors differ across families (caching
  counters matter on Fermi, not on Kepler, Fig. 8a/8b), straightforward
  transfer fails, and the workaround is training on a **mixture of
  important variables from both architectures** (Fig. 8c);
* counters that exist on only one family (``l1_global_load_miss``,
  ``l1_shared_bank_conflict`` vs ``shared_*_replay``) are excluded
  automatically by intersecting the campaigns' counter sets (the
  Section 7 counter-evolution problem).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.preprocessing import sanitize_matrix, train_test_split
from repro.obs import span
from repro.obs.log import emit as emit_event
from repro.profiling.campaign import CampaignResult

from .importance import ImportanceRanking, rank_similarity
from .model import BlackForest
from .prediction import PredictionReport

__all__ = [
    "common_predictors",
    "per_arch_importance",
    "importance_similarity",
    "mixed_variable_set",
    "HardwareScalingFit",
    "HardwareScalingPredictor",
]


def common_predictors(a: CampaignResult, b: CampaignResult) -> list[str]:
    """Predictor counters available on both campaigns' architectures."""
    return a.merged_with(b).predictor_names


def per_arch_importance(
    campaign: CampaignResult,
    n_trees: int = 300,
    repeats: int = 1,
    rng: np.random.Generator | int | None = None,
) -> ImportanceRanking:
    """Importance ranking of one architecture's own campaign (Fig. 8a/8b).

    ``repeats`` averages the permutation importances over several
    forest fits (rankings among correlated counters are unstable for a
    single forest).
    """
    fit = BlackForest(
        n_trees=n_trees, use_pca=False, importance_repeats=repeats, rng=rng
    ).fit(campaign, include_characteristics=True)
    return fit.importance


def importance_similarity(
    a: ImportanceRanking,
    b: ImportanceRanking,
    k: int = 10,
    restrict_to_shared: bool = False,
) -> float:
    """The paper's "similarity test": average overlap of the top-k
    importance prefixes.

    By default the *raw* rankings are compared, so a counter that tops
    one architecture but does not exist (or is unimportant) on the
    other counts as disagreement — exactly the Fig. 8 situation where
    Fermi's caching counters have no Kepler counterpart.
    ``restrict_to_shared`` first drops counters unknown to either side
    (useful to ask "do the architectures agree about the counters they
    both have?").
    """
    if restrict_to_shared:
        shared = set(a.names) & set(b.names)
        a = ImportanceRanking(
            names=[n for n in a.names if n in shared],
            scores=np.array([a.score_of(n) for n in a.names if n in shared]),
        )
        b = ImportanceRanking(
            names=[n for n in b.names if n in shared],
            scores=np.array([b.score_of(n) for n in b.names if n in shared]),
        )
    return rank_similarity(a, b, k=k)


def mixed_variable_set(
    a: ImportanceRanking,
    b: ImportanceRanking,
    k: int = 4,
    always: tuple[str, ...] = ("size",),
    common: list[str] | None = None,
) -> list[str]:
    """The Fig. 8c workaround: union of both architectures' top-k
    important variables (restricted to mutually available predictors),
    plus the problem characteristics."""
    allowed = set(common) if common is not None else (set(a.names) & set(b.names))
    merged: list[str] = []
    for name in list(always) + a.top(2 * k) + b.top(2 * k):
        if name in merged:
            continue
        if name in allowed or name in always:
            merged.append(name)
    # Keep `always` + top-k of each: cap at always + 2k variables.
    cap = len(always) + 2 * k
    return merged[:cap]


@dataclass
class HardwareScalingResult:
    """Assessment of a cross-architecture prediction (Fig. 7 / Fig. 8c)."""

    report: PredictionReport
    variables: list[str]
    train_arch: str
    test_arch: str
    similarity: float | None = None


@dataclass
class HardwareScalingFit:
    """Fit artifact of :class:`HardwareScalingPredictor` (protocol type).

    ``assess`` delegates back to the predictor so the evaluation split
    keeps drawing from the predictor's RNG stream — a fit followed by
    assessments consumes exactly the randomness the pre-protocol API
    did, preserving pinned results.
    """

    predictor: "HardwareScalingPredictor"
    forest: RandomForestRegressor
    variables: list[str]
    train_arch: str
    #: ``MatrixSanitation.to_dict()`` of the training-matrix repair, or
    #: ``None`` for a clean campaign (see ``BlackForestFit.degradation``).
    degradation: dict | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict times from aligned predictor vectors."""
        return self.forest.predict(X)

    def predict_many(self, queries) -> list[np.ndarray]:
        """Batched :meth:`predict`: one stacked forest pass for many
        queued query matrices, bit-identical to the per-query loop
        (see :func:`repro.core.api.predict_many`)."""
        return self.forest.predict_many(queries)

    def assess(
        self, test: CampaignResult, *, eval_fraction: float | None = None
    ) -> HardwareScalingResult:
        """Predict the test campaign's held-out runs and compare."""
        return self.predictor.assess(test, eval_fraction=eval_fraction)

    def report(self, campaign: CampaignResult | None = None, *,
               trace=None, events=None, top_k: int = 10):
        """Build a structured :class:`~repro.obs.report.Report`."""
        from repro.obs.report import build_report

        return build_report(
            self, campaign, trace=trace, events=events, top_k=top_k
        )


class HardwareScalingPredictor:
    """Train on one GPU's campaign, predict times measured on another.

    The predictor learns the counters->time mapping on the training
    architecture (optionally over a restricted variable set) and is
    assessed on the *test* architecture's held-out runs: counter values
    measured there (plus its machine metrics / problem sizes) go in,
    predicted times come out, compared against the measured times —
    exactly the paper's protocol ("the test set is used to assess the
    random forest trained on the GTX580").
    """

    def __init__(
        self,
        n_trees: int = 300,
        min_samples_leaf: int = 5,
        test_fraction: float = 0.2,
        include_machine: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.n_trees = n_trees
        self.min_samples_leaf = min_samples_leaf
        self.test_fraction = test_fraction
        self.include_machine = include_machine
        self._rng = np.random.default_rng(rng)

    def fit(
        self,
        train: CampaignResult,
        *,
        variables: list[str] | None = None,
        common: list[str] | None = None,
    ) -> HardwareScalingFit:
        """Fit on the training campaign.

        ``common`` restricts the counter set (pass
        :func:`common_predictors` of train/test so the model never uses
        an architecture-specific counter); ``variables`` further
        restricts to an explicit predictor list (the mixed-variable
        workaround). Both are keyword-only (unified predictor protocol).
        """
        emit_event(
            "fit.start",
            stage="hardware_scaling",
            kernel=train.kernel,
            arch=train.arch,
            n_records=len(train.records),
        )
        with span(
            "hardware_scaling.fit", kernel=train.kernel, arch=train.arch
        ):
            counters = (
                common if common is not None
                else train.robust_predictor_names
            )
            X, y, names = train.matrix(
                counters=counters,
                include_characteristics=True,
                include_machine=self.include_machine,
                missing="nan",
            )
            X, y, names, sanitation = sanitize_matrix(X, y, names)
            if sanitation.degraded:
                warnings.warn(
                    f"fitting on a degraded campaign: {sanitation.summary()}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if variables is not None:
                missing = [v for v in variables if v not in names]
                if missing:
                    raise ValueError(f"unknown variables {missing}")
                keep = [names.index(v) for v in variables]
                X, names = X[:, keep], list(variables)
            else:
                # Machine metrics are constant within a single-arch training
                # campaign; keep their *columns* anyway so cross-arch feature
                # vectors align, but constants cannot influence the forest.
                pass

            self.names_ = names
            self.train_arch_ = train.arch
            X_train, _, y_train, _ = train_test_split(
                X, y, test_fraction=self.test_fraction, rng=self._rng
            )
            self.forest_ = RandomForestRegressor(
                n_trees=self.n_trees,
                min_samples_leaf=self.min_samples_leaf,
                importance=False,
                rng=self._rng,
            ).fit(X_train, y_train, feature_names=names)
        self.last_fit_ = HardwareScalingFit(
            predictor=self,
            forest=self.forest_,
            variables=list(names),
            train_arch=self.train_arch_,
            degradation=sanitation.to_dict() if sanitation.degraded else None,
        )
        emit_event(
            "fit.end",
            stage="hardware_scaling",
            kernel=train.kernel,
            arch=train.arch,
            n_variables=len(names),
            degraded=sanitation.degraded,
        )
        return self.last_fit_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict times with the most recent fit's forest."""
        if getattr(self, "forest_", None) is None:
            raise RuntimeError("call fit() before predict()/assess()")
        return self.forest_.predict(X)

    def assess(
        self, test: CampaignResult, *, eval_fraction: float | None = None
    ) -> HardwareScalingResult:
        """Predict the test campaign's held-out runs and compare.

        ``eval_fraction`` sets the fraction of the test campaign used
        for the comparison (default: the predictor's ``test_fraction``,
        the paper's held-out protocol). The whole campaign comes from an
        architecture the forest never saw, so ``eval_fraction=1.0`` is a
        valid — and lower-variance — assessment: with small sweeps, a
        20% subsample can hold only a handful of problems and the
        explained variance swings wildly with which sizes are drawn.
        """
        if getattr(self, "forest_", None) is None:
            raise RuntimeError("call fit() before predict()/assess()")
        with span(
            "hardware_scaling.assess", kernel=test.kernel, arch=test.arch
        ):
            if eval_fraction is None:
                eval_fraction = self.test_fraction
            counters = [n for n in self.names_ if n in test.counter_names]
            X, y, names = test.matrix(
                counters=counters,
                include_characteristics=True,
                include_machine=self.include_machine,
            )
            keep = []
            for v in self.names_:
                if v not in names:
                    raise ValueError(
                        f"test campaign lacks predictor {v!r} "
                        f"(restrict fit() to common_predictors first)"
                    )
                keep.append(names.index(v))
            X = X[:, keep]
            problems = np.array(
                [r.characteristics.get("size", np.nan) for r in test.records]
            )
            if eval_fraction >= 1.0:
                X_eval, y_eval, problems_eval = X, y, problems
            else:
                _, X_eval, _, y_eval, _, problems_eval = train_test_split(
                    X,
                    y,
                    problems,
                    test_fraction=eval_fraction,
                    rng=self._rng,
                )
            report = PredictionReport(
                problems=problems_eval,
                predicted_s=self.forest_.predict(X_eval),
                measured_s=y_eval,
            )
            return HardwareScalingResult(
                report=report,
                variables=list(self.names_),
                train_arch=self.train_arch_,
                test_arch=test.arch,
            )
