"""Variable importance analysis (stage 3 of the BlackForest pipeline).

"While building the regression forest, the most important predictors in
determining the response are identified" (paper Section 1). This module
wraps the forest's permutation importance into a ranked, validated
analysis: ranking, top-k retention, and the reduced-model check the
paper performs ("we first validate that those variables keep similar
predictive power as the initial set", Section 6.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.partial_dependence import PartialDependence, partial_dependence

__all__ = ["ImportanceRanking", "rank_importance", "reduced_model_check", "rank_similarity"]


@dataclass
class ImportanceRanking:
    """Ranked permutation importances with their marginal directions."""

    names: list[str]                       # most important first
    scores: np.ndarray                     # %IncMSE-style scores, same order
    dependence: dict[str, PartialDependence] = field(default_factory=dict)

    def top(self, k: int) -> list[str]:
        return self.names[: max(0, k)]

    def score_of(self, name: str) -> float:
        return float(self.scores[self.names.index(name)])

    def rank_of(self, name: str) -> int:
        """0-based rank; raises ValueError for unknown predictors."""
        return self.names.index(name)

    def direction_of(self, name: str) -> str:
        pd = self.dependence.get(name)
        return pd.direction() if pd is not None else "unknown"

    def as_rows(self) -> list[tuple[str, float, str]]:
        return [
            (n, float(s), self.direction_of(n))
            for n, s in zip(self.names, self.scores)
        ]


def rank_importance(
    forest: RandomForestRegressor,
    X: np.ndarray,
    top_k_dependence: int = 8,
) -> ImportanceRanking:
    """Rank predictors and compute partial dependence for the leaders.

    The leaders' dependence comes from one stacked forest pass over
    every (feature, grid value) copy of ``X``
    (:func:`~repro.ml.partial_dependence.partial_dependence`).
    """
    ranked = forest.ranked_importance()
    names = [n for n, _ in ranked]
    scores = np.array([s for _, s in ranked])
    leaders = names[:top_k_dependence]
    curves = partial_dependence(
        forest, X, [forest.feature_names_.index(n) for n in leaders],
        feature_name=leaders,
    )
    return ImportanceRanking(
        names=names, scores=scores, dependence=dict(zip(leaders, curves))
    )


def reduced_model_check(
    forest: RandomForestRegressor,
    ranking: ImportanceRanking,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    k: int,
    tolerance: float = 0.05,
    rng: np.random.Generator | int | None = None,
) -> tuple[RandomForestRegressor, bool, float, float]:
    """Refit on only the top-k predictors and compare predictive power.

    Returns ``(reduced_forest, retains_power, full_score, reduced_score)``
    where the scores are test-set explained variance and ``retains_power``
    is True when the reduced model is within ``tolerance`` of the full
    model (the paper's criterion for keeping "the first few" variables).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = [forest.feature_names_.index(n) for n in ranking.top(k)]
    reduced = RandomForestRegressor(
        n_trees=forest.n_trees,
        min_samples_leaf=forest.min_samples_leaf,
        importance=False,
        n_jobs=forest.n_jobs,
        rng=rng,
    ).fit(X_train[:, cols], y_train, feature_names=ranking.top(k))
    full_score = forest.score(X_test, y_test)
    reduced_score = reduced.score(X_test[:, cols], y_test)
    return reduced, reduced_score >= full_score - tolerance, full_score, reduced_score


def rank_similarity(a: ImportanceRanking, b: ImportanceRanking, k: int = 10) -> float:
    """Similarity of two importance rankings in [0, 1].

    The paper defines "sufficiently similar hardware" as hardware where
    the variable importance ranking is similar (Section 6.2) and calls
    for a "similarity test" in Section 7. This implements it as a
    Rank-Biased-Overlap-style average overlap of the top-k prefixes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    overlap_sum = 0.0
    depth = min(k, len(a.names), len(b.names))
    if depth == 0:
        return 0.0
    for d in range(1, depth + 1):
        inter = len(set(a.names[:d]) & set(b.names[:d]))
        overlap_sum += inter / d
    return overlap_sum / depth
