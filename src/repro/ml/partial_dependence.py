"""Partial dependence: the marginal effect of a predictor on the response.

The paper uses partial dependence plots (Section 4.1.1 and Figs. 2b, 3b,
4b) to determine *in which direction* an important variable affects the
predicted execution time: the plot "shows how the response changes as a
predictor ... change(s)". We also provide the monotonic-correlation
summary the paper applies to these plots ("monotonic variation over the
entire range reveals strong correlation with the response, either
positively or negatively").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import span

from .forest import _PAIR_CHUNK
from .metrics import spearman_rank_correlation

__all__ = [
    "PartialDependence",
    "partial_dependence",
    "dependence_direction",
]


@dataclass
class PartialDependence:
    """Result of a 1-D partial dependence computation."""

    feature: str
    grid: np.ndarray
    values: np.ndarray
    #: Spearman-style rank correlation of grid vs. averaged response.
    monotonicity: float = field(default=float("nan"))
    #: Optional confidence band (paper Section 7: "integrating
    #: confidence intervals into the partial dependence plots would help
    #: interpretation"): per-grid-point quantiles over the ensemble's
    #: member predictions. None when the model is not an ensemble or the
    #: band was not requested.
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def direction(self, threshold: float = 0.5) -> str:
        """Qualitative direction: 'positive', 'negative' or 'mixed'."""
        if self.monotonicity >= threshold:
            return "positive"
        if self.monotonicity <= -threshold:
            return "negative"
        return "mixed"

    @property
    def has_band(self) -> bool:
        return self.lower is not None and self.upper is not None

    def band_width(self) -> np.ndarray:
        """Pointwise width of the confidence band."""
        if not self.has_band:
            raise ValueError("no confidence band computed")
        return self.upper - self.lower


def _grid(
    col: np.ndarray,
    grid_resolution: int,
    percentile_clip: tuple[float, float],
) -> np.ndarray:
    """Grid values at evenly spaced quantiles of one feature column."""
    lo, hi = np.percentile(col, percentile_clip)
    quantiles = np.linspace(*percentile_clip, grid_resolution)
    grid = np.unique(np.percentile(col, quantiles))
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 2:  # near-constant feature: flat dependence
        grid = np.array([col.min(), col.max()] if np.ptp(col) > 0 else [col[0]])
    return grid


def partial_dependence(
    model,
    X: np.ndarray,
    feature,
    grid_resolution: int = 20,
    feature_name=None,
    percentile_clip: tuple[float, float] = (0.0, 100.0),
    confidence: float | None = None,
):
    """Average model prediction as one feature sweeps a value grid.

    For each grid value ``v`` the feature column is overwritten with
    ``v`` on a copy of the full dataset and the model's predictions are
    averaged — the standard Friedman partial-dependence estimator.

    Every (feature, grid value) copy of ``X`` is stacked and predicted
    in one pass, cut into chunks of whole copies of at most about
    ``_PAIR_CHUNK`` (tree, row) pairs; each copy's mean prediction is
    one grid point's value. Forest prediction maps rows independently,
    so the result is bit-identical to walking the grid point by point
    (:func:`repro.ml._reference.partial_dependence`). A confidence
    band's per-tree block means come from the same pass.

    Parameters
    ----------
    model:
        Any object with ``predict(X) -> y``.
    X:
        Background dataset (typically the training predictors).
    feature:
        Column index to sweep, or a sequence of them: then a list of
        results comes back, one per feature in order, from one pass.
    grid_resolution:
        Number of grid points, taken at evenly spaced quantiles of the
        observed feature values (so empty value ranges are not probed).
    feature_name:
        Name of the feature (a list of names for a sequence of
        features); ``x<index>`` when omitted.
    percentile_clip:
        Percentile window of the feature's empirical distribution used
        to bound the grid, e.g. ``(5, 95)`` to avoid extrapolating tails.
    confidence:
        When set (e.g. 0.9) and the model is a tree ensemble (exposes
        ``tree_block_means``), a per-grid-point confidence band is
        computed from the spread of the individual trees' averaged
        predictions — the Section 7 "confidence intervals into the
        partial dependence plots" improvement.
    """
    if isinstance(feature, (int, np.integer)):
        return partial_dependence(
            model, X, [feature], grid_resolution=grid_resolution,
            feature_name=None if feature_name is None else [feature_name],
            percentile_clip=percentile_clip, confidence=confidence,
        )[0]
    features, feature_names = list(feature), feature_name
    if confidence is not None and not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    for j in features:
        if not 0 <= j < X.shape[1]:
            raise ValueError(f"feature index {j} out of range")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    if not features:
        return []
    if feature_names is None:
        feature_names = [f"x{j}" for j in features]

    grids = [_grid(X[:, j], grid_resolution, percentile_clip) for j in features]
    blocks = [(j, v) for j, grid in zip(features, grids) for v in grid]
    n = X.shape[0]
    n_trees = getattr(model, "n_trees", 0)
    band = confidence is not None and hasattr(model, "tree_block_means")
    values = np.empty(len(blocks))
    per_tree = np.empty((len(blocks), n_trees)) if band else None
    # Stack whole blocks, at most about _PAIR_CHUNK (tree, row) pairs
    # at a time, so the stacked copies never outgrow one descent chunk.
    per_chunk = max(1, _PAIR_CHUNK // (n * max(n_trees, 1)))
    with span(
        "ml.partial_dependence",
        n_features=len(grids),
        grid_points=len(blocks),
        n_rows=len(blocks) * n,
        n_trees=n_trees,
    ):
        for lo in range(0, len(blocks), per_chunk):
            part = blocks[lo : lo + per_chunk]
            stacked = np.tile(X, (len(part), 1))
            for b, (j, v) in enumerate(part):
                stacked[b * n : (b + 1) * n, j] = v
            if band:
                per_tree[lo : lo + len(part)] = model.tree_block_means(stacked, n)
            else:
                preds = model.predict(stacked).reshape(len(part), n)
                values[lo : lo + len(part)] = preds.mean(axis=1)
        lower = upper = None
        if band:
            values = per_tree.mean(axis=1)
            alpha = (1.0 - confidence) / 2.0
            lower, upper = np.quantile(per_tree, [alpha, 1.0 - alpha], axis=1)

    out = []
    lo = 0
    for grid, name in zip(grids, feature_names):
        block = slice(lo, lo + grid.size)
        lo += grid.size
        mono = (
            spearman_rank_correlation(grid, values[block])
            if grid.size > 1 else 0.0
        )
        out.append(PartialDependence(
            feature=name, grid=grid, values=values[block], monotonicity=mono,
            lower=None if lower is None else lower[block],
            upper=None if upper is None else upper[block],
        ))
    return out


def dependence_direction(
    model, X: np.ndarray, feature: int, **kwargs
) -> str:
    """Convenience wrapper returning only the qualitative direction."""
    return partial_dependence(model, X, feature, **kwargs).direction()
