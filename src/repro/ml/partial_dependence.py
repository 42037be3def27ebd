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

from .metrics import spearman_rank_correlation

__all__ = ["PartialDependence", "partial_dependence", "dependence_direction"]


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


def partial_dependence(
    model,
    X: np.ndarray,
    feature: int,
    grid_resolution: int = 20,
    feature_name: str | None = None,
    percentile_clip: tuple[float, float] = (0.0, 100.0),
    confidence: float | None = None,
) -> PartialDependence:
    """Average model prediction as one feature sweeps a value grid.

    For each grid value ``v`` the feature column is overwritten with
    ``v`` on a copy of the full dataset and the model's predictions are
    averaged — the standard Friedman partial-dependence estimator.

    Parameters
    ----------
    model:
        Any object with ``predict(X) -> y``.
    X:
        Background dataset (typically the training predictors).
    feature:
        Column index to sweep.
    grid_resolution:
        Number of grid points, taken at evenly spaced quantiles of the
        observed feature values (so empty value ranges are not probed).
    percentile_clip:
        Percentile window of the feature's empirical distribution used
        to bound the grid, e.g. ``(5, 95)`` to avoid extrapolating tails.
    confidence:
        When set (e.g. 0.9) and the model is a tree ensemble (exposes
        ``trees_``), a per-grid-point confidence band is computed from
        the spread of the individual trees' averaged predictions — the
        Section 7 "confidence intervals into the partial dependence
        plots" improvement.
    """
    if confidence is not None and not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not 0 <= feature < X.shape[1]:
        raise ValueError(f"feature index {feature} out of range")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")

    col = X[:, feature]
    lo, hi = np.percentile(col, percentile_clip)
    quantiles = np.linspace(*percentile_clip, grid_resolution)
    grid = np.unique(np.percentile(col, quantiles))
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 2:  # near-constant feature: flat dependence
        grid = np.array([col.min(), col.max()] if np.ptp(col) > 0 else [col[0]])

    values = np.empty(grid.size)
    lower = upper = None
    trees = getattr(model, "trees_", None) if confidence is not None else None
    if trees:
        lower = np.empty(grid.size)
        upper = np.empty(grid.size)
        alpha = (1.0 - confidence) / 2.0

    work = X.copy()
    for i, v in enumerate(grid):
        work[:, feature] = v
        if trees:
            per_tree = np.array([t.predict(work).mean() for t in trees])
            values[i] = float(per_tree.mean())
            lower[i] = float(np.quantile(per_tree, alpha))
            upper[i] = float(np.quantile(per_tree, 1.0 - alpha))
        else:
            values[i] = float(np.mean(model.predict(work)))

    mono = spearman_rank_correlation(grid, values) if grid.size > 1 else 0.0
    name = feature_name if feature_name is not None else f"x{feature}"
    return PartialDependence(
        feature=name, grid=grid, values=values, monotonicity=mono,
        lower=lower, upper=upper,
    )


def dependence_direction(
    model, X: np.ndarray, feature: int, **kwargs
) -> str:
    """Convenience wrapper returning only the qualitative direction."""
    return partial_dependence(model, X, feature, **kwargs).direction()
