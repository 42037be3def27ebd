"""Unit tests for partial dependence."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.partial_dependence import dependence_direction, partial_dependence


class LinearModel:
    """Deterministic stand-in with predict()."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def predict(self, X):
        return X @ self.coef


class TestPartialDependence:
    def test_linear_positive_effect(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        pd = partial_dependence(LinearModel([2.0, 0.0, 0.0]), X, 0)
        assert pd.monotonicity == pytest.approx(1.0)
        assert pd.direction() == "positive"
        # slope recovered on the grid
        slope = np.diff(pd.values) / np.diff(pd.grid)
        assert np.allclose(slope, 2.0)

    def test_linear_negative_effect(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        pd = partial_dependence(LinearModel([0.0, -1.5]), X, 1)
        assert pd.direction() == "negative"

    def test_irrelevant_feature_flat(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        pd = partial_dependence(LinearModel([3.0, 0.0]), X, 1)
        assert np.ptp(pd.values) == pytest.approx(0.0, abs=1e-12)

    def test_nonmonotone_is_mixed(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(200, 1))

        class Quad:
            def predict(self, X):
                return X[:, 0] ** 2

        pd = partial_dependence(Quad(), X, 0)
        assert pd.direction() == "mixed"

    def test_grid_respects_percentile_clip(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 1))
        pd = partial_dependence(LinearModel([1.0]), X, 0, percentile_clip=(10, 90))
        assert pd.grid.min() >= np.percentile(X[:, 0], 10) - 1e-12
        assert pd.grid.max() <= np.percentile(X[:, 0], 90) + 1e-12

    def test_feature_name_propagates(self):
        X = np.random.default_rng(5).normal(size=(50, 2))
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0, feature_name="occ")
        assert pd.feature == "occ"

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0)
        assert pd.grid.size >= 1

    def test_with_forest(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(150, 3))
        y = 5 * X[:, 1]
        rf = RandomForestRegressor(n_trees=40, rng=0).fit(X, y)
        assert dependence_direction(rf, X, 1) == "positive"

    def test_bad_feature_index(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError):
            partial_dependence(LinearModel([1.0, 1.0]), X, 5)

    def test_bad_resolution(self):
        X = np.random.default_rng(7).normal(size=(10, 1))
        with pytest.raises(ValueError):
            partial_dependence(LinearModel([1.0]), X, 0, grid_resolution=1)


class TestConfidenceBand:
    """Section 7 extension: confidence intervals on partial dependence."""

    def fitted(self, n=150, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = 4 * X[:, 0] + 0.3 * rng.normal(size=n)
        rf = RandomForestRegressor(n_trees=60, importance=False, rng=1).fit(X, y)
        return rf, X

    def test_band_present_when_requested(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0, confidence=0.9)
        assert pd.has_band
        assert pd.lower.shape == pd.values.shape

    def test_band_brackets_mean(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0, confidence=0.9)
        assert np.all(pd.lower <= pd.values + 1e-12)
        assert np.all(pd.upper >= pd.values - 1e-12)

    def test_wider_confidence_wider_band(self):
        rf, X = self.fitted()
        narrow = partial_dependence(rf, X, 0, confidence=0.5)
        wide = partial_dependence(rf, X, 0, confidence=0.95)
        assert wide.band_width().mean() >= narrow.band_width().mean()

    def test_no_band_by_default(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0)
        assert not pd.has_band
        with pytest.raises(ValueError):
            pd.band_width()

    def test_non_ensemble_model_gets_no_band(self):
        X = np.random.default_rng(2).normal(size=(50, 2))
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0, confidence=0.9)
        assert not pd.has_band

    def test_invalid_confidence(self):
        rf, X = self.fitted()
        with pytest.raises(ValueError):
            partial_dependence(rf, X, 0, confidence=1.5)


def _oracle_rank(a):
    """Partial dependence's former private ranker (0-based average
    ranks), kept as the oracle for the shared Spearman metric."""
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=float)
    ranks[order] = np.arange(a.size, dtype=float)
    sorted_a = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j)
        i = j + 1
    return ranks


def _oracle_spearman(x, y):
    rx, ry = _oracle_rank(x), _oracle_rank(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


class TestMonotonicityMetric:
    def test_shared_spearman_matches_former_formula_bit_for_bit(self):
        from repro.ml.metrics import spearman_rank_correlation

        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            # Few distinct values, so ties (and all-tied columns) occur.
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.normal(size=n).round(int(rng.integers(0, 3)))
            assert spearman_rank_correlation(x, y) == _oracle_spearman(x, y)

    def test_monotonicity_uses_the_shared_metric(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        pd = partial_dependence(LinearModel([-1.0, 0.5]), X, 0)
        assert pd.monotonicity == _oracle_spearman(pd.grid, pd.values)
