"""Packed forest descent and stacked partial dependence vs. their oracles.

The forest keeps its trees' node arrays concatenated and predicts every
(tree, row) pair in one descent, summing leaf values in tree order; the
importance stage stacks every (feature, grid value) copy of the data
into one pass. Both must be **bit-identical** to the per-tree and
per-grid loops retained in :mod:`repro.ml._reference`, which walk each
tree with their own descent.
"""

import numpy as np
import pytest

import repro.ml.forest as forest_module
from repro.core.importance import rank_importance
from repro.ml import _reference
from repro.ml.forest import RandomForestRegressor
from repro.ml.incremental import forest_state, restore_forest
from repro.ml.partial_dependence import partial_dependence
from repro.ml.tree import RegressionTree, tree_to_dict
from repro.obs import trace
from repro.serve.artifact import forest_from_dict, forest_to_dict

NODE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")


def _data(rng, n=90, p=6):
    X = rng.normal(size=(n, p))
    X[:, 1] = np.round(X[:, 1], 1)  # ties
    y = 2.0 * X[:, 0] + np.sin(X[:, 1]) + rng.normal(scale=0.2, size=n)
    return X, y


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_oracle(forest, rng, row_counts=(0, 1, 2, 7, 33)):
    p = forest.n_features_
    for n in row_counts:
        X = rng.normal(size=(n, p))
        assert _same(forest.predict(X), _reference.forest_predict(forest.trees_, X))
        for tree in forest.trees_:
            assert np.array_equal(tree.apply(X), _reference.tree_apply(tree, X))
    queries = [rng.normal(size=(k, p)) for k in (1, 0, 3, 1, 8)]
    for got, q in zip(forest.predict_many(queries), queries):
        assert _same(got, _reference.forest_predict(forest.trees_, q))


def _assert_single_copy(forest):
    for name in NODE_ARRAYS:
        packed = forest._nodes[name]
        assert packed.size == sum(getattr(t, name).size for t in forest.trees_)
        for tree in forest.trees_:
            assert np.shares_memory(getattr(tree, name), packed)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def fitted(rng):
    X, y = _data(rng)
    return RandomForestRegressor(n_trees=25, rng=3).fit(X, y), X, y


class TestPackedPredict:
    def test_fitted_forest(self, fitted, rng):
        forest, _, _ = fitted
        _assert_matches_oracle(forest, rng)
        _assert_single_copy(forest)

    def test_refit_repacks_appended_trees(self, rng):
        X, y = _data(rng, n=120)
        forest = RandomForestRegressor(n_trees=12, rng=5).fit(X[:80], y[:80])
        forest.refit(X, y, n_new_trees=9)
        assert len(forest.trees_) == 21
        assert forest._starts.size == 21
        _assert_single_copy(forest)
        _assert_matches_oracle(forest, rng)

    def test_incremental_restore(self, fitted, rng):
        forest, X, y = fitted
        restored = restore_forest(forest_state(forest), X, y)
        _assert_single_copy(restored)
        _assert_matches_oracle(restored, rng)
        Q = rng.normal(size=(40, X.shape[1]))
        assert _same(restored.predict(Q), forest.predict(Q))

    def test_forest_from_dict(self, fitted, rng):
        forest, X, _ = fitted
        loaded = forest_from_dict(forest_to_dict(forest))
        _assert_single_copy(loaded)
        _assert_matches_oracle(loaded, rng)
        assert forest_to_dict(loaded) == forest_to_dict(forest)

    def test_packed_forests_hold_no_tree_objects(self, fitted):
        _, X, y = fitted
        fresh = RandomForestRegressor(n_trees=5, rng=1).fit(X, y)
        fresh.predict(X)
        assert fresh._trees is None
        loaded = forest_from_dict(forest_to_dict(fresh))  # reads trees_
        assert fresh._trees is not None
        loaded.predict(X)
        assert loaded._trees is None
        # Rebuilt trees carry the fit's impurity decreases (zeros once
        # loaded: they do not travel in an artifact).
        assert np.array_equal(
            fresh.impurity_importance_,
            np.mean([t.impurity_decrease_ for t in fresh.trees_], axis=0),
        )
        assert not any(t.impurity_decrease_.any() for t in loaded.trees_)

    def test_row_counts_around_the_chunk_size(self, fitted, rng):
        forest, _, _ = fitted
        rows = forest_module._PAIR_CHUNK // len(forest.trees_)
        _assert_matches_oracle(forest, rng, row_counts=(rows - 1, rows, rows + 1))

    def test_nan_rows_follow_the_per_tree_descent(self, fitted, rng):
        forest, X, _ = fitted
        Q = rng.normal(size=(12, X.shape[1]))
        Q[::3, 0] = np.nan
        assert _same(forest.predict(Q), _reference.forest_predict(forest.trees_, Q))

    def test_single_leaf_trees(self, rng):
        X, y = _data(rng, n=40)
        stumps = RandomForestRegressor(n_trees=6, max_depth=0, rng=1).fit(X, y)
        assert all(t.n_nodes == 1 for t in stumps.trees_)
        _assert_matches_oracle(stumps, rng)
        # Mixed: leaf-only trees between grown ones.
        grown = RandomForestRegressor(n_trees=3, rng=2).fit(X, y)
        mixed = forest_from_dict({
            "n_features": X.shape[1],
            "feature_names": [f"x{j}" for j in range(X.shape[1])],
            "trees": [
                tree_to_dict(t)
                for pair in zip(stumps.trees_, grown.trees_) for t in pair
            ],
        })
        _assert_matches_oracle(mixed, rng)

    def test_negative_zero_leaves_sum_like_a_zeroed_accumulator(self, rng):
        X = rng.normal(size=(20, 2))
        split = {"feature": [0, -1, -1], "threshold": [0.0, None, None],
                 "left": [1, -1, -1], "right": [2, -1, -1],
                 "value": [-0.0, -0.0, 1.0]}
        stump = {"feature": [-1], "threshold": [None], "left": [-1],
                 "right": [-1], "value": [-0.0]}
        forest = forest_from_dict({
            "n_features": 2, "feature_names": ["a", "b"],
            "trees": [stump, split, stump],
        })
        got = forest.predict(X)
        assert _same(got, _reference.forest_predict(forest.trees_, X))
        assert not np.signbit(got).any()

    def test_lone_tree_apply_is_the_one_tree_descent(self, rng):
        X, y = _data(rng)
        tree = RegressionTree(max_features=3, rng=4).fit(X, y)
        Q = rng.normal(size=(50, X.shape[1]))
        assert np.array_equal(tree.apply(Q), _reference.tree_apply(tree, Q))


class TestStackedPartialDependence:
    @staticmethod
    def _assert_same_curve(got, want):
        assert got.feature == want.feature
        assert _same(got.grid, want.grid)
        assert _same(got.values, want.values)
        assert got.monotonicity == want.monotonicity or (
            np.isnan(got.monotonicity) and np.isnan(want.monotonicity)
        )
        for band in ("lower", "upper"):
            a, b = getattr(got, band), getattr(want, band)
            assert (a is None and b is None) or _same(a, b)

    @pytest.mark.parametrize("confidence", [None, 0.9])
    def test_matches_per_grid_loop(self, rng, confidence):
        X, y = _data(rng, n=70, p=7)
        X[:, 4] = 1.5                          # constant: a one-point grid
        X[:, 5] = np.where(X[:, 5] > 1.2, 2.0, 1.0)  # near-constant: two
        forest = RandomForestRegressor(n_trees=30, rng=9).fit(X, y)
        features = list(range(7))
        curves = partial_dependence(forest, X, features, confidence=confidence)
        assert curves[4].grid.size == 1 and curves[5].grid.size == 2
        for j, got in zip(features, curves):
            want = _reference.partial_dependence(forest, X, j, confidence=confidence)
            self._assert_same_curve(got, want)
            self._assert_same_curve(
                partial_dependence(forest, X, j, confidence=confidence), want
            )

    def test_band_chunks_hold_whole_blocks(self, rng, monkeypatch):
        X, y = _data(rng, n=30)
        forest = RandomForestRegressor(n_trees=10, rng=2).fit(X, y)
        want = [_reference.partial_dependence(forest, X, j, confidence=0.8)
                for j in (0, 2)]
        # Smaller than one block (10 trees x 30 rows) and a few blocks.
        for chunk in (7, 900, 1000):
            monkeypatch.setattr(forest_module, "_PAIR_CHUNK", chunk)
            got = partial_dependence(forest, X, [0, 2], confidence=0.8)
            for g, w in zip(got, want):
                self._assert_same_curve(g, w)

    def test_rank_importance_dependence_matches_per_grid_loop(self, fitted):
        forest, X, _ = fitted
        ranking = rank_importance(forest, X, top_k_dependence=4)
        assert list(ranking.dependence) == ranking.names[:4]
        for name, got in ranking.dependence.items():
            j = forest.feature_names_.index(name)
            want = _reference.partial_dependence(forest, X, j, feature_name=name)
            self._assert_same_curve(got, want)

    def test_one_span_labels_the_stacked_pass(self, fitted):
        forest, X, _ = fitted
        with trace() as tracer:
            curves = partial_dependence(forest, X, [0, 1, 2])
        (record,) = tracer.find("ml.partial_dependence")
        grid_points = sum(c.grid.size for c in curves)
        assert record.labels == {
            "n_features": 3,
            "grid_points": grid_points,
            "n_rows": grid_points * X.shape[0],
            "n_trees": len(forest.trees_),
        }

    def test_no_features_no_pass(self, fitted):
        forest, X, _ = fitted
        with trace() as tracer:
            assert partial_dependence(forest, X, []) == []
        assert tracer.find("ml.partial_dependence") == []

    def test_tree_block_means_rejects_partial_blocks(self, fitted):
        forest, X, _ = fitted
        with pytest.raises(ValueError, match="whole blocks"):
            forest.tree_block_means(X[:10], 3)
