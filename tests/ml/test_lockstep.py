"""Lockstep growth and the one-descent OOB scoring vs. their oracles.

A forest chunk grows all of its trees together, one depth-first step at
a time with batched split searches, and scores the plain and permuted
OOB rows of many trees in one packed descent. Every tree, OOB
prediction, importance row and stream position must be **bit-identical**
to growing each tree alone (:class:`ReferenceRegressionTree`) and to the
per-stream forest oracle :func:`repro.ml._reference._fit_forest_tree`.
"""

import numpy as np
import pytest

import repro.ml.forest as forest_module
import repro.ml.tree as tree_module
from repro.ml import _reference
from repro.ml._reference import ReferenceRegressionTree, _fit_forest_tree
from repro.ml.forest import RandomForestRegressor, _fit_forest_chunk
from repro.ml.tree import RegressionTree, grow_trees
from repro.obs import trace
from repro.parallel import spawn_streams

NODE_ARRAYS = (
    "feature_", "threshold_", "left_", "right_", "value_", "n_node_samples_",
    "impurity_decrease_",
)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _data(rng, n, p):
    """Ties, sparse ±inf and NaN, constant and two-valued columns."""
    X = rng.normal(size=(n, p))
    for j in range(p):
        kind = rng.random()
        if kind < 0.15:
            X[:, j] = rng.normal()  # constant
        elif kind < 0.45:
            X[:, j] = np.round(X[:, j], int(rng.integers(0, 2)))  # ties
        elif kind < 0.6:
            hit = rng.random(n) < 0.08
            X[hit, j] = rng.choice([np.inf, -np.inf, np.nan], size=hit.sum())
        elif kind < 0.7:
            X[:, j] = rng.integers(0, 2, size=n)  # two values
    y = np.round(X[:, 0], 1) if np.all(np.isfinite(X[:, 0])) else rng.normal(size=n)
    y = y + np.round(rng.normal(size=n), 1)
    return X, y


def _params(rng, p):
    params = {
        "min_samples_leaf": int(rng.integers(1, 6)),
        "max_features": int(rng.integers(1, p + 1)),
        "max_depth": None if rng.random() < 0.6 else int(rng.integers(0, 6)),
    }
    if rng.random() < 0.3:
        params["min_samples_split"] = int(rng.integers(1, 12))
    return params


def _assert_same_tree(fast, ref):
    for name in NODE_ARRAYS:
        assert _same(getattr(fast, name), getattr(ref, name)), name


# The reference's np.ptp meets inf - inf on the ±inf columns.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGrowerMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_trees_stream_for_stream(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(2, 120))
            p = int(rng.integers(1, 12))
            X, y = _data(rng, n, p)
            params = _params(rng, p)
            T = int(rng.integers(1, 9))
            rows = [rng.integers(0, n, size=n) for _ in range(T)]
            root = int(rng.integers(2**31))
            streams = spawn_streams(np.random.default_rng(root), T)
            trees = [RegressionTree(rng=s, **params) for s in streams]
            grow_trees(trees, X, y, rows)
            oracle = spawn_streams(np.random.default_rng(root), T)
            for tree, boot, s, o in zip(trees, rows, streams, oracle):
                ref = ReferenceRegressionTree(rng=o, **params).fit(X[boot], y[boot])
                _assert_same_tree(tree, ref)
                assert s.bit_generator.state == o.bit_generator.state

    def test_small_caps_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = _data(rng, 90, 9)
        rows = [rng.integers(0, 90, size=90) for _ in range(6)]

        def grow():
            trees = [
                RegressionTree(min_samples_leaf=2, max_features=3, rng=s)
                for s in spawn_streams(np.random.default_rng(5), 6)
            ]
            grow_trees(trees, X, y, rows)
            return trees

        wide = grow()
        monkeypatch.setattr(tree_module, "_SPLIT_CELLS", 16)
        for a, b in zip(wide, grow()):
            _assert_same_tree(a, b)

    def test_fit_is_the_one_tree_case(self):
        rng = np.random.default_rng(3)
        X, y = _data(rng, 70, 5)
        a = RegressionTree(max_features=2, rng=np.random.default_rng(9)).fit(X, y)
        b = RegressionTree(max_features=2, rng=np.random.default_rng(9))
        grow_trees([b], X, y, [np.arange(70)])
        _assert_same_tree(a, b)

    def test_rejects_zero_max_features(self):
        with pytest.raises(ValueError, match="max_features"):
            RegressionTree(max_features=0).fit(np.ones((4, 2)), np.arange(4.0))


def _chunk_vs_oracle(X, y, cfg, T, root):
    streams = spawn_streams(np.random.default_rng(root), T)
    oracle = spawn_streams(np.random.default_rng(root), T)
    got = _fit_forest_chunk((X, y, cfg, streams))
    want = [_fit_forest_tree(X, y, cfg, s) for s in oracle]
    assert len(got) == len(want)
    for (tree, oob_idx, pred, perm), (rtree, roob, rpred, rperm) in zip(got, want):
        _assert_same_tree(tree, rtree)
        assert _same(oob_idx, roob)
        assert (pred is None) == (rpred is None)
        if pred is not None:
            assert _same(pred, rpred)
        assert _same(perm, rperm)
    for s, o in zip(streams, oracle):
        assert s.bit_generator.state == o.bit_generator.state


def _cfg(p, n_permutations=1, importance=True, **extra):
    cfg = {
        "mtry": max(p // 3, 1), "min_samples_leaf": 5, "max_depth": None,
        "importance": importance, "n_permutations": n_permutations,
    }
    cfg.update(extra)
    return cfg


class TestChunkMatchesPerStreamOracle:
    @pytest.mark.parametrize("n_permutations", [1, 3])
    def test_random_chunks(self, n_permutations):
        rng = np.random.default_rng(20 + n_permutations)
        for _ in range(6):
            n = int(rng.integers(3, 100))
            p = int(rng.integers(1, 10))
            X, y = _data(rng, n, p)
            cfg = _cfg(
                p, n_permutations, importance=bool(rng.random() < 0.8),
                min_samples_leaf=int(rng.integers(1, 6)),
                max_depth=None if rng.random() < 0.7 else int(rng.integers(0, 5)),
            )
            _chunk_vs_oracle(X, y, cfg, int(rng.integers(1, 12)),
                             int(rng.integers(2**31)))

    @pytest.mark.parametrize("n_permutations", [1, 3])
    def test_importance_chunking_and_descent_groups(self, monkeypatch,
                                                    n_permutations):
        # A batch cap below one variable's permuted copies splits every
        # tree's importance into one permuted draw per variable, and a
        # tiny pair cap gives every segment its own descent.
        rng = np.random.default_rng(7)
        X, y = _data(rng, 60, 8)
        for module in (forest_module, _reference):
            monkeypatch.setattr(module, "_IMPORTANCE_BATCH_BYTES", 2000)
        monkeypatch.setattr(forest_module, "_OOB_PAIRS", 8)
        _chunk_vs_oracle(X, y, _cfg(8, n_permutations), 5, 123)

    def test_no_oob_rows(self):
        # Two rows: a bootstrap often leaves no row out of bag.
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([0.0, 1.0])
        _chunk_vs_oracle(X, y, _cfg(2, min_samples_leaf=1), 12, 4)


class TestForestMatchesOracle:
    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    @pytest.mark.parametrize("traced", [False, True])
    def test_fit_and_refit(self, n_jobs, traced):
        rng = np.random.default_rng(31)
        X, y = _data(rng, 60, 7)
        X2 = np.vstack([X, _data(rng, 15, 7)[0]])
        y2 = np.concatenate([y, rng.normal(size=15)])
        forest = RandomForestRegressor(
            n_trees=7, n_permutations=2, n_jobs=n_jobs, rng=17,
        )
        if traced:
            with trace():
                forest.fit(X, y).refit(X2, y2, n_new_trees=4)
        else:
            forest.fit(X, y).refit(X2, y2, n_new_trees=4)

        cfg = forest._config(7)
        parent = np.random.default_rng(17)
        want = [_fit_forest_tree(X, y, cfg, s) for s in spawn_streams(parent, 7)]
        want += [_fit_forest_tree(X2, y2, cfg, s) for s in spawn_streams(parent, 4)]
        trees, oob, perm = forest.trees_, forest._tree_oob, forest._tree_perm
        assert len(trees) == len(want) == 11
        for t, (rtree, roob, rpred, rperm) in enumerate(want):
            for name in NODE_ARRAYS[:-1]:
                assert _same(getattr(trees[t], name), getattr(rtree, name)), name
            assert _same(trees[t].impurity_decrease_, rtree.impurity_decrease_)
            assert _same(oob[t][0], roob)
            assert _same(oob[t][1], rpred)
            assert _same(perm[t], rperm)
