"""Pre-vectorization CART/forest implementations, kept on purpose.

These are the scalar hot paths that :mod:`repro.ml.tree`,
:mod:`repro.ml.forest` and :mod:`repro.ml.partial_dependence` replaced
with the lockstep grower and its batched split search, the one-descent
OOB scoring of a fit chunk, the spawned-stream parallel fit, the packed
forest descent and the stacked partial-dependence pass. They survive
for two reasons:

* **correctness oracles** — the equivalence tests pin the fast
  implementations against these on randomized datasets
  (``tests/ml/test_forest_parallel.py``, ``tests/ml/test_lockstep.py``);
* **benchmark baselines** — ``repro bench`` times them against the fast
  paths and records both in ``BENCH_core.json``, so speedups are
  measured against real code, not remembered numbers.

They are *not* part of the public API and receive no new features.
"""

from __future__ import annotations

import numpy as np

from .forest import _IMPORTANCE_BATCH_BYTES
from .metrics import explained_variance, mse, spearman_rank_correlation
from .partial_dependence import PartialDependence, _grid
from .tree import _LEAF, RegressionTree, _best_split_for_feature

__all__ = [
    "ReferenceRegressionTree",
    "ReferenceRandomForestRegressor",
    "tree_apply",
    "forest_predict",
    "partial_dependence",
]


def _permutation_deltas(
    tree: RegressionTree,
    X_oob: np.ndarray,
    y_oob: np.ndarray,
    base_err: float,
    active: np.ndarray,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """OOB error increase per active variable, batched.

    Builds one stacked matrix holding a permuted copy of ``X_oob`` per
    (variable, repetition) — the permutations drawn in a single
    ``rng.permuted`` matrix op — and runs *one* tree predict over the
    stack, instead of a predict per variable as the scalar reference
    does. Variables are chunked only to bound peak memory.
    """
    m, p = X_oob.shape
    reps = n_permutations
    deltas = np.empty(active.size)
    per_var_bytes = reps * m * p * 8
    chunk = max(1, int(_IMPORTANCE_BATCH_BYTES // max(per_var_bytes, 1)))
    for lo in range(0, active.size, chunk):
        vars_ = active[lo : lo + chunk]
        k = vars_.size * reps
        # One matrix op: row (a, r) is an independent permutation of
        # variable vars_[a]'s OOB column.
        perms = rng.permuted(np.repeat(X_oob[:, vars_].T, reps, axis=0), axis=1)
        stack = np.tile(X_oob, (k, 1))
        for a, j in enumerate(vars_):
            for r in range(reps):
                row = a * reps + r
                stack[row * m : (row + 1) * m, j] = perms[row]
        errs = ((tree.predict(stack).reshape(k, m) - y_oob) ** 2).mean(axis=1)
        deltas[lo : lo + vars_.size] = (
            errs.reshape(vars_.size, reps).mean(axis=1) - base_err
        )
    return deltas


def _fit_forest_tree(
    X: np.ndarray, y: np.ndarray, cfg: dict, rng: np.random.Generator
) -> tuple[RegressionTree, np.ndarray, np.ndarray | None, np.ndarray]:
    """Grow one tree from its own stream; returns OOB artifacts too.

    The per-stream oracle of ``repro.ml.forest._fit_forest_chunk``: one
    tree grown alone and its OOB rows scored by per-tree predicts, with
    the stream drawn in the same order (bootstrap, node candidates, OOB
    permutations).
    """
    n, p = X.shape
    boot = rng.integers(0, n, size=n)
    oob_mask = np.ones(n, dtype=bool)
    oob_mask[boot] = False
    tree = RegressionTree(
        max_depth=cfg["max_depth"],
        min_samples_leaf=cfg["min_samples_leaf"],
        max_features=cfg["mtry"],
        rng=rng,
    ).fit(X[boot], y[boot])

    oob_idx = np.where(oob_mask)[0]
    pred_oob: np.ndarray | None = None
    perm_row = np.zeros(p)
    if oob_idx.size:
        X_oob = X[oob_idx]
        pred_oob = tree.predict(X_oob)
        if cfg["importance"]:
            y_oob = y[oob_idx]
            base_err = float(np.mean((pred_oob - y_oob) ** 2))
            # Permuting a constant column changes nothing; skip it.
            active = np.flatnonzero(np.ptp(X_oob, axis=0) != 0.0)
            if active.size:
                perm_row[active] = _permutation_deltas(
                    tree, X_oob, y_oob, base_err, active,
                    cfg["n_permutations"], rng,
                )
    return tree, oob_idx, pred_oob, perm_row


def tree_apply(tree, X: np.ndarray) -> np.ndarray:
    """One tree's leaf per row: the per-tree descent on a shrinking
    active-row index, as ``RegressionTree.apply`` ran it before the
    packed descent."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    idx = np.flatnonzero(tree.feature_[node] != _LEAF)
    while idx.size:
        cur = node[idx]
        go_left = X[idx, tree.feature_[cur]] <= tree.threshold_[cur]
        nxt = np.where(go_left, tree.left_[cur], tree.right_[cur])
        node[idx] = nxt
        idx = idx[tree.feature_[nxt] != _LEAF]
    return node


def forest_predict(trees, X: np.ndarray) -> np.ndarray:
    """The per-tree forest predict loop: ``acc += tree.predict(X)``."""
    X = np.asarray(X, dtype=float)
    acc = np.zeros(X.shape[0])
    for tree in trees:
        acc += tree.value_[tree_apply(tree, X)]
    return acc / len(trees)


def partial_dependence(
    forest,
    X: np.ndarray,
    feature: int,
    grid_resolution: int = 20,
    feature_name: str | None = None,
    percentile_clip: tuple[float, float] = (0.0, 100.0),
    confidence: float | None = None,
) -> PartialDependence:
    """Partial dependence of a forest, one forest walk per grid point
    and, for the band, one tree walk per (grid point, tree)."""
    X = np.asarray(X, dtype=float)
    grid = _grid(X[:, feature], grid_resolution, percentile_clip)
    values = np.empty(grid.size)
    lower = upper = None
    if confidence is not None:
        lower = np.empty(grid.size)
        upper = np.empty(grid.size)
        alpha = (1.0 - confidence) / 2.0
    work = X.copy()
    for i, v in enumerate(grid):
        work[:, feature] = v
        if confidence is not None:
            per_tree = np.array([
                t.value_[tree_apply(t, work)].mean() for t in forest.trees_
            ])
            values[i] = float(per_tree.mean())
            lower[i] = float(np.quantile(per_tree, alpha))
            upper[i] = float(np.quantile(per_tree, 1.0 - alpha))
        else:
            values[i] = float(np.mean(forest_predict(forest.trees_, work)))
    mono = spearman_rank_correlation(grid, values) if grid.size > 1 else 0.0
    return PartialDependence(
        feature=feature_name if feature_name is not None else f"x{feature}",
        grid=grid, values=values, monotonicity=mono, lower=lower, upper=upper,
    )


class ReferenceRegressionTree:
    """The seed repo's per-feature-loop CART fit (scalar split scan)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 5,
        min_samples_split: int | None = None,
        max_features: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = (
            min_samples_split if min_samples_split is not None else 2 * min_samples_leaf
        )
        self.max_features = max_features
        self._rng = np.random.default_rng(rng)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceRegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y length mismatch")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")

        n, p = X.shape
        mtry = p if self.max_features is None else min(self.max_features, p)
        if mtry < 1:
            raise ValueError("max_features must be >= 1")

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_samples: list[int] = []
        impurity_decrease = np.zeros(p)

        stack: list[tuple[np.ndarray, int, int]] = []

        def new_node(idx: np.ndarray) -> int:
            node_id = len(feature)
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(float(y[idx].mean()))
            n_samples.append(int(idx.size))
            return node_id

        root = new_node(np.arange(n))
        stack.append((np.arange(n), root, 0))

        while stack:
            idx, node_id, depth = stack.pop()
            if (
                idx.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                continue
            y_node = y[idx]
            if np.ptp(y_node) == 0.0:
                continue

            node_sse = float(np.sum((y_node - y_node.mean()) ** 2))
            candidates = self._rng.permutation(p)
            best_sse = np.inf
            best_feat = _LEAF
            best_thr = np.nan
            examined = 0
            for j in candidates:
                col = X[idx, j]
                if col[0] == col[-1] and np.ptp(col) == 0.0:
                    continue
                res = _best_split_for_feature(col, y_node, self.min_samples_leaf)
                examined += 1
                if res is not None and res[0] < best_sse:
                    best_sse, best_thr = res[0], res[1]
                    best_feat = int(j)
                if examined >= mtry and best_feat != _LEAF:
                    break

            if best_feat == _LEAF or best_sse >= node_sse:
                continue

            mask = X[idx, best_feat] <= best_thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if left_idx.size == 0 or right_idx.size == 0:
                continue

            feature[node_id] = best_feat
            threshold[node_id] = best_thr
            impurity_decrease[best_feat] += node_sse - best_sse
            lid = new_node(left_idx)
            rid = new_node(right_idx)
            left[node_id], right[node_id] = lid, rid
            stack.append((left_idx, lid, depth + 1))
            stack.append((right_idx, rid, depth + 1))

        self.n_features_ = p
        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=float)
        self.left_ = np.asarray(left, dtype=np.intp)
        self.right_ = np.asarray(right, dtype=np.intp)
        self.value_ = np.asarray(value, dtype=float)
        self.n_node_samples_ = np.asarray(n_samples, dtype=np.intp)
        self.impurity_decrease_ = impurity_decrease
        return self

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_} columns, got {X.shape}"
            )
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = self.feature_[node] != _LEAF
        while np.any(active):
            idx = np.where(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature_[cur]] <= self.threshold_[cur]
            node[idx] = np.where(go_left, self.left_[cur], self.right_[cur])
            active[idx] = self.feature_[node[idx]] != _LEAF
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value_[self.apply(X)]


class ReferenceRandomForestRegressor:
    """The seed repo's forest fit: one shared RNG stream, per-variable
    OOB permutation loop with one ``tree.predict`` call per
    (variable, repetition)."""

    def __init__(
        self,
        n_trees: int = 500,
        max_features: int | None = None,
        min_samples_leaf: int = 5,
        max_depth: int | None = None,
        importance: bool = True,
        n_permutations: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.importance = importance
        self.n_permutations = n_permutations
        self._rng = np.random.default_rng(rng)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: list[str] | None = None,
    ) -> "ReferenceRandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        n, p = X.shape
        mtry = self.max_features if self.max_features is not None else max(p // 3, 1)

        self.trees_: list[ReferenceRegressionTree] = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n, dtype=np.intp)
        perm_delta = np.zeros((self.n_trees, p)) if self.importance else None

        for t in range(self.n_trees):
            boot = self._rng.integers(0, n, size=n)
            oob_mask = np.ones(n, dtype=bool)
            oob_mask[boot] = False
            tree = ReferenceRegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=mtry,
                rng=self._rng,
            ).fit(X[boot], y[boot])
            self.trees_.append(tree)

            oob_idx = np.where(oob_mask)[0]
            if oob_idx.size == 0:
                continue
            X_oob = X[oob_idx]
            pred_oob = tree.predict(X_oob)
            oob_sum[oob_idx] += pred_oob
            oob_count[oob_idx] += 1

            if self.importance:
                base_err = np.mean((pred_oob - y[oob_idx]) ** 2)
                for j in range(p):
                    col = X_oob[:, j]
                    if np.ptp(col) == 0.0:
                        continue
                    delta = 0.0
                    X_perm = X_oob.copy()
                    for _ in range(self.n_permutations):
                        X_perm[:, j] = self._rng.permutation(col)
                        err = np.mean((tree.predict(X_perm) - y[oob_idx]) ** 2)
                        delta += err - base_err
                    perm_delta[t, j] = delta / self.n_permutations

        self.n_features_ = p
        self.feature_names_ = (
            list(feature_names)
            if feature_names is not None
            else [f"x{j}" for j in range(p)]
        )

        seen = oob_count > 0
        self.oob_prediction_ = np.full(n, np.nan)
        self.oob_prediction_[seen] = oob_sum[seen] / oob_count[seen]
        if np.any(seen):
            self.oob_mse_ = mse(y[seen], self.oob_prediction_[seen])
            self.oob_explained_variance_ = explained_variance(
                y[seen], self.oob_prediction_[seen]
            )
        else:
            self.oob_mse_ = np.nan
            self.oob_explained_variance_ = np.nan

        if self.importance:
            mean_delta = perm_delta.mean(axis=0)
            sd = perm_delta.std(axis=0, ddof=1) if self.n_trees > 1 else np.ones(p)
            sd = np.where(sd > 0.0, sd, 1.0)
            self.importance_ = mean_delta / (sd / np.sqrt(self.n_trees))
            self.importance_raw_ = mean_delta
        else:
            self.importance_ = None
            self.importance_raw_ = None

        purity = np.zeros(p)
        for tree in self.trees_:
            purity += tree.impurity_decrease_
        self.impurity_importance_ = purity / self.n_trees
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return forest_predict(self.trees_, X)
