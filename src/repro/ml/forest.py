"""Random forest regression with the interpretation tools BlackForest relies on.

Follows Breiman's algorithm as summarized in Section 4.1.1 of the paper:

1. compose ``n_trees`` bootstrap samples from the original data,
2. for each sample grow an unpruned regression tree, choosing at each
   node a random subset of ``mtry`` predictors,
3. predict new data by averaging the predictions of the trees.

Two interpretation tools are provided (paper Section 4.1.1):

* **variable importance** — estimated by permuting a variable's values
  in each tree's out-of-bag (OOB) sample and measuring the increase in
  prediction error, carried out tree by tree as the forest is built
  (R ``randomForest``'s ``%IncMSE``), plus the impurity-decrease
  importance (``IncNodePurity``);
* **partial dependence** — see :mod:`repro.ml.partial_dependence`.

OOB aggregates give the validation quantities the paper reports:
``mse_oob`` and "% Var explained".

Determinism and parallelism
---------------------------

Every tree draws its bootstrap, per-node feature subsamples and OOB
permutations from its *own* RNG stream, spawned from the forest's
generator with ``SeedSequence.spawn`` semantics (``Generator.spawn``).
Tree ``t`` therefore sees the same stream whether the forest is fitted
serially or across a process pool, and aggregation runs in tree order —
so ``n_jobs > 1`` is **bit-for-bit identical** to ``n_jobs=1`` for a
fixed seed (pinned by ``tests/ml/test_forest_parallel.py``).

The OOB permutation importance is evaluated with one batched
``tree.predict`` over all (variable, repetition) permuted copies per
tree, with the permutations themselves drawn as a single matrix op
(``Generator.permuted``), instead of one predict call per variable. The
pre-vectorization implementation is preserved in
:mod:`repro.ml._reference` as the oracle and benchmark baseline.
"""

from __future__ import annotations

import numpy as np

from repro.obs import span
from repro.parallel import (
    chunk_bounds,
    process_map,
    resolve_n_jobs,
    spawn_streams,
)

from .metrics import explained_variance, mse
from .tree import RegressionTree

__all__ = ["RandomForestRegressor"]

# Cap on the stacked permuted-OOB matrix built per tree for the batched
# importance predict; larger jobs fall back to per-variable chunks.
_IMPORTANCE_BATCH_BYTES = 16 << 20


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

    Pure function of ``(X, y, cfg, rng state)`` — the property that
    makes process-pool fits bit-identical to serial ones.
    """
    n, p = X.shape
    boot = rng.integers(0, n, size=n)
    oob_mask = np.ones(n, dtype=bool)
    oob_mask[boot] = False
    with span("forest.tree"):
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


def _fit_forest_chunk(args) -> list[tuple]:
    """Worker: fit a contiguous run of trees, one per stream."""
    X, y, cfg, rngs = args
    return [_fit_forest_tree(X, y, cfg, rng) for rng in rngs]


class RandomForestRegressor:
    """Bagged ensemble of CART regression trees.

    Parameters
    ----------
    n_trees:
        Number of trees (R default: 500).
    max_features:
        ``mtry``; None uses the R regression default ``max(p // 3, 1)``.
    min_samples_leaf:
        Terminal node size (R regression default 5).
    max_depth:
        Optional depth cap; None grows unpruned trees.
    importance:
        When True (default), permutation importance is computed tree by
        tree during :meth:`fit`, as in R with ``importance=TRUE``.
    n_permutations:
        OOB permutation repetitions per tree and variable; >1 smooths
        the importance estimate for tiny OOB samples.
    n_jobs:
        Worker processes for :meth:`fit`; 1 (default) fits in-process,
        -1 uses every core. Results are bit-for-bit independent of
        ``n_jobs`` (per-tree spawned RNG streams, ordered aggregation).
    rng:
        Seed or Generator; per-tree child streams are spawned from it
        for bootstraps, feature subsampling and permutations.
    """

    def __init__(
        self,
        n_trees: int = 500,
        max_features: int | None = None,
        min_samples_leaf: int = 5,
        max_depth: int | None = None,
        importance: bool = True,
        n_permutations: int = 1,
        n_jobs: int = 1,
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
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._rng = np.random.default_rng(rng)
        #: Integer seed when one was given — what makes the forest's RNG
        #: position reconstructable for incremental-fit state capture
        #: (:mod:`repro.ml.incremental`); None for opaque Generators.
        self._seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        #: Total child streams spawned from ``_rng`` so far. Spawning is
        #: the only way fit/refit consume the generator, so (seed,
        #: spawned) pins its position exactly.
        self._spawned = 0

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: list[str] | None = None,
    ) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, p = X.shape
        if n != y.size:
            raise ValueError("X and y length mismatch")
        if n < 2:
            raise ValueError("need at least 2 observations")
        if feature_names is not None and len(feature_names) != p:
            raise ValueError("feature_names length mismatch")

        with span(
            "forest.fit",
            n_trees=self.n_trees,
            n_samples=n,
            n_features=p,
            n_jobs=min(self.n_jobs, self.n_trees),
        ):
            results = self._grow(X, y, self.n_trees, self._config(p))

        # Per-tree artifacts kept for life: what refit() re-aggregates
        # over and incremental-fit state serializes.
        self.trees_: list[RegressionTree] = []
        self._tree_oob: list[tuple[np.ndarray, np.ndarray | None]] = []
        self._tree_perm: list[np.ndarray] = []
        for tree, oob_idx, pred_oob, perm_row in results:
            self.trees_.append(tree)
            self._tree_oob.append((oob_idx, pred_oob))
            self._tree_perm.append(perm_row)
        self._generations = [{"n_trees": self.n_trees, "n_rows": n}]

        self.n_features_ = p
        self.feature_names_ = (
            list(feature_names)
            if feature_names is not None
            else [f"x{j}" for j in range(p)]
        )
        self._aggregate(X, y)
        return self

    def _config(self, p: int) -> dict:
        mtry = self.max_features if self.max_features is not None else max(p // 3, 1)
        return {
            "mtry": mtry,
            "min_samples_leaf": self.min_samples_leaf,
            "max_depth": self.max_depth,
            "importance": self.importance,
            "n_permutations": self.n_permutations,
        }

    def _grow(
        self, X: np.ndarray, y: np.ndarray, k: int, cfg: dict
    ) -> list[tuple]:
        """Grow ``k`` trees from the next ``k`` child streams.

        Streams continue the forest RNG's SeedSequence spawn counter, so
        tree ``t`` of a fit-then-refit sequence sees the same stream as
        tree ``t`` of any replay of that sequence — at any ``n_jobs``.
        """
        streams = spawn_streams(self._rng, k)
        self._spawned += k
        jobs = min(self.n_jobs, k)
        if jobs > 1:
            bounds = chunk_bounds(k, jobs)
            tasks = [
                (X, y, cfg, streams[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            results = [
                tree
                for chunk in process_map(_fit_forest_chunk, tasks, jobs)
                for tree in chunk
            ]
        else:
            results = [_fit_forest_tree(X, y, cfg, rng) for rng in streams]
        return results

    def _aggregate(self, X: np.ndarray, y: np.ndarray) -> None:
        """Recompute every derived quantity from the per-tree artifacts.

        Runs in tree order — float sums land in the same order
        regardless of worker scheduling or how many refit generations
        contributed trees, which is what keeps fit/refit sequences
        bit-identical at any ``n_jobs``.
        """
        n, p = X.shape
        T = len(self.trees_)
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n, dtype=np.intp)
        # Per-tree accumulators for permutation importance (Breiman 2001):
        # importance_j = mean over trees of (MSE_oob_permuted_j - MSE_oob),
        # later normalized by the standard error across trees (%IncMSE).
        perm_delta = np.zeros((T, p)) if self.importance else None
        for t, (oob_idx, pred_oob) in enumerate(self._tree_oob):
            if pred_oob is not None:
                # Trees from earlier generations only saw a prefix of the
                # rows; their OOB indices address that prefix, which is
                # stable under append-only growth.
                oob_sum[oob_idx] += pred_oob
                oob_count[oob_idx] += 1
            if self.importance:
                perm_delta[t] = self._tree_perm[t]

        self._X_train = X
        self._y_train = y

        seen = oob_count > 0
        self.oob_prediction_ = np.full(n, np.nan)
        self.oob_prediction_[seen] = oob_sum[seen] / oob_count[seen]
        if np.any(seen):
            self.oob_mse_ = mse(y[seen], self.oob_prediction_[seen])
            self.oob_explained_variance_ = explained_variance(
                y[seen], self.oob_prediction_[seen]
            )
        else:  # pathological: every sample in-bag for every tree
            self.oob_mse_ = np.nan
            self.oob_explained_variance_ = np.nan

        if self.importance:
            mean_delta = perm_delta.mean(axis=0)
            sd = perm_delta.std(axis=0, ddof=1) if T > 1 else np.ones(p)
            sd = np.where(sd > 0.0, sd, 1.0)
            # %IncMSE: mean increase normalized by its standard error.
            self.importance_ = mean_delta / (sd / np.sqrt(T))
            self.importance_raw_ = mean_delta
        else:
            self.importance_ = None
            self.importance_raw_ = None

        purity = np.zeros(p)
        for tree in self.trees_:
            purity += tree.impurity_decrease_
        self.impurity_importance_ = purity / T

    def refit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_new_trees: int | None = None,
    ) -> "RandomForestRegressor":
        """Incrementally extend a fitted forest with appended rows.

        ``X``/``y`` are the **full** data so far: the rows the forest was
        fitted on, unchanged, followed by the appended rows (append-only
        contract; shrinking or reshaping raises). Only ``n_new_trees``
        new trees are grown — on all data so far, from RNG streams that
        continue the forest's spawn sequence — and every derived
        aggregate (OOB, importance) is recomputed in tree order, so a
        fit-then-refit sequence is bit-for-bit reproducible at any
        ``n_jobs``. Existing trees are never re-grown.

        ``n_new_trees`` defaults to the old tree count scaled by the
        fraction of rows that are new (at least 1). A refit with no new
        rows and no explicit tree count is a no-op.
        """
        if not getattr(self, "trees_", None) or not getattr(
            self, "_generations", None
        ):
            raise RuntimeError("fit the forest before refit()")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, p = X.shape
        if n != y.size:
            raise ValueError("X and y length mismatch")
        if p != self.n_features_:
            raise ValueError(
                f"refit X must keep the fitted width {self.n_features_}, "
                f"got {p} columns"
            )
        n_prev = int(self._generations[-1]["n_rows"])
        if n < n_prev:
            raise ValueError(
                f"refit is append-only: forest was fitted on {n_prev} rows, "
                f"got {n}"
            )
        if n_new_trees is None:
            if n == n_prev:
                return self
            n_new_trees = max(1, round(len(self.trees_) * (n - n_prev) / n))
        if n_new_trees < 1:
            raise ValueError("n_new_trees must be >= 1")

        with span(
            "forest.refit",
            n_new_trees=n_new_trees,
            n_samples=n,
            n_features=p,
            n_jobs=min(self.n_jobs, n_new_trees),
        ):
            results = self._grow(X, y, n_new_trees, self._config(p))
        for tree, oob_idx, pred_oob, perm_row in results:
            self.trees_.append(tree)
            self._tree_oob.append((oob_idx, pred_oob))
            self._tree_perm.append(perm_row)
        self._generations.append({"n_trees": n_new_trees, "n_rows": n})
        self.n_trees = len(self.trees_)
        self._aggregate(X, y)
        return self

    # -- prediction ------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average of the per-tree predictions."""
        X = self._validate_predict_input(X)
        if X.shape[0] == 0:
            return np.zeros(0)
        acc = np.zeros(X.shape[0])
        for tree in self.trees_:
            acc += tree.predict(X)
        return acc / len(self.trees_)

    def _validate_predict_input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            raise ValueError(
                f"X must be 2-D with shape (n_samples, {self.n_features_}); "
                f"got a 1-D array of shape {X.shape} — reshape a single "
                f"sample with X.reshape(1, -1)"
            )
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_} columns, got {X.shape}"
            )
        return X

    def predict_many(self, queries) -> list[np.ndarray]:
        """Batched :meth:`predict` over many query matrices.

        Stacks the queries into one feature matrix and runs a single
        forest pass — one ``tree.predict`` per tree for the whole batch
        (reusing the iterative :meth:`RegressionTree.apply` descent)
        instead of one full forest walk per query — then splits the
        averaged predictions back per query. Bit-identical to
        ``[self.predict(q) for q in queries]``: prediction is an
        elementwise per-row map and the per-tree accumulation order is
        unchanged.
        """
        mats = [self._validate_predict_input(q) for q in queries]
        if not mats:
            return []
        lengths = [m.shape[0] for m in mats]
        nonempty = [m for m in mats if m.shape[0]]
        if not nonempty:
            return [np.zeros(0) for _ in mats]
        stacked = (
            nonempty[0] if len(nonempty) == 1 else np.concatenate(nonempty)
        )
        with span(
            "forest.predict_many",
            n_queries=len(mats),
            n_rows=int(stacked.shape[0]),
        ):
            flat = self.predict(stacked)
        out: list[np.ndarray] = []
        lo = 0
        for n in lengths:
            out.append(flat[lo : lo + n])
            lo += n
        return out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Explained variance on a held-out set (paper's validation check)."""
        return explained_variance(y, self.predict(X))

    # -- interpretation ----------------------------------------------------

    def ranked_importance(self) -> list[tuple[str, float]]:
        """Features sorted by decreasing permutation importance."""
        if self.importance_ is None:
            raise RuntimeError("fit with importance=True first")
        order = np.argsort(self.importance_)[::-1]
        return [(self.feature_names_[j], float(self.importance_[j])) for j in order]

    def top_features(self, k: int) -> list[str]:
        """Names of the ``k`` most important predictors."""
        return [name for name, _ in self.ranked_importance()[:k]]
