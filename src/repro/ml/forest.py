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

The trees of a chunk (all of them when fitting serially, one chunk per
worker otherwise) are grown in lockstep by
:func:`repro.ml.tree.grow_trees`, each from its own stream. Their OOB
permutations are drawn per tree as single matrix ops
(``Generator.permuted``), and the plain and permuted OOB rows of many
trees are scored in one packed descent. Since every tree reads only its
own stream, which trees share a chunk changes no number. The per-tree
path (:func:`repro.ml._reference._fit_forest_tree`) and the
pre-vectorization forest are kept in :mod:`repro.ml._reference` as
oracles and benchmark baselines.

Packed prediction
-----------------

Wherever the tree list is set (fit, refit, incremental restore, a
servable artifact's load), the trees' node arrays are concatenated into
one set of forest arrays and the per-tree objects are dropped, so the
nodes are held once; ``trees_`` rebuilds the trees, as views into the
packed arrays, when something asks for them.
:meth:`RandomForestRegressor.predict` runs one
:func:`~repro.ml.tree.descend` over every (tree, row) pair and sums the
leaf values down the tree axis in tree order: the same additions in the
same order as the per-tree ``acc += tree.predict(X)`` loop it replaced
(kept as :func:`repro.ml._reference.forest_predict`), so predictions
are bit-identical. Rows are taken in chunks of at most ``_PAIR_CHUNK``
(tree, row) pairs to bound the descent's memory.
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
from .tree import RegressionTree, descend, grow_trees

__all__ = ["RandomForestRegressor"]

# Cap on the stacked permuted-OOB matrix built per tree for the batched
# importance predict; larger jobs fall back to per-variable chunks.
_IMPORTANCE_BATCH_BYTES = 16 << 20

# Most (tree, row) pairs one packed descent advances at once. A 300-tree,
# 8-feature partial-dependence pass (3.1M pairs) took 0.33 s and peaked
# at 6.8 MB traced with 2**15-pair chunks, 0.50 s and 28 MB at 2**18,
# and 250 MB at 2**22: small chunks keep the descent's index arrays in
# cache as well as bounding its memory.
_PAIR_CHUNK = 1 << 15

# Most (tree, row) pairs one OOB descent of a fit chunk advances at once;
# one tree's plain or permuted rows are never split across descents. On a
# 150-tree, 103 x 33 chunk, a forked worker's private memory grew 0.8 MB
# more than the per-tree path's with 2**12 pairs, 0.5 MB with 2**11 and
# 0.1 MB with 2**10; a 300-tree fit took 0.33, 0.33 and 0.43 s.
_OOB_PAIRS = 1 << 11

#: The per-node arrays a forest keeps concatenated, one copy for all
#: its trees; all but ``n_node_samples_`` are read by the descent.
_NODE_ARRAYS = (
    "feature_", "threshold_", "left_", "right_", "value_", "n_node_samples_",
)


def _fit_forest_chunk(args) -> list[tuple]:
    """Worker: fit a contiguous run of trees, one per stream.

    Each stream draws its bootstrap, then its tree's node candidates
    (the lockstep grower), then its OOB permutations, in that order; a
    tree depends on its own stream only, so which trees share a chunk
    changes no result. Returns ``(tree, oob_idx, pred_oob, perm_row)``
    per stream, in order.
    """
    X, y, cfg, rngs = args
    n = X.shape[0]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    trees = [
        RegressionTree(
            max_depth=cfg["max_depth"],
            min_samples_leaf=cfg["min_samples_leaf"],
            max_features=cfg["mtry"],
            rng=rng,
        )
        for rng in rngs
    ]
    with span("forest.grow", n_trees=len(trees)):
        grow_trees(trees, X, y, boots)
    with span("forest.oob", n_trees=len(trees)):
        return _score_oob(trees, boots, X, y, cfg)


def _score_oob(
    trees: list[RegressionTree],
    boots: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    cfg: dict,
) -> list[tuple]:
    """OOB predictions and permutation-importance rows of a chunk.

    Each tree first draws its permutations from its own stream as the
    per-tree path does: one ``Generator.permuted`` matrix op per
    ``_IMPORTANCE_BATCH_BYTES`` chunk of variables. Then the plain and
    permuted OOB rows of consecutive trees go through one packed
    :func:`~repro.ml.tree.descend` of about ``_OOB_PAIRS`` pairs, and
    errors and deltas are computed per tree on the same ``(k, m)``
    blocks, with the same arithmetic, as
    :func:`repro.ml._reference._permutation_deltas`.
    """
    n, p = X.shape
    reps = cfg["n_permutations"]
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature_", "threshold_", "left_", "right_", "value_")
    )
    starts = np.cumsum([0] + [tree.n_nodes for tree in trees[:-1]], dtype=np.intp)
    results = []
    base_err = {}
    # Descent segments waiting for the next descent: (tree, vars, perms),
    # vars None for the tree's plain OOB rows, which precede its
    # permuted rows; each segment is one tree's OOB rows, once, or once
    # per (variable, repetition) with that column permuted.
    pending: list[tuple] = []
    pending_rows = 0

    def segment_rows(job) -> int:
        t, _, perms = job
        m = results[t][1].size
        return m if perms is None else perms.shape[0] * m

    def flush() -> None:
        stack = np.empty((pending_rows, p))
        tree_of = np.empty(pending_rows, dtype=np.intp)
        at = 0
        for job in pending:
            t, vars_, perms = job
            size = segment_rows(job)
            oob_idx = results[t][1]
            block = stack[at : at + size].reshape(-1, oob_idx.size, p)
            block[:] = X[oob_idx]
            if perms is not None:
                block[
                    np.arange(perms.shape[0])[:, None],
                    np.arange(oob_idx.size),
                    np.repeat(vars_, reps)[:, None],
                ] = perms
            tree_of[at : at + size] = starts[t]
            at += size
        pred = value.take(descend(
            feature, threshold, left, right, tree_of, stack,
            rows=np.arange(pending_rows),
        ))
        at = 0
        for job in pending:
            t, vars_, perms = job
            size = segment_rows(job)
            y_oob = y[results[t][1]]
            if perms is None:
                pred_oob = pred[at : at + size].copy()
                results[t][2] = pred_oob
                base_err[t] = float(np.mean((pred_oob - y_oob) ** 2))
            else:
                k = perms.shape[0]
                errs = (
                    (pred[at : at + size].reshape(k, y_oob.size) - y_oob) ** 2
                ).mean(axis=1)
                results[t][3][vars_] = (
                    errs.reshape(vars_.size, reps).mean(axis=1) - base_err[t]
                )
            at += size

    def submit(job) -> None:
        nonlocal pending, pending_rows
        size = segment_rows(job)
        if pending and pending_rows + size > _OOB_PAIRS:
            flush()
            pending, pending_rows = [], 0
        pending.append(job)
        pending_rows += size

    for t, (tree, boot) in enumerate(zip(trees, boots)):
        oob_mask = np.ones(n, dtype=bool)
        oob_mask[boot] = False
        oob_idx = np.flatnonzero(oob_mask)
        results.append([tree, oob_idx, None, np.zeros(p)])
        if not oob_idx.size:
            continue
        submit((t, None, None))
        if not cfg["importance"]:
            continue
        X_oob = X[oob_idx]
        # Permuting a constant column changes nothing; skip it.
        active = np.flatnonzero(np.ptp(X_oob, axis=0) != 0.0)
        per_var_bytes = reps * oob_idx.size * p * 8
        chunk = max(1, int(_IMPORTANCE_BATCH_BYTES // max(per_var_bytes, 1)))
        for lo in range(0, active.size, chunk):
            vars_ = active[lo : lo + chunk]
            # One matrix op: row (a, r) is an independent permutation
            # of variable vars_[a]'s OOB column.
            submit((t, vars_, tree._rng.permuted(
                np.repeat(X_oob[:, vars_].T, reps, axis=0), axis=1
            )))
    if pending:
        flush()
    return [tuple(r) for r in results]


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
        self._trees: list[RegressionTree] | None = None
        #: Per-tree impurity decreases, one row per tree, once packed.
        self._impurity: np.ndarray | None = None

    @property
    def trees_(self) -> list[RegressionTree]:
        """The fitted trees, in fit order.

        Once packed, a forest holds no per-tree objects, only its packed
        arrays; the trees are rebuilt from them, as views, the first
        time they are asked for.
        """
        if self._trees is None:
            self._trees = self._unpack()
        return self._trees

    @trees_.setter
    def trees_(self, trees: list[RegressionTree]) -> None:
        self._trees = trees

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
            results = _fit_forest_chunk((X, y, cfg, streams))
        return results

    def _aggregate(self, X: np.ndarray, y: np.ndarray) -> None:
        """Recompute every derived quantity from the per-tree artifacts.

        Runs in tree order — float sums land in the same order
        regardless of worker scheduling or how many refit generations
        contributed trees, which is what keeps fit/refit sequences
        bit-identical at any ``n_jobs``.
        """
        self._pack()
        n, p = X.shape
        T = self._starts.size
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
        for row in self._impurity:
            purity += row
        self.impurity_importance_ = purity / T

    def _pack(self) -> None:
        """Move the trees into the packed arrays and drop the tree objects.

        The node arrays are concatenated, the impurity decreases stacked
        one row per tree; :attr:`trees_` rebuilds the trees as views.
        Called wherever the tree list is set, never lazily on a predict
        path, so concurrent predicts only ever read finished arrays.
        """
        trees = self._trees
        sizes = [tree.n_nodes for tree in trees]
        self._starts = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        self._nodes = {
            name: np.concatenate([getattr(tree, name) for tree in trees])
            for name in _NODE_ARRAYS
        }
        self._impurity = np.stack([tree.impurity_decrease_ for tree in trees])
        self._trees = None

    @classmethod
    def from_packed(
        cls, nodes: RegressionTree, sizes: list[int],
        feature_names: list[str],
    ) -> "RandomForestRegressor":
        """A predict-capable forest over trees stored back to back.

        ``nodes`` holds every tree's node arrays concatenated (tree
        ``t`` has ``sizes[t]`` nodes, children local to the tree); they
        become the forest's packed arrays as they are. No per-tree
        objects are built until :attr:`trees_` is read, so a served
        forest costs its node arrays and little more. Impurity decreases
        do not travel with the nodes; rebuilt trees carry zeros.
        """
        forest = cls(n_trees=len(sizes))
        forest.n_features_ = nodes.n_features_
        forest.feature_names_ = list(feature_names)
        forest._starts = np.cumsum([0] + list(sizes[:-1]), dtype=np.intp)
        forest._nodes = {name: getattr(nodes, name) for name in _NODE_ARRAYS}
        return forest

    def _unpack(self) -> list[RegressionTree]:
        """Per-tree views into the packed arrays (see :attr:`trees_`)."""
        nodes = self._nodes  # AttributeError while unfitted, like trees_
        ends = np.append(self._starts[1:], nodes["feature_"].size)
        trees = []
        for t, (lo, hi) in enumerate(zip(self._starts, ends)):
            tree = RegressionTree()
            tree.n_features_ = self.n_features_
            for name in _NODE_ARRAYS:
                setattr(tree, name, nodes[name][lo:hi])
            tree.impurity_decrease_ = (
                np.zeros(self.n_features_) if self._impurity is None
                else self._impurity[t]
            )
            trees.append(tree)
        return trees

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
        if not getattr(self, "_generations", None):
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
            n_new_trees = max(1, round(self.n_trees * (n - n_prev) / n))
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
        """Average of the per-tree predictions (one packed descent)."""
        X = self._validate_predict_input(X)
        out = np.empty(X.shape[0])
        T = self._starts.size
        for lo, hi, leaf in self._leaf_values(X, max(1, _PAIR_CHUNK // T)):
            # A running sum down the tree axis makes the additions of
            # ``acc += tree.predict(X)`` tree by tree, in that order;
            # ``+ 0.0`` gives the +0.0 a zeroed accumulator would where
            # every leaf value is -0.0.
            out[lo:hi] = np.add.accumulate(leaf, axis=0, out=leaf)[-1] + 0.0
        return out / T

    def tree_block_means(self, X: np.ndarray, block: int) -> np.ndarray:
        """Each tree's mean prediction over each run of ``block`` rows.

        ``X`` holds whole blocks of ``block`` rows. Returns an
        ``(n_blocks, n_trees)`` matrix whose entry ``(b, t)`` equals
        ``trees_[t].predict(X[b * block:(b + 1) * block]).mean()`` bit
        for bit — what a partial-dependence confidence band is drawn
        from. Chunks hold whole blocks, at least one.
        """
        X = self._validate_predict_input(X)
        if block < 1 or X.shape[0] % block:
            raise ValueError(
                f"X has {X.shape[0]} rows, not whole blocks of {block}"
            )
        T = self._starts.size
        out = np.empty((X.shape[0] // block, T))
        per_chunk = max(1, _PAIR_CHUNK // (T * block)) * block
        for lo, hi, leaf in self._leaf_values(X, per_chunk):
            sums = np.add.reduce(leaf.reshape(T, -1, block), axis=2)
            out[lo // block : hi // block] = (sums / block).T
        return out

    def _leaf_values(self, X: np.ndarray, rows_per_chunk: int):
        """Yield ``(lo, hi, leaf)``: ``leaf[t, i]`` is tree ``t``'s
        value for row ``lo + i``, over chunks of ``rows_per_chunk``."""
        nodes = self._nodes
        T = self._starts.size
        for lo in range(0, X.shape[0], rows_per_chunk):
            chunk = X[lo : lo + rows_per_chunk]
            leaves = descend(
                nodes["feature_"], nodes["threshold_"], nodes["left_"],
                nodes["right_"], self._starts, chunk,
            )
            leaf = nodes["value_"].take(leaves).reshape(T, chunk.shape[0])
            yield lo, lo + chunk.shape[0], leaf

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
        packed forest pass for the whole batch instead of one per query,
        then splits the averaged predictions back per query.
        Bit-identical to ``[self.predict(q) for q in queries]``:
        prediction is an elementwise per-row map and the per-tree
        accumulation order is unchanged.
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
