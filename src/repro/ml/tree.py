"""CART regression trees (Breiman et al.), the building block of the forest.

Implements the greedy variance-minimizing binary splitting described in
Section 4.1.1 of the paper: at each node the algorithm scans candidate
(variable, split point) pairs and picks the pair minimizing the summed
within-region sum of squares (paper Eq. 3), with the region prediction
being the region mean (paper Eq. 1).

The split search is vectorized *across candidate features*: a node
gathers its candidate block as one matrix, sorts every column with a
single stable argsort, and evaluates all split positions of all
candidates with 2-D prefix sums — one set of numpy calls per block
instead of per feature. The selection (examined-candidate counting,
``mtry`` stopping, strict-improvement tie-breaking) replays the scalar
algorithm exactly, so a fitted tree is bit-for-bit identical to the
per-feature reference implementation
(:class:`repro.ml._reference.ReferenceRegressionTree`) under the same
RNG state — a property the equivalence tests pin.

Prediction is an iterative array-based descent (:func:`descend`): a
node-index array is advanced one tree level per iteration for every
(tree, row) pair at once, with no per-sample recursion.
:meth:`RegressionTree.apply` is its one-tree case; the forest runs it
over all of its trees' concatenated node arrays in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as _metrics

__all__ = ["RegressionTree", "descend", "tree_to_dict", "tree_from_dict"]

_LEAF = -1

# Tiny read-only helpers reused across every node of every tree: the
# per-node numpy-call overhead is what the block split scan exists to
# amortize, so even arange allocations are worth caching.
_ARANGE_CACHE: dict[int, np.ndarray] = {}
_LEFT_COUNT_CACHE: dict[int, np.ndarray] = {}


def _cached_arange(k: int) -> np.ndarray:
    out = _ARANGE_CACHE.get(k)
    if out is None:
        out = np.arange(k)
        out.setflags(write=False)
        _ARANGE_CACHE[k] = out
        if len(_ARANGE_CACHE) > 4096:
            _ARANGE_CACHE.clear()
    return out


def _cached_left_counts(n: int) -> np.ndarray:
    """Column vector [1.0, 2.0, ..., n-1] of left-region sizes."""
    out = _LEFT_COUNT_CACHE.get(n)
    if out is None:
        out = (np.arange(n - 1) + 1.0)[:, None]
        out.setflags(write=False)
        _LEFT_COUNT_CACHE[n] = out
        if len(_LEFT_COUNT_CACHE) > 4096:
            _LEFT_COUNT_CACHE.clear()
    return out


def _best_split_for_feature(
    x: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[float, float, float] | None:
    """Best split of sorted-scannable feature ``x`` against response ``y``.

    Returns ``(sse_total, threshold, improvement_proxy)`` for the best
    valid split, or None when no split separates distinct values under
    the leaf-size constraint. ``sse_total`` is the post-split sum of the
    two regions' sums of squared deviations.

    Scalar single-feature form of :func:`_best_splits_for_block`; kept
    for the reference implementation and as the test oracle.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]

    # Prefix sums let us evaluate every split position in O(1).
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    total_sum = csum[-1]
    total_sum2 = csum2[-1]

    # Candidate split after position i (0-based): left = [0..i], right = [i+1..].
    i = np.arange(n - 1)
    n_left = i + 1.0
    n_right = n - n_left
    valid = (
        (xs[:-1] != xs[1:])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    if not np.any(valid):
        return None

    sum_left = csum[:-1]
    sum2_left = csum2[:-1]
    sse_left = sum2_left - sum_left * sum_left / n_left
    sum_right = total_sum - sum_left
    sse_right = (total_sum2 - sum2_left) - sum_right * sum_right / n_right
    sse = sse_left + sse_right
    sse[~valid] = np.inf

    best = int(np.argmin(sse))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    # Guard against midpoint rounding onto the right value for adjacent floats.
    if threshold <= xs[best]:
        threshold = xs[best]
    return float(sse[best]), float(threshold), float(total_sum2 - total_sum**2 / n)


def _best_splits_for_block(
    Xb: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every column of ``Xb`` against ``y``, in one pass.

    Returns ``(sse, threshold, constant, has_split)`` arrays of length
    ``Xb.shape[1]``. Each column's numbers are bit-identical to
    :func:`_best_split_for_feature` on that column: the stable argsort,
    prefix sums and SSE arithmetic run per column in the same order,
    only batched along axis 1.
    """
    n, b = Xb.shape
    if n < 2:
        return (
            np.full(b, np.inf),
            np.full(b, np.nan),
            np.ones(b, dtype=bool),
            np.zeros(b, dtype=bool),
        )

    # The leaf-size constraint makes split positions outside
    # [msl-1, n-msl) invalid regardless of the data, so the scan only
    # materializes that window — near the leaves this is a single row.
    lo_i = min_samples_leaf - 1
    hi_i = n - min_samples_leaf
    if hi_i <= lo_i:
        constant = Xb.max(axis=0) == Xb.min(axis=0)
        return (
            np.full(b, np.inf),
            np.full(b, np.nan),
            constant,
            np.zeros(b, dtype=bool),
        )

    cols = _cached_arange(b)
    order = Xb.argsort(axis=0, kind="stable")
    xs = Xb[order, cols]
    ys = y[order]

    constant = xs[0] == xs[-1]

    csum = ys.cumsum(axis=0)
    csum2 = (ys * ys).cumsum(axis=0)
    total_sum = csum[-1]
    total_sum2 = csum2[-1]

    valid = xs[lo_i:hi_i] != xs[lo_i + 1 : hi_i + 1]
    has_split = valid.any(axis=0)

    sum_left = csum[lo_i:hi_i]
    sum2_left = csum2[lo_i:hi_i]
    n_left = _cached_left_counts(n)[lo_i:hi_i]
    n_right = n - n_left
    sse = sum2_left - sum_left * sum_left / n_left
    sum_right = total_sum - sum_left
    sse += (total_sum2 - sum2_left) - sum_right * sum_right / n_right
    sse[~valid] = np.inf

    best = sse.argmin(axis=0)
    lo = xs[best + lo_i, cols]
    thr = 0.5 * (lo + xs[best + lo_i + 1, cols])
    # Guard against midpoint rounding onto the right value for adjacent floats.
    thr = np.where(thr <= lo, lo, thr)

    sse_best = np.where(has_split, sse[best, cols], np.inf)
    thr_best = np.where(has_split, thr, np.nan)
    return sse_best, thr_best, constant, has_split


#: Root offset of a lone tree: its node arrays start at index 0.
_ROOT = np.zeros(1, dtype=np.intp)


def descend(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    starts: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Leaf reached by every (tree, row) pair, all pairs advanced at once.

    The node arrays hold one or more trees back to back; tree ``t``'s
    nodes start at ``starts[t]`` and its ``left``/``right`` children are
    indices local to the tree. Returns the global leaf index of pair
    ``(t, i)`` at position ``t * len(X) + i`` — tree-major, so the
    result reshapes to ``(len(starts), len(X))``.

    Each iteration moves every still-internal pair one level down, so
    the loop runs as many times as the deepest path is long, whatever
    the number of trees or rows. A pair meets the same comparisons the
    per-tree descent makes, so it lands on the same leaf.
    """
    n, p = X.shape
    node = np.repeat(starts, n)
    # The still-internal pairs: position, current node, row offset into
    # the flattened X and (unless every tree starts at 0) the tree's
    # start. ``take`` with an index array is several times cheaper than
    # boolean-mask indexing.
    pos = np.flatnonzero(feature.take(node) != _LEAF)
    cur = node.take(pos)
    base = cur if starts.any() else None
    xoff = (pos % n) * p
    flat = X.ravel()
    while pos.size:
        go_left = flat.take(xoff + feature.take(cur)) <= threshold.take(cur)
        cur = np.where(go_left, left.take(cur), right.take(cur))
        if base is not None:
            cur += base
        node[pos] = cur
        keep = np.flatnonzero(feature.take(cur) != _LEAF)
        if keep.size < pos.size:
            pos, cur, xoff = pos.take(keep), cur.take(keep), xoff.take(keep)
            if base is not None:
                base = base.take(keep)
    return node


class RegressionTree:
    """A single unpruned CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; None grows until the stopping rules fire.
    min_samples_leaf:
        Minimum observations in a terminal node (R's ``nodesize``,
        default 5 for regression forests per the paper's Section 4.1.1).
    min_samples_split:
        Minimum observations required to attempt a split.
    max_features:
        Number of features examined per node (``mtry``). None uses all.
    rng:
        Generator or seed controlling the per-node feature subsample.
    """

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

    # -- fitting ---------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
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

        # Growable node arrays; children indices of _LEAF mark terminals.
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_samples: list[int] = []
        impurity_decrease = np.zeros(p)

        stack: list[tuple[np.ndarray, int, int]] = []  # (indices, node_id, depth)

        def new_node(idx: np.ndarray) -> int:
            node_id = len(feature)
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(_LEAF)
            right.append(_LEAF)
            # add.reduce is ndarray.mean's internal summation (pairwise
            # umr_sum), so this equals y[idx].mean() bit for bit while
            # skipping the wrapper overhead — this runs once per node.
            value.append(np.add.reduce(y[idx]) / idx.size)
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
            if y_node.max() == y_node.min():
                continue  # pure node

            dev = y_node - np.add.reduce(y_node) / y_node.size
            node_sse = float(np.add.reduce(dev * dev))
            Xn = X.take(idx, axis=0)
            candidates = self._rng.permutation(p)
            best_sse = np.inf
            best_feat = _LEAF
            best_thr = np.nan
            examined = 0
            # Candidates are evaluated in blocks: mtry counts *examined*
            # (non-constant) candidates, mirroring R's behaviour of
            # retrying when a drawn variable cannot split, so the first
            # block holds mtry candidates and follow-up blocks cover the
            # constant-feature / unsplittable-feature retries.
            i = 0
            while i < p and not (examined >= mtry and best_feat != _LEAF):
                block = candidates[i : i + max(mtry - examined, 1)]
                i += block.size
                sse_b, thr_b, const_b, has_b = _best_splits_for_block(
                    Xn.take(block, axis=1), y_node, self.min_samples_leaf
                )
                const_b = const_b.tolist()
                has_b = has_b.tolist()
                sse_l = sse_b.tolist()
                for k, j in enumerate(block.tolist()):
                    if const_b[k]:
                        continue  # constant feature in this node
                    examined += 1
                    if has_b[k] and sse_l[k] < best_sse:
                        best_sse, best_thr = sse_l[k], float(thr_b[k])
                        best_feat = j
                    if examined >= mtry and best_feat != _LEAF:
                        break

            if best_feat == _LEAF or best_sse >= node_sse:
                continue

            mask = Xn[:, best_feat] <= best_thr
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
        _metrics.inc("tree.nodes", float(self.feature_.size))
        _metrics.inc("tree.fits")
        return self

    # -- prediction ------------------------------------------------------

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``X`` (vectorized descent)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must be 2-D with {self.n_features_} columns, got {X.shape}"
            )
        return descend(
            self.feature_, self.threshold_, self.left_, self.right_,
            _ROOT, X,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted response: mean of the training responses in the leaf."""
        return self.value_[self.apply(X)]

    # -- introspection ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.feature_.size)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature_ == _LEAF))

    @property
    def depth(self) -> int:
        depth = np.zeros(self.n_nodes, dtype=int)
        for node_id in range(self.n_nodes):
            if self.feature_[node_id] != _LEAF:
                for child in (self.left_[node_id], self.right_[node_id]):
                    depth[child] = depth[node_id] + 1
        return int(depth.max()) if self.n_nodes else 0


# -- serialization --------------------------------------------------------


def tree_to_dict(tree: RegressionTree) -> dict:
    """A fitted tree's node arrays as a strict-JSON-safe dict.

    Leaf thresholds (NaN internally, never read by the descent) are
    written as ``null`` so the document carries no ``NaN`` tokens.
    Floats survive ``json`` round-trips exactly (``repr`` encoding), so
    a restored tree's predictions are bit-identical — the contract both
    the serve artifact (``repro-fit/1``) and incremental-fit state
    (``repro-forest-state/1``) build on.
    """
    import math

    thresholds = [
        None if math.isnan(t) else float(t)
        for t in tree.threshold_.tolist()
    ]
    return {
        "feature": tree.feature_.tolist(),
        "threshold": thresholds,
        "left": tree.left_.tolist(),
        "right": tree.right_.tolist(),
        "value": tree.value_.tolist(),
        "n_node_samples": tree.n_node_samples_.tolist(),
    }


def tree_from_dict(data: dict, n_features: int) -> RegressionTree:
    """Rebuild a predict-capable tree from :func:`tree_to_dict`.

    ``impurity_decrease_`` does not travel in the node-array dict; it is
    restored as zeros (callers that need it — incremental-fit state —
    persist it separately).
    """
    tree = RegressionTree()
    tree.n_features_ = n_features
    tree.feature_ = np.asarray(data["feature"], dtype=np.intp)
    tree.threshold_ = np.asarray(
        [np.nan if t is None else t for t in data["threshold"]], dtype=float
    )
    tree.left_ = np.asarray(data["left"], dtype=np.intp)
    tree.right_ = np.asarray(data["right"], dtype=np.intp)
    tree.value_ = np.asarray(data["value"], dtype=float)
    tree.n_node_samples_ = np.asarray(
        data.get("n_node_samples", [0] * len(data["feature"])), dtype=np.intp
    )
    tree.impurity_decrease_ = np.zeros(n_features)
    return tree
