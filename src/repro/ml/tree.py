"""CART regression trees (Breiman et al.), the building block of the forest.

Implements the greedy variance-minimizing binary splitting described in
Section 4.1.1 of the paper: at each node the algorithm scans candidate
(variable, split point) pairs and picks the pair minimizing the summed
within-region sum of squares (paper Eq. 3), with the region prediction
being the region mean (paper Eq. 1).

Trees are grown in lockstep (:func:`grow_trees`): every tree of a
batch advances one depth-first step at a time, each drawing its node's
candidate features from its own generator, and the best split of every
popped node is found in batched searches over nodes of similar size —
every (node, candidate) column put in stable sort order by one integer
key sort, all split positions evaluated with prefix sums. The selection
(examined-candidate counting, ``mtry`` retries, strict-improvement
tie-breaking) replays the scalar algorithm exactly, so a fitted tree is
bit-for-bit identical to the per-node reference implementation
(:class:`repro.ml._reference.ReferenceRegressionTree`) under the same
RNG state, however many trees share its batch — a property the
equivalence tests pin. :meth:`RegressionTree.fit` is the one-tree case.

Prediction is an iterative array-based descent (:func:`descend`): a
node-index array is advanced one tree level per iteration for every
(tree, row) pair at once, with no per-sample recursion.
:meth:`RegressionTree.apply` is its one-tree case; the forest runs it
over all of its trees' concatenated node arrays in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as _metrics

__all__ = [
    "RegressionTree", "descend", "grow_trees", "tree_to_dict", "tree_from_dict",
]

_LEAF = -1


def _best_split_for_feature(
    x: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[float, float, float] | None:
    """Best split of sorted-scannable feature ``x`` against response ``y``.

    Returns ``(sse_total, threshold, improvement_proxy)`` for the best
    valid split, or None when no split separates distinct values under
    the leaf-size constraint. ``sse_total`` is the post-split sum of the
    two regions' sums of squared deviations.

    Scalar single-feature form of :func:`_best_splits`; kept for the
    reference implementation and as the test oracle.
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


#: Most cells (node x candidate x padded row) one batched split search
#: gathers at once, and about the most rows one partition of a step's
#: split nodes moves; a larger step is cut into several batches. Each
#: batch pays some 30 numpy calls: a 150-tree, 103 x 33 forest fit took
#: 0.13 s at 2**13 cells, 0.15 s at 2**12 and 0.19 s at 2**11.
_SPLIT_CELLS = 1 << 13


def _ranks(Xpad: np.ndarray) -> np.ndarray:
    """Each value's dense rank within its column, in sort order.

    Equal values share a rank (``-0.0`` and ``0.0`` too), all NaNs share
    the highest, and a NaN pad row's NaNs rank with them: ordering by
    (rank, position) is therefore exactly a stable argsort's order.
    """
    order = Xpad.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(Xpad, order, axis=0)
    nan = np.isnan(xs)
    step = (xs[1:] > xs[:-1]) | (nan[1:] != nan[:-1])
    ranks = np.zeros(Xpad.shape, dtype=np.intp)
    np.cumsum(step, axis=0, out=ranks[1:])
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=0)
    return out


def _best_splits(
    Xpad: np.ndarray,
    ranks: np.ndarray,
    ypad: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    sizes: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every candidate of every node of a batch, in one pass.

    Node ``i`` holds the rows ``rows[i, :sizes[i]]`` of ``Xpad``/``ypad``
    (X and y with one trailing pad row, NaN in X and 0.0 in y); the
    rest of ``rows[i]`` is that pad row. ``feats[i]`` lists the node's
    candidate features, and ``ranks`` is :func:`_ranks` of ``Xpad``.
    Returns ``(sse, threshold, constant, has_split)``, each shaped like
    ``feats``.

    Each (node, candidate) result is bit-identical to
    :func:`_best_split_for_feature` on the node's own rows. Sorting the
    integer keys (rank, position) gives the stable argsort's order, in
    which the node's rows, NaN and ±inf included, keep its first
    ``sizes[i]`` positions, since the pad NaNs come after them. The
    prefix sums run left to right, so the pad never reaches a real
    position. The totals and the constant test read position
    ``sizes[i] - 1``, and every position the leaf-size rule forbids,
    the pad's included, is masked.
    """
    B, N = rows.shape
    b = feats.shape[1]
    M = B * b
    p = Xpad.shape[1]
    rows = np.repeat(rows, b, axis=0)
    flat = rows * p + feats.reshape(M, 1)
    shift = (N - 1).bit_length()
    order = ranks.ravel().take(flat)
    order <<= shift
    order |= np.arange(N)
    order.sort(axis=1)
    order &= (1 << shift) - 1
    order += (np.arange(M) * N)[:, None]
    xs = Xpad.ravel().take(flat.take(order))
    ys = ypad.take(rows.take(order))
    # Every array here is as large as the batch: drop each as it dies,
    # and below work in place where an operand dies, so a batch holds
    # few of them at once.
    del rows, flat, order

    n = np.repeat(sizes, b)
    cols = np.arange(M)
    last = n - 1
    constant = xs[:, 0] == xs[cols, last]
    # Positions the leaf-size rule forbids for every node of the batch
    # are never computed; the rest are masked per node.
    klo, khi = min_samples_leaf - 1, N - min_samples_leaf
    if khi <= klo:
        return (
            np.full((B, b), np.inf),
            np.full((B, b), np.nan),
            constant.reshape(B, b),
            np.zeros((B, b), dtype=bool),
        )

    csum = ys.cumsum(axis=1)
    ys *= ys
    csum2 = ys.cumsum(axis=1)
    del ys
    total_sum = csum[cols, last][:, None]
    total_sum2 = csum2[cols, last][:, None]

    k = np.arange(klo, khi)
    valid = (xs[:, klo:khi] != xs[:, klo + 1 : khi + 1]) & (
        k < (n - min_samples_leaf)[:, None]
    )
    has_split = valid.any(axis=1)

    sum_left = csum[:, klo:khi]
    sum2_left = csum2[:, klo:khi]
    n_left = k + 1.0
    n_right = n[:, None] - n_left
    # The per-node scan's sse = sum2_left - sum_left * sum_left / n_left
    # + ((total_sum2 - sum2_left) - sum_right * sum_right / n_right),
    # operation for operation. Masked positions divide by an empty or
    # negative right region.
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = sum_left * sum_left
        sse /= n_left
        np.subtract(sum2_left, sse, out=sse)
        sum_right = total_sum - sum_left
        sum_right *= sum_right
        sum_right /= n_right
        right = total_sum2 - sum2_left
        right -= sum_right
        sse += right
    sse[~valid] = np.inf

    best = sse.argmin(axis=1)
    lo = xs[cols, best + klo]
    thr = 0.5 * (lo + xs[cols, best + klo + 1])
    # Guard against midpoint rounding onto the right value for adjacent floats.
    thr = np.where(thr <= lo, lo, thr)

    sse_best = np.where(has_split, sse[cols, best], np.inf)
    thr_best = np.where(has_split, thr, np.nan)
    return (
        sse_best.reshape(B, b),
        thr_best.reshape(B, b),
        constant.reshape(B, b),
        has_split.reshape(B, b),
    )


def _split_search(
    Xpad: np.ndarray,
    ranks: np.ndarray,
    ypad: np.ndarray,
    buf: np.ndarray,
    lo: np.ndarray,
    sizes: np.ndarray,
    feats: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_best_splits` for the nodes ``buf[lo[i]:lo[i] + sizes[i]]``.

    Nodes are taken largest first, and each batch pads its nodes to the
    size of its first one and holds as many as ``_SPLIT_CELLS`` allows,
    so nodes of similar size share a batch: padding the many small deep
    nodes of a step to root size would cost more than it saves.
    """
    S, b = feats.shape
    sse = np.empty((S, b))
    thr = np.empty((S, b))
    constant = np.empty((S, b), dtype=bool)
    has_split = np.empty((S, b), dtype=bool)
    pad = Xpad.shape[0] - 1
    by_size = np.argsort(-sizes, kind="stable")
    i = 0
    while i < S:
        N = int(sizes[by_size[i]])
        sel = by_size[i : i + max(1, _SPLIT_CELLS // (N * b))]
        i += sel.size
        k = np.arange(N)
        rows = np.where(
            k < sizes[sel, None], buf.take(lo[sel, None] + k, mode="clip"), pad
        )
        sse[sel], thr[sel], constant[sel], has_split[sel] = _best_splits(
            Xpad, ranks, ypad, rows, feats[sel], sizes[sel], min_samples_leaf
        )
    return sse, thr, constant, has_split


def _pick(
    sse: np.ndarray,
    thr: np.ndarray,
    has_split: np.ndarray,
    feats: np.ndarray,
    best: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one candidate block per node into the running best.

    ``best`` is ``(sse, threshold, feature)`` per node. Scanning a
    block in candidate order and keeping a strict improvement keeps the
    first minimum; a NaN never improves, so it counts as no split.
    """
    best_sse, best_thr, best_feat = best
    s = np.where(has_split & (sse < np.inf), sse, np.inf)
    k = s.argmin(axis=1)
    r = np.arange(k.size)
    better = s[r, k] < best_sse
    return (
        np.where(better, s[r, k], best_sse),
        np.where(better, thr[r, k], best_thr),
        np.where(better, feats[r, k], best_feat),
    )


def _best_candidates(
    Xpad: np.ndarray,
    ranks: np.ndarray,
    ypad: np.ndarray,
    buf: np.ndarray,
    lo: np.ndarray,
    sizes: np.ndarray,
    cand: np.ndarray,
    mtry: int,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sse, threshold, feature)`` of each node's chosen split.

    Node ``i`` holds the rows ``buf[lo[i]:lo[i] + sizes[i]]`` and
    examines candidates in the order ``cand[i]``. Candidates are scanned
    in blocks: mtry counts *examined* (non-constant) candidates,
    mirroring R's retry when a drawn variable cannot split, so the first
    block holds mtry candidates, and a node whose block held a constant
    column or found no split scans follow-up blocks of ``max(mtry -
    examined, 1)``. Splits are searched a window of mtry candidates at a
    time, the first window of every node in one search, and the blocks
    are replayed over the windows' results; a node with no split gets
    feature ``_LEAF``.
    """
    S, p = cand.shape
    sse, thr = np.empty((S, p)), np.empty((S, p))
    constant = np.empty((S, p), dtype=bool)
    has_split = np.empty((S, p), dtype=bool)
    searched = np.zeros(S, dtype=np.intp)
    at = np.zeros(S, dtype=np.intp)
    examined = np.zeros(S, dtype=np.intp)
    best = (np.full(S, np.inf), np.full(S, np.nan), np.full(S, _LEAF))
    cols = np.arange(p)
    todo = np.arange(S)
    while todo.size:
        width = np.minimum(np.maximum(mtry - examined[todo], 1), p - at[todo])
        short = todo[at[todo] + width > searched[todo]]
        for c in sorted(set(searched[short].tolist())):
            sel = short[searched[short] == c]
            win = slice(c, min(c + mtry, p))
            sse[sel, win], thr[sel, win], constant[sel, win], has_split[sel, win] = (
                _split_search(Xpad, ranks, ypad, buf, lo[sel], sizes[sel],
                              cand[sel, win], min_samples_leaf)
            )
            searched[sel] = win.stop
        block = (cols >= at[todo, None]) & (cols < (at[todo] + width)[:, None])
        examined[todo] += (block & ~constant[todo]).sum(axis=1)
        at[todo] += width
        picked = _pick(
            sse[todo], thr[todo], has_split[todo] & block, cand[todo],
            tuple(v[todo] for v in best),
        )
        for v, new in zip(best, picked):
            v[todo] = new
        todo = todo[
            (at[todo] < p) & ~((examined[todo] >= mtry) & (best[2][todo] != _LEAF))
        ]
    return best


def grow_trees(
    trees: list["RegressionTree"],
    X: np.ndarray,
    y: np.ndarray,
    rows: list[np.ndarray],
) -> None:
    """Fit every tree of ``trees`` in lockstep, in place.

    Tree ``t`` is grown on the rows ``rows[t]`` of ``X``/``y`` (repeats
    allowed: a bootstrap) from its own generator; all trees share the
    parameters of ``trees[0]``. Each step pops one splittable node from
    every live tree's stack, draws its candidate permutation from that
    tree's generator, and finds the best split of all popped nodes in
    batched searches. A tree therefore draws the same numbers in the
    same order as when grown alone, and every node, split and
    impurity decrease is bit-identical to the depth-first per-node fit
    (:class:`repro.ml._reference.ReferenceRegressionTree`).

    The rows of all trees live in one buffer; a node is a ``[lo, hi)``
    range of it, and a split partitions its range stably in place, so
    each child keeps its rows in their old order. Nodes are numbered
    across all trees as they are created and recorded a step at a time
    in arrays; each tree's node arrays are cut from them at the end.
    """
    first = trees[0]
    n, p = X.shape
    mtry = p if first.max_features is None else min(first.max_features, p)
    if mtry < 1:
        raise ValueError("max_features must be >= 1")
    msl = first.min_samples_leaf
    mss = first.min_samples_split
    max_depth = np.inf if first.max_depth is None else first.max_depth
    Xpad = np.vstack([X, np.full((1, p), np.nan)])
    ranks = _ranks(Xpad)
    ypad = np.append(y, 0.0)
    flat = Xpad.ravel()
    buf = np.concatenate(rows).astype(np.intp, copy=False)
    T = len(trees)
    impurity = np.zeros((T, p))
    # A stack entry (lo, hi, node, depth, node_sse) is a node whose rows
    # are buf[lo:hi]. Only splittable nodes are pushed: the others draw
    # nothing when popped.
    stacks: list[list[tuple]] = [[] for _ in trees]
    # Per step: the created nodes' (tree, value, size), and the accepted
    # splits' (node, feature, threshold, left child); a split's right
    # child is numbered right after its left one.
    created: list[tuple[np.ndarray, ...]] = []
    splits: list[tuple[np.ndarray, ...]] = []

    def create(owner, seg_lo, sizes, depth, first_id):
        """Create the nodes ``buf[seg_lo[i]:seg_lo[i] + sizes[i]]`` of
        trees ``owner``, numbered from ``first_id``; push the splittable."""
        yv = ypad.take(buf[_ranges(seg_lo, sizes)])
        starts = np.cumsum(sizes) - sizes
        pure = np.maximum.reduceat(yv, starts) == np.minimum.reduceat(yv, starts)
        can_split = (sizes >= mss) & (depth < max_depth) & ~pure
        values = []
        for node, t, a, m, lo, d, split in zip(
            range(first_id, first_id + sizes.size), owner.tolist(),
            starts.tolist(), sizes.tolist(), seg_lo.tolist(), depth.tolist(),
            can_split.tolist(),
        ):
            # add.reduce is ndarray.mean's own summation (pairwise over
            # the node's contiguous rows); add.reduceat is not.
            seg = yv[a : a + m]
            mean = np.add.reduce(seg) / m
            values.append(mean)
            if split:
                dev = seg - mean
                stacks[t].append(
                    (lo, lo + m, node, d, float(np.add.reduce(dev * dev)))
                )
        created.append((owner, np.array(values, dtype=float), sizes))
        return first_id + sizes.size

    n_nodes = 0
    sizes = np.array([r.size for r in rows], dtype=np.intp)
    for g in _groups(sizes):
        n_nodes = create(
            g, (np.cumsum(sizes) - sizes)[g], sizes[g],
            np.zeros(g.size, np.intp), n_nodes,
        )
    live = [t for t in range(T) if stacks[t]]
    while live:
        popped = [stacks[t].pop() for t in live]
        cand = np.array([trees[t]._rng.permutation(p) for t in live])
        lo, hi, node, depth, node_sse = (np.array(c) for c in zip(*popped))
        sizes = hi - lo
        best_sse, best_thr, best_feat = _best_candidates(
            Xpad, ranks, ypad, buf, lo, sizes, cand, mtry, msl
        )
        accept = np.flatnonzero((best_feat != _LEAF) & ~(best_sse >= node_sse))
        live_arr = np.array(live)
        for g in _groups(sizes[accept]):
            s = accept[g]
            m = sizes[s]
            pos = _ranges(lo[s], m)
            r = buf[pos]
            go_left = flat.take(r * p + np.repeat(best_feat[s], m)) <= (
                np.repeat(best_thr[s], m)
            )
            key = np.repeat(2 * np.arange(s.size), m) + ~go_left
            buf[pos] = r[key.argsort(kind="stable")]
            n_left = np.add.reduceat(go_left, np.cumsum(m) - m, dtype=np.intp)
            split = (n_left > 0) & (n_left < m)
            s, m, n_left = s[split], m[split], n_left[split]
            if not s.size:
                continue
            owner = live_arr[s]
            impurity[owner, best_feat[s]] += node_sse[s] - best_sse[s]
            splits.append((
                node[s], best_feat[s], best_thr[s], n_nodes + 2 * np.arange(s.size)
            ))
            n_nodes = create(
                np.repeat(owner, 2),
                np.stack([lo[s], lo[s] + n_left], axis=1).ravel(),
                np.stack([n_left, m - n_left], axis=1).ravel(),
                np.repeat(depth[s] + 1, 2),
                n_nodes,
            )
        live = [t for t in live if stacks[t]]
    _cut_trees(trees, impurity, created, splits, n_nodes)


def _cut_trees(trees, impurity, created, splits, n_nodes) -> None:
    """Give each tree its node arrays from the chunk-wide records.

    A tree's nodes, in creation order, are its nodes in the order the
    per-tree fit creates them, so their ranks within the tree are its
    node ids. The arrays are written tree after tree and each tree gets
    views of its own span.
    """
    owner = np.concatenate([c[0] for c in created])
    counts = np.bincount(owner, minlength=len(trees))
    starts = np.cumsum(counts) - counts
    # Each node's position in the tree-after-tree layout.
    at = np.empty(n_nodes, dtype=np.intp)
    at[np.argsort(owner, kind="stable")] = np.arange(n_nodes)
    local = at - starts[owner]
    value = np.empty(n_nodes)
    value[at] = np.concatenate([c[1] for c in created])
    n_samples = np.empty(n_nodes, dtype=np.intp)
    n_samples[at] = np.concatenate([c[2] for c in created])
    feature = np.full(n_nodes, _LEAF)
    threshold = np.full(n_nodes, np.nan)
    left = np.full(n_nodes, _LEAF)
    right = np.full(n_nodes, _LEAF)
    if splits:
        parent, feat, thr, child = (np.concatenate(c) for c in zip(*splits))
        parent = at[parent]
        feature[parent] = feat
        threshold[parent] = thr
        left[parent] = local[child]
        right[parent] = local[child + 1]
    arrays = {
        "feature_": feature, "threshold_": threshold, "left_": left,
        "right_": right, "value_": value, "n_node_samples_": n_samples,
    }
    for t, tree in enumerate(trees):
        span = slice(starts[t], starts[t] + counts[t])
        for name, a in arrays.items():
            setattr(tree, name, a[span])
        tree.n_features_ = impurity.shape[1]
        tree.impurity_decrease_ = impurity[t]
        _metrics.inc("tree.nodes", float(counts[t]))
        _metrics.inc("tree.fits")


def _groups(sizes: np.ndarray) -> list[np.ndarray]:
    """Consecutive runs of the nodes of ``sizes`` holding about
    ``_SPLIT_CELLS`` rows each, to bound the partition's arrays."""
    cut = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _SPLIT_CELLS)) + 1
    return np.split(np.arange(sizes.size), cut)


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``lo[i] .. lo[i] + sizes[i] - 1``, concatenated."""
    return np.repeat(lo - (np.cumsum(sizes) - sizes), sizes) + np.arange(
        sizes.sum()
    )


#: Root offset of a lone tree: its node arrays start at index 0.
_ROOT = np.zeros(1, dtype=np.intp)


def descend(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    starts: np.ndarray,
    X: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Leaf reached by every (tree, row) pair, all pairs advanced at once.

    The node arrays hold one or more trees back to back; tree ``t``'s
    nodes start at ``starts[t]`` and its ``left``/``right`` children are
    indices local to the tree. Returns the global leaf index of pair
    ``(t, i)`` at position ``t * len(X) + i`` — tree-major, so the
    result reshapes to ``(len(starts), len(X))``. With ``rows`` given,
    the pairs are instead ``(starts[i], X[rows[i]])``, one per entry,
    and the result has one leaf per pair.

    Each iteration moves every still-internal pair one level down, so
    the loop runs as many times as the deepest path is long, whatever
    the number of trees or rows. A pair meets the same comparisons the
    per-tree descent makes, so it lands on the same leaf.
    """
    n, p = X.shape
    node = np.repeat(starts, n) if rows is None else starts.copy()
    # The still-internal pairs: position, current node, row offset into
    # the flattened X and (unless every tree starts at 0) the tree's
    # start. ``take`` with an index array is several times cheaper than
    # boolean-mask indexing.
    pos = np.flatnonzero(feature.take(node) != _LEAF)
    cur = node.take(pos)
    base = cur if starts.any() else None
    xoff = (pos % n if rows is None else rows.take(pos)) * p
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
        grow_trees([self], X, y, [np.arange(X.shape[0])])
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
