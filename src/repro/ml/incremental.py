"""Incremental forest fits: append runs, refit only the affected trees.

At repository scale (Section 7's campaigns run to 10^4–10^5 profiled
executions) refitting a 500-tree forest from scratch after every
appended batch is the dominant cost of keeping a prediction model
current. This module makes the cheap path safe: a fitted
:class:`~repro.ml.forest.RandomForestRegressor` serializes its complete
per-tree state (``repro-forest-state/1``), a later process restores it
bit-for-bit, and :meth:`~repro.ml.forest.RandomForestRegressor.refit`
grows only the delta's worth of new trees — with every aggregate
recomputed in tree order so the result is identical at any ``n_jobs``.

The safety contract is *pinned fallback*: :func:`fit_from_repo` resumes
from saved state only when the seed, fit configuration, column names and
a SHA-256 fingerprint of the previously-seen data prefix all match.
Anything else — edited rows, changed columns, different config, a
corrupt state file — falls back to a full deterministic fit from the
pinned seed. Both paths are bit-for-bit reproducible; the state file is
an accelerator, never an input that can change the answer silently.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.io import atomic_write
from repro.obs import emit, span
from repro.parallel import resolve_n_jobs, spawn_streams

from .forest import RandomForestRegressor
from .tree import tree_from_dict, tree_to_dict

__all__ = [
    "STATE_SCHEMA",
    "forest_state",
    "restore_forest",
    "fit_from_repo",
]

#: Schema tag of the serialized incremental-fit state (registered in
#: repro.analysis.schemas).
STATE_SCHEMA = "repro-forest-state/1"


def _prefix_sha256(X: np.ndarray, y: np.ndarray) -> str:
    """Content fingerprint of the training prefix a state was built on."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return h.hexdigest()


def forest_state(forest: RandomForestRegressor) -> dict:
    """Serialize a fitted forest's complete refit-capable state.

    Requires the forest to have been constructed with an **integer
    seed** — that, plus the recorded spawn count, is what lets a
    restoring process place its RNG exactly where this one left off so
    the next :meth:`refit` draws the same tree streams.
    """
    if not getattr(forest, "trees_", None):
        raise ValueError("forest is not fitted")
    if forest._seed is None:
        raise ValueError(
            "incremental state requires a forest seeded with an integer "
            "(RandomForestRegressor(rng=<int>)); an opaque Generator's "
            "position cannot be reconstructed"
        )
    trees = []
    for t, (oob_idx, pred_oob) in zip(forest.trees_, forest._tree_oob):
        trees.append({
            "tree": tree_to_dict(t),
            "impurity_decrease": t.impurity_decrease_.tolist(),
            "oob_idx": oob_idx.tolist(),
            "pred_oob": None if pred_oob is None else pred_oob.tolist(),
        })
    for entry, perm_row in zip(trees, forest._tree_perm):
        entry["perm_row"] = perm_row.tolist()
    X, y = forest._X_train, forest._y_train
    return {
        "schema": STATE_SCHEMA,
        "seed": int(forest._seed),
        "spawned": int(forest._spawned),
        "config": {
            "max_features": forest.max_features,
            "min_samples_leaf": forest.min_samples_leaf,
            "max_depth": forest.max_depth,
            "importance": forest.importance,
            "n_permutations": forest.n_permutations,
        },
        "n_features": int(forest.n_features_),
        "feature_names": list(forest.feature_names_),
        "generations": [dict(g) for g in forest._generations],
        "prefix_sha256": _prefix_sha256(X, y),
        "trees": trees,
    }


def restore_forest(
    state: dict, X: np.ndarray, y: np.ndarray
) -> RandomForestRegressor:
    """Rebuild a fitted forest from :func:`forest_state`.

    ``X``/``y`` must be the exact data the state was captured on (the
    fingerprint is checked); aggregates are recomputed from the stored
    per-tree artifacts in tree order, so the restored forest is
    bit-identical to the one serialized — including what a subsequent
    :meth:`refit` will produce.
    """
    if state.get("schema") != STATE_SCHEMA:
        raise ValueError(
            f"unknown forest-state schema {state.get('schema')!r} "
            f"(expected {STATE_SCHEMA!r})"
        )
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if _prefix_sha256(X, y) != state["prefix_sha256"]:
        raise ValueError(
            "training data does not match the serialized state's "
            "fingerprint; refusing to restore (refit from scratch instead)"
        )
    cfg = state["config"]
    n_features = int(state["n_features"])
    forest = RandomForestRegressor(
        n_trees=len(state["trees"]),
        max_features=cfg["max_features"],
        min_samples_leaf=cfg["min_samples_leaf"],
        max_depth=cfg["max_depth"],
        importance=cfg["importance"],
        n_permutations=cfg["n_permutations"],
        rng=int(state["seed"]),
    )
    # Place the RNG where the serializing process left it: spawning is
    # the only operation fit/refit perform on it, and both spawn paths
    # (Generator.spawn and SeedSequence.spawn) advance the same child
    # counter, so spawn-and-discard replays its position exactly.
    spawned = int(state["spawned"])
    if spawned:
        spawn_streams(forest._rng, spawned)
    forest._spawned = spawned

    forest.trees_ = []
    forest._tree_oob = []
    forest._tree_perm = []
    for entry in state["trees"]:
        tree = tree_from_dict(entry["tree"], n_features)
        tree.impurity_decrease_ = np.asarray(
            entry["impurity_decrease"], dtype=float
        )
        forest.trees_.append(tree)
        oob_idx = np.asarray(entry["oob_idx"], dtype=np.intp)
        pred_oob = (
            None if entry["pred_oob"] is None
            else np.asarray(entry["pred_oob"], dtype=float)
        )
        forest._tree_oob.append((oob_idx, pred_oob))
        forest._tree_perm.append(np.asarray(entry["perm_row"], dtype=float))
    forest._generations = [dict(g) for g in state["generations"]]
    forest.n_features_ = n_features
    forest.feature_names_ = list(state["feature_names"])
    forest._aggregate(X, y)
    return forest


def _read_state(path: Path) -> dict | None:
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(state, dict) or state.get("schema") != STATE_SCHEMA:
        return None
    return state


def fit_from_repo(
    repo,
    key,
    *,
    state_path: str | os.PathLike | None = None,
    counters=None,
    include_characteristics: bool = True,
    include_machine: bool = False,
    response: str = "time",
    n_trees: int = 500,
    seed: int = 0,
    max_features: int | None = None,
    min_samples_leaf: int = 5,
    max_depth: int | None = None,
    importance: bool = True,
    n_permutations: int = 1,
    n_jobs: int = 1,
) -> tuple[RandomForestRegressor, dict]:
    """Fit (or incrementally refit) a forest from a repository campaign.

    Loads the campaign matrix through the columnar index
    (:meth:`ProfileRepository.matrix`), then takes the cheapest safe
    path: if ``state_path`` holds a ``repro-forest-state/1`` document
    whose seed, configuration, columns and data-prefix fingerprint all
    match, the saved trees are restored and only the appended rows'
    worth of new trees is grown. Any mismatch falls back to a full fit
    from the pinned ``seed`` — both paths are bit-for-bit deterministic
    at any ``n_jobs``, so resuming can never change the answer, only
    the wall clock.

    Returns ``(forest, info)`` where ``info`` records which path ran:
    ``{"path": "full"|"resumed"|"unchanged", "n_rows", "n_new_rows",
    "n_new_trees"}``. When ``state_path`` is given, the post-fit state
    is written back for the next increment.
    """
    X, y, names = repo.matrix(
        key,
        counters=counters,
        include_characteristics=include_characteristics,
        include_machine=include_machine,
        response=response,
    )
    want_cfg = {
        "max_features": max_features,
        "min_samples_leaf": min_samples_leaf,
        "max_depth": max_depth,
        "importance": importance,
        "n_permutations": n_permutations,
    }
    info = {
        "path": "full",
        "n_rows": int(y.size),
        "n_new_rows": int(y.size),
        "n_new_trees": n_trees,
    }

    forest: RandomForestRegressor | None = None
    state = _read_state(Path(state_path)) if state_path is not None else None
    if (
        state is not None
        and int(state.get("seed", -1)) == int(seed)
        and state.get("config") == want_cfg
        and state.get("feature_names") == list(names)
    ):
        n_prev = int(state["generations"][-1]["n_rows"])
        if (
            n_prev <= y.size
            and _prefix_sha256(X[:n_prev], y[:n_prev])
            == state["prefix_sha256"]
        ):
            with span("incremental.restore", n_trees=len(state["trees"])):
                forest = restore_forest(state, X[:n_prev], y[:n_prev])
            forest.n_jobs = resolve_n_jobs(n_jobs)
            if n_prev == y.size:
                info.update(path="unchanged", n_new_rows=0, n_new_trees=0)
            else:
                before = forest.n_trees
                forest.refit(X, y)
                info.update(
                    path="resumed",
                    n_new_rows=int(y.size - n_prev),
                    n_new_trees=forest.n_trees - before,
                )

    if forest is None:
        forest = RandomForestRegressor(
            n_trees=n_trees,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            max_depth=max_depth,
            importance=importance,
            n_permutations=n_permutations,
            n_jobs=n_jobs,
            rng=int(seed),
        ).fit(X, y, feature_names=list(names))

    if state_path is not None:
        atomic_write(
            state_path, json.dumps(forest_state(forest), sort_keys=True)
        )
    emit(
        "incremental.fit",
        campaign=str(key),
        path=info["path"],
        n_rows=info["n_rows"],
        n_new_trees=info["n_new_trees"],
    )
    return forest, info
