"""Servable fit artifacts: the JSON form a fitted forest travels in.

The serving layer answers prediction queries long after — and far away
from — the process that ran ``fit``. :class:`ServableFit` is the
persistable artifact that makes this possible: the fitted forest's node
arrays, the feature-name order queries must follow, and the provenance
of the campaign it was fitted on, as one schema-tagged
(``repro-fit/1``) JSON document.

Round-trip fidelity is exact: node thresholds and leaf values are
written as JSON numbers (``json`` emits ``repr(float)``, the shortest
string that parses back to the identical double), so a deserialized
fit's predictions are **bit-for-bit** the original's — pinned by
``tests/serve/test_artifact.py``. Leaf thresholds (which the descent
never reads) are stored as ``null`` so the payload stays strict JSON
with no ``NaN`` tokens.

The serialized text is deterministic (sorted keys, no timestamps), so
its SHA-256 :meth:`ServableFit.digest` identifies the artifact content
— what the registry's integrity check (:mod:`repro.serve.registry`)
verifies on every load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import tree_from_dict as _tree_from_dict
from repro.ml.tree import tree_to_dict as _tree_to_dict

__all__ = [
    "SCHEMA",
    "ServableFit",
    "forest_from_dict",
    "forest_to_dict",
    "servable_from_fit",
]

#: Schema tag written into every serialized fit artifact.
SCHEMA = "repro-fit/1"


def forest_to_dict(forest: RandomForestRegressor) -> dict:
    """Serialize a fitted forest's predict-path state to plain dicts."""
    return {
        "n_features": int(forest.n_features_),
        "feature_names": list(forest.feature_names_),
        "trees": [_tree_to_dict(t) for t in forest.trees_],
    }


def forest_from_dict(data: dict) -> RandomForestRegressor:
    """Rebuild a predict-capable forest from :func:`forest_to_dict`.

    Only the prediction path is restored (node arrays, feature names);
    fit-time state — training matrices, OOB aggregates, importances —
    does not travel with a servable artifact.
    """
    trees = data["trees"]
    if not trees:
        raise ValueError("fit artifact has no trees")
    # Parse every tree's node lists back to back, straight into the
    # forest's packed arrays, here at load: the threaded serve path
    # only ever reads them.
    sizes = [len(t["feature"]) for t in trees]
    merged = {
        key: [v for t in trees for v in t[key]]
        for key in ("feature", "threshold", "left", "right", "value")
    }
    merged["n_node_samples"] = [
        v for t, size in zip(trees, sizes)
        for v in t.get("n_node_samples", [0] * size)
    ]
    nodes = _tree_from_dict(merged, int(data["n_features"]))
    return RandomForestRegressor.from_packed(
        nodes, sizes, data["feature_names"]
    )


@dataclass
class ServableFit:
    """A fitted predictor in its servable form.

    Carries what the serving path needs — the forest, the query feature
    order, the campaign address it answers for — plus ``source``
    provenance (the training campaign's manifest digest and fit
    configuration) so a served prediction is auditable back to the data
    it learned from.
    """

    kernel: str
    arch: str
    forest: RandomForestRegressor
    feature_names: list[str]
    tag: str | None = None
    response: str = "time"
    #: Provenance of the fit: the source campaign's manifest SHA-256
    #: (``campaign_manifest_sha256``), fit configuration, counts.
    source: dict = field(default_factory=dict)

    # -- prediction ------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from feature rows ordered like :attr:`feature_names`."""
        return self.forest.predict(X)

    def predict_many(self, queries) -> list[np.ndarray]:
        """Batched :meth:`predict`: one stacked forest pass, bit-identical
        to the per-query loop (see :func:`repro.core.api.predict_many`)."""
        return self.forest.predict_many(queries)

    def rows_from_dicts(self, rows: list[dict]) -> np.ndarray:
        """Feature matrix from name->value mappings, in fit order."""
        out = np.empty((len(rows), len(self.feature_names)))
        for i, row in enumerate(rows):
            missing = [n for n in self.feature_names if n not in row]
            if missing:
                raise ValueError(
                    f"query row {i} lacks feature(s) {missing}; this fit "
                    f"expects {self.feature_names}"
                )
            out[i] = [float(row[n]) for n in self.feature_names]
        return out

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "kernel": self.kernel,
            "arch": self.arch,
            "tag": self.tag,
            "response": self.response,
            "feature_names": list(self.feature_names),
            "source": dict(self.source),
            "forest": forest_to_dict(self.forest),
        }

    def to_json(self) -> str:
        # Deterministic text (sorted keys, no timestamps): the SHA-256 of
        # this string is the artifact's identity in the registry.
        return json.dumps(self.to_payload(), sort_keys=True) + "\n"

    @property
    def digest(self) -> str:
        """SHA-256 of the serialized artifact (its content identity)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_payload(cls, data: dict) -> "ServableFit":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unknown fit-artifact schema {data.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
        return cls(
            kernel=data["kernel"],
            arch=data["arch"],
            tag=data.get("tag"),
            response=data.get("response", "time"),
            feature_names=list(data["feature_names"]),
            source=dict(data.get("source") or {}),
            forest=forest_from_dict(data["forest"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServableFit":
        return cls.from_payload(json.loads(text))


def servable_from_fit(
    fit,
    *,
    tag: str | None = None,
    source: dict | None = None,
) -> ServableFit:
    """Extract the servable artifact from a pipeline fit.

    Accepts any fit artifact carrying a fitted ``forest`` plus
    ``kernel``/``arch``/``feature_names`` (:class:`BlackForestFit` is
    the canonical producer). The forest's own ``feature_names_`` are the
    query order; ``source`` provenance (e.g. the training campaign's
    manifest digest) is attached verbatim.
    """
    forest = getattr(fit, "forest", None)
    if forest is None or not getattr(forest, "trees_", None):
        raise ValueError(
            "fit has no fitted forest to serve (expected a .forest with "
            "fitted trees, e.g. a BlackForestFit)"
        )
    names = list(
        getattr(fit, "feature_names", None) or forest.feature_names_
    )
    return ServableFit(
        kernel=fit.kernel,
        arch=fit.arch,
        tag=tag,
        response=getattr(fit, "response", "time"),
        feature_names=names,
        source=dict(source or {}),
        forest=forest,
    )
