"""Problem scaling: predict execution time for unseen problem sizes.

Section 6.1 of the paper: after the important variables are identified
and modeled in terms of the problem characteristic, "these models,
combined with the random forest, allow us to predict the execution
times for unseen matrix sizes on the same hardware" (Fig. 5b, Fig. 6b).

The flow implemented by :class:`ProblemScalingPredictor`:

1. fit BlackForest on a training campaign (counters + characteristic);
2. reduce to the top-k predictors, validating retention;
3. fit counter models (GLM/MARS) for the retained predictors;
4. for an unseen problem size, generate predicted counter values and
   feed them to the reduced forest to obtain the predicted time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import explained_variance, mse
from repro.obs import span
from repro.obs.log import emit as emit_event
from repro.profiling.campaign import CampaignResult

from .counter_models import CounterModelSet
from .model import BlackForest, BlackForestFit

__all__ = ["PredictionReport", "ProblemScalingFit", "ProblemScalingPredictor"]


@dataclass
class PredictionReport:
    """Predicted vs. measured times for a set of problems (Fig. 5b/6b)."""

    problems: np.ndarray
    predicted_s: np.ndarray
    measured_s: np.ndarray

    @property
    def mse(self) -> float:
        return mse(self.measured_s, self.predicted_s)

    @property
    def explained_variance(self) -> float:
        return explained_variance(self.measured_s, self.predicted_s)

    @property
    def mean_relative_error(self) -> float:
        return float(
            np.mean(np.abs(self.predicted_s - self.measured_s) / self.measured_s)
        )

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(p), float(pr), float(me))
            for p, pr, me in zip(self.problems, self.predicted_s, self.measured_s)
        ]


@dataclass
class ProblemScalingFit:
    """Fit artifact of :class:`ProblemScalingPredictor` (protocol type).

    Carries the underlying BlackForest fit, the retained predictor set,
    the reduced forest, and the counter models — plus the ``predict`` /
    ``assess`` methods, so a fit travels as one self-sufficient value.
    """

    blackforest_fit: BlackForestFit
    retained: list[str]
    forest: RandomForestRegressor
    counter_models: CounterModelSet
    characteristic: str | list[str]

    @property
    def characteristics(self) -> list[str]:
        if isinstance(self.characteristic, str):
            return [self.characteristic]
        return list(self.characteristic)

    def predict(self, problems: np.ndarray) -> np.ndarray:
        """Predicted execution times for unseen problem characteristics."""
        X = self.counter_models.predictor_rows(problems, self.retained)
        return self.forest.predict(X)

    def predict_many(self, queries) -> list[np.ndarray]:
        """Batched :meth:`predict` over many problem arrays.

        Concatenates the queued problem arrays, generates counter rows
        and runs the forest once over the stack, then splits the
        predictions back per query. The counter models and the forest
        both map rows independently, so this is bit-identical to the
        per-query loop (see :func:`repro.core.api.predict_many`).
        """
        arrays = [np.asarray(q, dtype=float) for q in queries]
        if not arrays:
            return []
        lengths = [a.shape[0] for a in arrays]
        nonempty = [a for a in arrays if a.shape[0]]
        if not nonempty:
            return [np.zeros(0) for _ in arrays]
        stacked = (
            nonempty[0] if len(nonempty) == 1 else np.concatenate(nonempty)
        )
        flat = self.predict(stacked)
        out: list[np.ndarray] = []
        lo = 0
        for n in lengths:
            out.append(flat[lo : lo + n])
            lo += n
        return out

    def assess(self, campaign: CampaignResult) -> PredictionReport:
        """Predict an evaluation campaign's problems and compare."""
        with span("problem_scaling.assess", kernel=campaign.kernel):
            chars = self.characteristics
            if len(chars) == 1:
                problems = np.array(
                    [r.characteristics[chars[0]] for r in campaign.records]
                )
            else:
                problems = np.array(
                    [[r.characteristics[c] for c in chars] for r in campaign.records]
                )
            return PredictionReport(
                problems=problems[:, 0] if problems.ndim > 1 else problems,
                predicted_s=self.predict(problems),
                measured_s=campaign.times(),
            )

    def report(self, campaign: CampaignResult | None = None, *,
               trace=None, events=None, top_k: int = 10):
        """Build a structured :class:`~repro.obs.report.Report`."""
        from repro.obs.report import build_report

        return build_report(
            self, campaign, trace=trace, events=events, top_k=top_k
        )


class ProblemScalingPredictor:
    """Predicts times for unseen problem characteristics on one GPU."""

    def __init__(
        self,
        blackforest: BlackForest | None = None,
        *,
        characteristic: str | list[str] = "size",
        prefer_mars: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.blackforest = blackforest if blackforest is not None else BlackForest(rng=rng)
        self.characteristic = characteristic
        self.prefer_mars = prefer_mars
        self._rng = np.random.default_rng(rng)

    @property
    def characteristics(self) -> list[str]:
        if isinstance(self.characteristic, str):
            return [self.characteristic]
        return list(self.characteristic)

    def fit(self, campaign: CampaignResult) -> ProblemScalingFit:
        emit_event(
            "fit.start",
            stage="problem_scaling",
            kernel=campaign.kernel,
            arch=campaign.arch,
            n_records=len(campaign.records),
        )
        with span("problem_scaling.fit", kernel=campaign.kernel):
            fit = self.blackforest.fit(campaign, include_characteristics=True)
            retained = list(fit.reduced_feature_names)
            for char in self.characteristics:
                if char in fit.feature_names and char not in retained:
                    retained.append(char)

            # Forest over the retained predictors only (the paper's reduced
            # model), refit on the full training partition.
            cols = [fit.feature_names.index(n) for n in retained]
            forest = RandomForestRegressor(
                n_trees=self.blackforest.n_trees,
                min_samples_leaf=self.blackforest.min_samples_leaf,
                importance=False,
                rng=self._rng,
            ).fit(fit.X_train[:, cols], fit.y_train, feature_names=retained)

            # Counter models are fit on the training partition only, so the
            # held-out problems stay genuinely unseen.
            names = fit.feature_names
            for char in self.characteristics:
                if char not in names:
                    raise ValueError(
                        f"campaign has no problem characteristic {char!r}"
                    )
            xs = np.column_stack(
                [fit.X_train[:, names.index(c)] for c in self.characteristics]
            )
            series = {
                n: fit.X_train[:, names.index(n)]
                for n in retained
                if n not in self.characteristics
            }
            counter_models = CounterModelSet(
                characteristic=self.characteristic, prefer_mars=self.prefer_mars
            ).fit_arrays(xs, series)

        artifact = ProblemScalingFit(
            blackforest_fit=fit,
            retained=retained,
            forest=forest,
            counter_models=counter_models,
            characteristic=self.characteristic,
        )
        # Fitted state mirrored on the predictor: protocol-level
        # predict/assess delegate to the most recent fit.
        self.last_fit_ = artifact
        emit_event(
            "fit.end",
            stage="problem_scaling",
            kernel=campaign.kernel,
            arch=campaign.arch,
            n_retained=len(retained),
            degraded=fit.degradation is not None,
        )
        return artifact

    def _require_fit(self) -> ProblemScalingFit:
        fit = getattr(self, "last_fit_", None)
        if fit is None:
            raise RuntimeError("call fit() before predict()/assess()")
        return fit

    def predict(self, problems: np.ndarray) -> np.ndarray:
        """Predicted execution times for unseen problem characteristics."""
        return self._require_fit().predict(problems)

    def assess(self, campaign: CampaignResult) -> PredictionReport:
        """Predict an evaluation campaign's problems and compare."""
        return self._require_fit().assess(campaign)

    def report(self, campaign: CampaignResult | None = None, *,
               trace=None, events=None, top_k: int = 10):
        """Structured report for the most recent fit (see
        :meth:`ProblemScalingFit.report`)."""
        return self._require_fit().report(
            campaign=campaign, trace=trace, events=events, top_k=top_k
        )
