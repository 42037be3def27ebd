#!/usr/bin/env python3
"""Predict matrix-multiply execution times for unseen problem sizes.

The paper's Section 6.1.1 workflow: collect counter data for tiled
matrix multiplication over 24 matrix sizes, fit BlackForest, reduce to
the most influential predictors, model each retained counter as a
(generalized) linear model of the matrix size, and combine the models
with the forest to predict execution times for matrix sizes never
profiled.

Run:  python examples/matmul_problem_scaling.py
"""

import numpy as np

from repro import (
    BlackForest,
    Campaign,
    GTX580,
    MatMulKernel,
    ProblemScalingPredictor,
    prediction_report_text,
)
from repro.viz import importance_chart, table

kernel = MatMulKernel()

# ---- data collection: the paper's 24-size sweep, a few runs each ----
train_campaign = Campaign(kernel, GTX580, rng=0).run(replicates=3)
print(f"training campaign: {len(train_campaign)} runs, "
      f"sizes {train_campaign.problems()[0]}..{train_campaign.problems()[-1]}")

# ---- fit + problem-scaling predictor ----
predictor = ProblemScalingPredictor(BlackForest(rng=1), rng=2).fit(train_campaign)
fit = predictor.blackforest_fit

print()
print(importance_chart(fit.importance, k=10,
                       title="MM variable importance (Fig. 5a analogue)"))

# ---- the Fig. 5c analogue: counter models vs matrix size ----
print()
print(table(
    ["counter", "model", "R^2", "residual deviance"],
    predictor.counter_models.quality_table(),
    title="Counter models (Fig. 5c analogue)",
))

# ---- predict unseen sizes (not in the training sweep) ----
unseen = [96, 208, 416, 608, 928, 1360, 1936]
eval_campaign = Campaign(kernel, GTX580, rng=99).run(problems=unseen)
report = predictor.assess(eval_campaign)

print()
print(prediction_report_text(
    report, title="Predicted vs measured times for unseen sizes (Fig. 5b analogue)"
))

assert report.explained_variance > 0.8, "problem scaling should be accurate"

# Bonus: extrapolate a smooth curve of predictions across the range.
sizes = np.arange(64, 2049, 64, dtype=float)
times = predictor.predict(sizes)
print()
print("predicted scaling curve (size -> ms):")
print("  " + "  ".join(f"{int(s)}:{t * 1e3:.2f}" for s, t in
                       list(zip(sizes, times))[::4]))
