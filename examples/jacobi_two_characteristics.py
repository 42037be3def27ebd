#!/usr/bin/env python3
"""Two problem characteristics and MARS interaction terms.

The paper chose MARS for the counter models because it handles
"nonlinearities and parameter interactions" — interactions only exist
when a problem has more than one characteristic. This example uses the
iterative Jacobi solver, whose problems are (grid size, iterations)
pairs: counters grow like size^2 x iterations, so the MARS models need
genuine interaction (degree-2) basis functions, and the prediction flow
must fill in *two* characteristic columns.

Run:  python examples/jacobi_two_characteristics.py
"""

import numpy as np

from repro import BlackForest, Campaign, GTX580, JacobiSolverKernel
from repro.core.prediction import ProblemScalingPredictor
from repro.viz import table

kernel = JacobiSolverKernel()

# ---- collect the (size x iterations) grid of runs ----
campaign = Campaign(kernel, GTX580, rng=0).run()
print(f"campaign: {len(campaign)} runs over "
      f"{len({p[0] for p in campaign.problems()})} sizes x "
      f"{len({p[1] for p in campaign.problems()})} iteration counts")

# ---- fit a two-characteristic problem-scaling predictor ----
predictor = ProblemScalingPredictor(
    BlackForest(n_trees=200, use_pca=False, rng=1),
    characteristic=["size", "iterations"],
    rng=2,
).fit(campaign)

print("\nretained predictors:", predictor.retained)

# show which counter models needed interaction terms
rows = []
for name, model in sorted(predictor.counter_models.models.items()):
    interactions = (
        sum(1 for b in model.model.basis_ if b.degree >= 2)
        if model.kind == "mars" else 0
    )
    rows.append((name, model.kind, f"{model.r_squared:.3f}", interactions))
print()
print(table(["counter", "model", "R^2", "interaction terms"], rows,
            title="Counter models over (size, iterations)"))

# ---- predict unseen (size, iterations) pairs ----
unseen = [(320, 3), (640, 12), (896, 24), (1280, 6), (448, 48)]
eval_campaign = Campaign(kernel, GTX580, rng=77).run(problems=unseen)
report = predictor.assess(eval_campaign)

rows = [
    (f"({int(n)}, {int(i)})", f"{p * 1e3:.3f} ms", f"{m * 1e3:.3f} ms",
     f"{100 * (p - m) / m:+.1f}%")
    for (n, i), (_, p, m) in zip(unseen, report.rows())
]
print()
print(table(["(size, iterations)", "predicted", "measured", "error"], rows,
            title="Unseen problem pairs"))
print(f"\nexplained variance: {100 * report.explained_variance:.1f}%")

# a sanity surface: predictions grow in both directions
sizes = np.array([256.0, 512.0, 1024.0])
for iters in (4.0, 16.0):
    pts = np.column_stack([sizes, np.full(3, iters)])
    times = predictor.predict(pts)
    print(f"iterations={int(iters):2d}: "
          + "  ".join(f"n={int(s)}: {t * 1e3:.2f}ms"
                      for s, t in zip(sizes, times)))
