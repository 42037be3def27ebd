"""Figure 5 — "Characterization and prediction of MM".

Paper claims reproduced:

* (5a) "the most important variables for the prediction are counters
  relative to global memory performance and occupancy, especially
  counters pertaining to global store throughput" — store/global-memory
  counters populate the top of the ranking; ``gst_requested_throughput``
  falls with the matrix size (the store-bottleneck signature: "higher
  memory parallelism for load operations in contrary to stores");
* (5b) predicted vs measured execution times for unseen sizes — the
  paper reports "average MSE of 3.2 and 98% of explained variance";
* (5c) the retained counters are modeled as generalized linear models
  of the matrix size, "all low residual deviance ... except for
  inst_replay_overhead", whose poor fit the paper calls out.
"""

import numpy as np

from repro import BlackForest, Campaign, GTX580, MatMulKernel, ProblemScalingPredictor
from repro.viz import importance_chart, prediction_table, table

from _helpers import MEMORY_FAMILY, STORE_FAMILY


def build_predictor(campaign):
    return ProblemScalingPredictor(
        BlackForest(rng=1, importance_repeats=3), rng=2
    ).fit(campaign)


def test_fig5_matmul(mm_campaign, benchmark):
    predictor = benchmark.pedantic(
        build_predictor, args=(mm_campaign,), rounds=1, iterations=1
    )
    fit = predictor.blackforest_fit

    print()
    print("==== Fig. 5a: MM variable importance ====")
    print(importance_chart(fit.importance, k=10))

    # (5a) global-memory/store counters dominate the ranking
    top8 = fit.importance.top(8)
    assert len([n for n in top8 if n in MEMORY_FAMILY]) >= 3, top8
    assert set(top8) & STORE_FAMILY, f"no store counter in top 8: {top8}"

    # store-throughput signature: requested store throughput falls as n
    # grows (stores become the bottleneck)
    X, _, names = mm_campaign.matrix()
    size = X[:, names.index("size")]
    gst = X[:, names.index("gst_requested_throughput")]
    order = np.argsort(size)
    first, last = gst[order[:6]].mean(), gst[order[-6:]].mean()
    print(f"\ngst_requested_throughput: {first:.2f} GB/s at small n -> "
          f"{last:.2f} GB/s at large n")
    assert last < first

    # (5b) predictions for unseen sizes
    unseen = [96, 208, 416, 608, 928, 1360, 1936]
    eval_campaign = Campaign(MatMulKernel(), GTX580, rng=99).run(problems=unseen)
    report = predictor.assess(eval_campaign)
    print()
    print(prediction_table(report, title="Fig. 5b: predicted vs measured MM times"))
    assert report.explained_variance > 0.90   # paper: 98%

    # (5c) counter models
    rows = predictor.counter_models.quality_table()
    print()
    print(table(["counter", "model", "R^2", "residual deviance"], rows,
                title="Fig. 5c: counter models vs matrix size"))
    r2s = {name: r2 for name, _, r2, _ in rows}
    good = [name for name, r2 in r2s.items() if r2 > 0.95]
    assert len(good) >= max(1, len(r2s) - 2), (
        f"too many poor counter models: {r2s}"
    )

    # reduced model keeps 6-8 variables with full predictive power
    assert 6 <= len(predictor.retained) <= 9
    assert fit.reduced_retains_power
