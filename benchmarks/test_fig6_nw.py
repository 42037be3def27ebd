"""Figure 6 — "Characterization and prediction of NW".

Paper claims reproduced:

* (6a) the importance figure is the paper's *pathological case*: after
  the leaders comes "a bunch of predictors of similar importance among
  which various memory throughput metrics"; "the lack of locality from
  the diagonal strip memory accesses leads to the presence of both
  l1_global_load_miss and l1_shared_bank_conflict";
* (6b) execution-time predictions for unseen sequence lengths with
  "average MSE and explained variance ... around 0 and 99%";
* (6c) the counter models are MARS fits ("built using earth, an R MARS
  implementation, with average R-squared of 0.99").
"""

import numpy as np

from repro import (
    BlackForest,
    Campaign,
    GTX580,
    NeedlemanWunschKernel,
    ProblemScalingPredictor,
)
from repro.viz import importance_chart, prediction_table, table

from _helpers import MEMORY_FAMILY


def build_predictor(campaign):
    return ProblemScalingPredictor(
        BlackForest(rng=1, importance_repeats=3), prefer_mars=True, rng=2
    ).fit(campaign)


def test_fig6_nw(nw_campaign, benchmark):
    predictor = benchmark.pedantic(
        build_predictor, args=(nw_campaign,), rounds=1, iterations=1
    )
    fit = predictor.blackforest_fit

    print()
    print("==== Fig. 6a: NW variable importance ====")
    print(importance_chart(fit.importance, k=12))

    # (6a) the Fermi cache/conflict witnesses of the diagonal-strip
    # access pattern are present and influential
    ranking = fit.importance
    assert "l1_global_load_miss" in ranking.names
    assert "l1_shared_bank_conflict" in ranking.names
    assert ranking.rank_of("l1_global_load_miss") < 8
    assert ranking.rank_of("l1_shared_bank_conflict") < 14

    # "a large number of variables have similar importance" — the
    # pathological case §7 discusses: many counters within 60% of the
    # leader's score
    scores = ranking.scores
    similar = int(np.sum(scores > 0.6 * scores[0]))
    print(f"\npredictors within 60% of the leader: {similar}")
    assert similar >= 8

    # ... most of them memory metrics
    upper = ranking.top(max(8, similar))
    assert len([n for n in upper if n in MEMORY_FAMILY]) >= 5

    # size is a predictor in the model (paper: size is a leader)
    assert "size" in ranking.names
    assert ranking.rank_of("size") < len(ranking.names) // 2

    # model accuracy: "MSE and explained variance ... around 0 and 99%"
    assert fit.oob_explained_variance > 0.97

    # (6b) unseen sequence lengths
    unseen = [96, 992, 2080, 4032, 6080, 7936]
    eval_campaign = Campaign(NeedlemanWunschKernel(), GTX580, rng=77).run(
        problems=unseen
    )
    report = predictor.assess(eval_campaign)
    print()
    print(prediction_table(report, title="Fig. 6b: predicted vs measured NW times"))
    assert report.explained_variance > 0.97

    # (6c) MARS counter models with high average R^2 (paper: 0.99)
    rows = predictor.counter_models.quality_table()
    print()
    print(table(["counter", "model", "R^2", "residual deviance"], rows,
                title="Fig. 6c: MARS counter models vs sequence length"))
    assert any(kind == "mars" for _, kind, _, _ in rows)
    assert predictor.counter_models.average_r_squared > 0.95
