"""End-to-end: corpus → phrases → aliasing → identical pairing analysis.

Exercises the paper's whole Fig. 1 strategy on a small corpus: raw
phrases are aliased back to ingredient ids, the aliased corpus is
rebuilt, and food-pairing scores computed from it equal those from the
ground-truth corpus.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.pairing import flat_overlap
from repro.core.randomize import REAL, batch_plan
from repro.core.zscore import model_moments
from tests.reference import cuisine_scores, recipe_scores_fast, recipe_scores_join


@pytest.fixture(scope="module")
def rebuilt(aliased_small) -> pd.Series:
    """Each recipe's aliased members, in the corpus's recipe order."""
    members = aliased_small.astype({"mapped_id": np.int64})
    return members.groupby("recipe_id", sort=False)["mapped_id"].agg(list)


def test_full_recovery(aliased_small, rebuilt, recipes_small):
    assert (aliased_small["status"] == "exact").all()
    assert rebuilt.index.tolist() == recipes_small["recipe_id"].tolist()
    for got, want in zip(rebuilt, recipes_small["ingredients"]):
        np.testing.assert_array_equal(got, want)


def test_pairing_scores_identical_through_aliasing(rebuilt, recipes_small, overlap_matrix):
    """N_s^R from the aliased recipes == N_s^R from ground truth."""
    n = recipes_small["n"].to_numpy()

    def scores(ingredients: pd.Series) -> np.ndarray:
        t = flat_overlap(np.concatenate(ingredients.to_list()), n, lambda row: f"recipe {row}", overlap_matrix)
        return np.add.reduceat(t, np.cumsum(n) - n) / (n * (n - 1.0))

    np.testing.assert_array_equal(scores(rebuilt), scores(recipes_small["ingredients"]))


def test_cuisine_scores_stable_across_paths(
    spark, corpus_small, exploded_small, pairs_df, overlap_matrix, inputs_small
):
    """N_s^C, σ and the recipe count: join reference == per-recipe kernel
    == the fused Fig. 4 stage's ``real`` rows."""
    inputs = inputs_small
    via_join, via_fast, via_fused = (
        df.set_index("region").sort_index()
        for df in (
            cuisine_scores(recipe_scores_join(exploded_small, pairs_df)).toPandas(),
            cuisine_scores(recipe_scores_fast(corpus_small, overlap_matrix)).toPandas(),
            model_moments(spark, batch_plan(inputs, (REAL,), 1), inputs, overlap_matrix, seed=0),
        )
    )
    assert np.abs(via_join["ns"] - via_fast["ns"]).max() < 1e-9
    assert via_fused["n_recipes"].to_dict() == via_join["n_recipes"].to_dict()
    for col in ("ns", "sigma"):
        np.testing.assert_allclose(via_fused[col], via_join[col], rtol=1e-9)
