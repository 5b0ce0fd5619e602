"""End-to-end: corpus → phrases → aliasing → identical pairing analysis.

Exercises the paper's whole Fig. 1 strategy on a small corpus: raw
phrases are aliased back to ingredient ids, the aliased corpus is
rebuilt, and food-pairing scores computed from it equal those from the
ground-truth corpus.
"""
import numpy as np
import pyspark.sql.functions as F
import pytest

from repro.aliasing.mapper import alias_phrases
from repro.core.randomize import REAL, batch_plan, region_model_inputs
from repro.core.zscore import model_moments
from repro.culinarydb.phrases import phrases_df
from tests.reference import cuisine_scores, recipe_scores_fast, recipe_scores_join


@pytest.fixture(scope="module")
def aliased(spark, exploded_small):
    sub = exploded_small.where(F.col("region").isin(["GRC", "THA"]))
    df = alias_phrases(phrases_df(sub, seed=23)).persist()
    df.count()
    yield df
    df.unpersist()


def test_full_recovery(aliased):
    assert aliased.where(
        (F.col("mapped_id") != F.col("ingredient_id"))
        | F.col("mapped_id").isNull()
    ).count() == 0


def test_pairing_scores_identical_through_aliasing(
    spark, aliased, exploded_small, pairs_df
):
    """Scores from the aliased pipeline == scores from ground truth."""
    sub = exploded_small.where(F.col("region").isin(["GRC", "THA"]))
    rebuilt = (
        aliased.select("recipe_id", "region", F.col("mapped_id").alias("ingredient_id"))
        .join(
            sub.groupBy("recipe_id").agg(F.count("*").alias("n")),
            on="recipe_id",
        )
    )
    truth = (
        recipe_scores_join(sub, pairs_df)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    via_alias = (
        recipe_scores_join(rebuilt, pairs_df)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    assert len(truth) == len(via_alias)
    assert np.abs(truth["score"] - via_alias["score"]).max() < 1e-12


def test_cuisine_scores_stable_across_paths(
    spark, corpus_small, exploded_small, pairs_df, overlap_matrix
):
    """N_s^C, σ and the recipe count: join reference == per-recipe kernel
    == the fused Fig. 4 stage's ``real`` rows."""
    inputs = region_model_inputs(spark, corpus_small)
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
