"""Catalyst join forms of the overlap table and of N_s^R.

Reference implementations only: the package builds the overlap matrix
with :func:`repro.flavordb.profiles.shared_matrix_numpy` and scores
recipes with :func:`repro.core.pairing.member_overlap`.  The tests check
these joins against the DuckDB oracle and the package against them.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import DataFrame


def shared_pairs(profiles: DataFrame) -> DataFrame:
    """|F_i ∩ F_j| for every ingredient pair i < j with nonzero overlap.

    Columns: ``i``, ``j``, ``shared``.  Pairs that share no molecule are
    absent (consumers must treat missing as 0).
    """
    a = profiles.select(
        F.col("ingredient_id").alias("i"), F.col("molecule_id").alias("m")
    )
    b = profiles.select(
        F.col("ingredient_id").alias("j"), F.col("molecule_id").alias("m")
    )
    return (
        a.join(b, on="m")
        .where(F.col("i") < F.col("j"))
        .groupBy("i", "j")
        .agg(F.count("*").alias("shared"))
    )


def recipe_scores_join(exploded: DataFrame, shared: DataFrame) -> DataFrame:
    """N_s^R per recipe via DataFrame joins.

    ``exploded`` has (recipe_id, region, n, ingredient_id); ``shared``
    comes from :func:`shared_pairs`.  Returns (recipe_id, region, n,
    score).  Zero-overlap pairs contribute 0 via the left join; recipes
    whose pairs all have zero overlap still appear (score 0) because the
    pair self-join always produces n(n-1)/2 rows per recipe.
    """
    left = exploded.select(
        "recipe_id", "region", "n", F.col("ingredient_id").alias("i")
    )
    right = exploded.select("recipe_id", F.col("ingredient_id").alias("j"))
    pairs = left.join(right, on="recipe_id").where(F.col("i") < F.col("j"))
    scored = pairs.join(shared, on=["i", "j"], how="left").withColumn(
        "shared", F.coalesce(F.col("shared"), F.lit(0))
    )
    return scored.groupBy("recipe_id", "region", "n").agg(
        (F.sum("shared") * 2.0 / (F.first("n") * (F.first("n") - 1))).alias("score")
    )
