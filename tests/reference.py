"""Catalyst join forms of the overlap table and of N_s^R, and the
per-recipe loop form of the randomized-cuisine generators.

Reference implementations only: the package builds the overlap matrix
with :func:`repro.flavordb.profiles.shared_matrix_numpy`, scores recipes
with :func:`repro.core.pairing.member_overlap` and draws random recipes
as padded matrices with :func:`repro.core.randomize.model_batch`.  The
tests check these joins against the DuckDB oracle and the package
against them.
"""
from __future__ import annotations

import zlib

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core.randomize import RegionInputs


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


def model_batch_loop(
    inp: RegionInputs, model: str, start: int, count: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(sizes, one member array per recipe) from the same random stream
    as :func:`repro.core.randomize.model_batch`, recipe by recipe."""
    rng = np.random.default_rng(
        [seed, zlib.crc32(inp.code.encode()), zlib.crc32(model.encode()), start]
    )
    weighted = model in ("frequency", "freq_cat")
    if model in ("random", "frequency"):
        sizes = rng.choice(inp.sizes, size=count)
        log_w = np.log(inp.counts) if weighted else np.zeros(len(inp.pool))
        keys = log_w[None, :] + rng.gumbel(size=(count, len(inp.pool)))
        order = np.argsort(-keys, axis=1)
        return sizes, [inp.pool[order[i, : sizes[i]]] for i in range(count)]
    templates = rng.integers(0, len(inp.cat_comp), size=count)
    comp = inp.cat_comp[templates]
    sizes = comp.sum(axis=1).astype(np.int64)
    picks: list[list[np.ndarray]] = [[] for _ in range(count)]
    for c in range(comp.shape[1]):
        k_vec = comp[:, c]
        rows = np.nonzero(k_vec)[0]
        if len(rows) == 0:
            continue
        members = np.nonzero(inp.cat_idx == c)[0]
        log_w = np.log(inp.counts[members]) if weighted else np.zeros(len(members))
        keys = log_w[None, :] + rng.gumbel(size=(len(rows), len(members)))
        order = np.argsort(-keys, axis=1)
        for r_i, row in enumerate(rows):
            picks[row].append(inp.pool[members[order[r_i, : k_vec[row]]]])
    return sizes, [np.concatenate(p) for p in picks]
