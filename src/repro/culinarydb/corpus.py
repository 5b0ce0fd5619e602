"""Assemble the synthetic recipe corpus as Spark DataFrames.

Generation is sharded into batches and expanded with ``mapInPandas``;
each batch is deterministic in (region, batch start, seed) so output is
identical regardless of partition placement or recomputation.

A *coverage pass* then guarantees the Table 1 unique-ingredient counts:
ingredients of a region's pool that random sampling never used are
swapped into deterministic recipes, replacing the most popular member
(whose thousands of other occurrences make the distortion negligible).

Schema of the corpus DataFrame::

    recipe_id   long      globally unique
    region      string    region code (Table 1) or 'OTHER'
    n           int       recipe size (number of ingredients)
    ingredients array<long>  distinct ingredient ids
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.culinarydb.generator import RegionSpec, generate_batch, region_specs

CORPUS_SCHEMA = StructType(
    [
        StructField("recipe_id", LongType()),
        StructField("region", StringType()),
        StructField("n", IntegerType()),
        StructField("ingredients", ArrayType(LongType())),
    ]
)

#: Recipes per generation batch.  Each batch's RNG stream is keyed on its
#: start, so changing this changes the corpus.
BATCH_SIZE = 2000

_PLAN_SCHEMA = StructType(
    [
        StructField("code", StringType()),
        StructField("start", IntegerType()),
        StructField("count", IntegerType()),
    ]
)


def _generate_df(spark: SparkSession, specs: tuple[RegionSpec, ...], seed: int) -> DataFrame:
    """Expand a (region, batch) plan into recipes via mapInPandas."""
    plan_rows = [
        (s.code, start, min(BATCH_SIZE, s.n_recipes - start))
        for s in specs
        for start in range(0, s.n_recipes, BATCH_SIZE)
    ]
    plan = spark.createDataFrame(plan_rows, _PLAN_SCHEMA).repartition(
        max(1, min(len(plan_rows), spark.sparkContext.defaultParallelism))
    )
    by_code = {s.code: s for s in specs}

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for code, start, count in pdf.itertuples(index=False):
                spec = by_code[code]
                sizes, recipes = generate_batch(spec, int(start), int(count), seed)
                yield pd.DataFrame(
                    {
                        "recipe_id": spec.recipe_offset + start + np.arange(count),
                        "region": code,
                        "n": sizes.astype(np.int32),
                        "ingredients": [r.astype(np.int64) for r in recipes],
                    }
                )

    return plan.mapInPandas(gen, CORPUS_SCHEMA)


def _coverage_plan(
    recipes: DataFrame, specs: tuple[RegionSpec, ...]
) -> tuple[dict[tuple[str, int], list[int]], dict[str, dict[int, int]]]:
    """Find pool ingredients never sampled and plan deterministic swaps.

    Returns (swaps, counts): ``swaps[(region, local_idx)]`` lists
    ingredient ids to insert into that recipe; ``counts[region]`` maps
    ingredient id → usage count (for victim selection).
    """
    usage = (
        recipes.select("region", F.explode("ingredients").alias("ingredient_id"))
        .groupBy("region", "ingredient_id")
        .count()
        .toPandas()
    )
    counts: dict[str, dict[int, int]] = {
        region: dict(zip(g["ingredient_id"], g["count"]))
        for region, g in usage.groupby("region")
    }
    swaps: dict[tuple[str, int], list[int]] = {}
    for spec in specs:
        used = counts.get(spec.code, {})
        missing = [int(i) for i in spec.pool if int(i) not in used]
        for k, ing in enumerate(missing):
            swaps.setdefault((spec.code, k % spec.n_recipes), []).append(ing)
    return swaps, counts


def _apply_swaps(
    recipes: DataFrame,
    specs: tuple[RegionSpec, ...],
    swaps: dict[tuple[str, int], list[int]],
    counts: dict[str, dict[int, int]],
) -> DataFrame:
    """Swap missing ingredients into their planned recipes.

    Raises ``ValueError`` naming the region, the recipe and the ingredient
    when no member of the recipe can make way for it, rather than leave
    the ingredient out of the region's Table 1 count.
    """
    offsets = {s.code: s.recipe_offset for s in specs}

    def fix(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out_ing = list(pdf["ingredients"])
            for row_i, (rid, region) in enumerate(zip(pdf["recipe_id"], pdf["region"])):
                local = int(rid) - offsets[region]
                inserts = swaps.get((region, local))
                if not inserts:
                    continue
                ing = list(out_ing[row_i])
                cnt = counts[region]
                replaced: set[int] = set()
                for new_ing in inserts:
                    # Victim: the most-used member not already swapped in
                    # this pass and used at least twice region-wide, so
                    # removing one occurrence cannot orphan it.
                    cand = [
                        (cnt.get(int(x), 0), int(x))
                        for x in ing
                        if int(x) not in replaced and cnt.get(int(x), 0) >= 2
                    ]
                    if not cand:
                        raise ValueError(
                            f"region {region}, recipe {int(rid)}: no member can make way for ingredient {new_ing}"
                        )
                    victim = max(cand)[1]
                    ing[ing.index(victim)] = new_ing
                    replaced.add(new_ing)
                out_ing[row_i] = np.asarray(ing, dtype=np.int64)
            pdf = pdf.copy()
            pdf["ingredients"] = out_ing
            yield pdf

    return recipes.mapInPandas(fix, CORPUS_SCHEMA)


def build_corpus(spark: SparkSession, *, scale: float = 1.0, seed: int = 11) -> DataFrame:
    """Build the recipe corpus at ``scale`` (1.0 → the paper's 45,772).

    The coverage pass then makes the per-region unique-ingredient counts
    hit the Table 1 targets exactly.
    """
    specs = region_specs(scale, seed)
    recipes = _generate_df(spark, specs, seed).persist()
    try:
        swaps, cnts = _coverage_plan(recipes, specs)
    except Exception:
        recipes.unpersist()
        raise
    if not swaps:
        return recipes
    return _apply_swaps(recipes, specs, swaps, cnts)


def explode_corpus(recipes: DataFrame) -> DataFrame:
    """Long format: one (recipe_id, region, n, ingredient_id) row per member."""
    return recipes.select(
        "recipe_id", "region", "n", F.explode("ingredients").alias("ingredient_id")
    )
