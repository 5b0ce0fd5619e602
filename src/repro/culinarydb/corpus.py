"""Assemble the synthetic recipe corpus as a Spark DataFrame.

Generation is sharded into batches and expanded with one ``mapInPandas``;
each batch is deterministic in (region, batch start, seed) so output is
identical regardless of partition placement or recomputation.

A *coverage plan* guarantees the Table 1 unique-ingredient counts. The
driver generates each region's batches once, counts ingredient usage
with NumPy, and deals the pool ingredients that sampling never used
round-robin over the region's recipes. Each one replaces, in place, the
recipe's most-used member among those used at least twice region-wide
(whose other occurrences make the distortion negligible). The
``mapInPandas`` pass overrides the planned recipes with their fixed
members, so ``build_corpus`` starts no Spark job.

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


def _batches(spec: RegionSpec) -> list[tuple[int, int]]:
    """(start, count) of each generation batch of a region."""
    return [
        (start, min(BATCH_SIZE, spec.n_recipes - start))
        for start in range(0, spec.n_recipes, BATCH_SIZE)
    ]


def _coverage_fixes(
    specs: tuple[RegionSpec, ...], seed: int
) -> dict[tuple[str, int], np.ndarray]:
    """Plan the swaps that bring every unused pool ingredient into its region.

    Returns ``{(region, local_idx): fixed ingredient ids}`` for the recipes
    that change. Raises ``ValueError`` naming the region, the recipe and
    the ingredient when no member of the recipe can make way for it,
    rather than leave the ingredient out of the region's Table 1 count.
    """
    fixes: dict[tuple[str, int], np.ndarray] = {}
    for spec in specs:
        recipes = [
            r for start, count in _batches(spec) for r in generate_batch(spec, start, count, seed)[1]
        ]
        used, counts = np.unique(np.concatenate(recipes), return_counts=True)
        inserts: dict[int, list[int]] = {}
        for k, ing in enumerate(spec.pool[~np.isin(spec.pool, used)].tolist()):
            inserts.setdefault(k % spec.n_recipes, []).append(ing)
        for local, new in inserts.items():
            members = recipes[local].astype(np.int64)
            # A victim must be used at least twice region-wide, so removing
            # one occurrence leaves another; an inserted member counts 0.
            member_counts = counts[np.searchsorted(used, members)]
            for ing in new:
                eligible = np.flatnonzero(member_counts >= 2)
                if not eligible.size:
                    raise ValueError(
                        f"region {spec.code}, recipe {spec.recipe_offset + local}: "
                        f"no member can make way for ingredient {ing}"
                    )
                # The most-used member; ties go to the larger id.
                victim = eligible[np.lexsort((members[eligible], member_counts[eligible]))[-1]]
                members[victim], member_counts[victim] = ing, 0
            fixes[(spec.code, local)] = members
    return fixes


def build_corpus(spark: SparkSession, *, scale: float = 1.0, seed: int = 11) -> DataFrame:
    """Build the recipe corpus at ``scale`` (1.0 → the paper's 45,772).

    The coverage plan makes the per-region unique-ingredient counts hit
    the Table 1 targets exactly.
    """
    specs = region_specs(scale, seed)
    fixes = _coverage_fixes(specs, seed)
    plan_rows = [(s.code, start, count) for s in specs for start, count in _batches(s)]
    plan = spark.createDataFrame(plan_rows, _PLAN_SCHEMA).repartition(
        max(1, min(len(plan_rows), spark.sparkContext.defaultParallelism))
    )
    by_code = {s.code: s for s in specs}

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for code, start, count in pdf.itertuples(index=False):
                spec, start, count = by_code[code], int(start), int(count)
                sizes, recipes = generate_batch(spec, start, count, seed)
                yield pd.DataFrame(
                    {
                        "recipe_id": spec.recipe_offset + start + np.arange(count),
                        "region": code,
                        "n": sizes.astype(np.int32),
                        "ingredients": [
                            fixes.get((code, start + i), r).astype(np.int64)
                            for i, r in enumerate(recipes)
                        ],
                    }
                )

    return plan.mapInPandas(gen, CORPUS_SCHEMA)


def explode_corpus(recipes: DataFrame) -> DataFrame:
    """Long format: one (recipe_id, region, n, ingredient_id) row per member."""
    return recipes.select(
        "recipe_id", "region", "n", F.explode("ingredients").alias("ingredient_id")
    )
