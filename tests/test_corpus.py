"""Spark corpus assembly: counts, coverage, determinism, oracle checks."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest
from pyspark.errors import PythonException

from repro.culinarydb.corpus import CORPUS_SCHEMA, _apply_swaps, _generate_df, build_corpus, explode_corpus
from repro.culinarydb.generator import RegionSpec, region_specs
from repro.flavordb.ingredients import N_INGREDIENTS
from repro.oracle import assert_equivalent
from repro.regions import REGIONS


def test_recipe_counts_exact(corpus_small):
    got = {
        r["region"]: r["cnt"]
        for r in corpus_small.groupBy("region").agg(F.count("*").alias("cnt")).collect()
    }
    for s in region_specs(0.02, 11, True):
        assert got[s.code] == s.n_recipes


def test_unique_ingredient_coverage_exact(corpus_small, exploded_small):
    got = {
        r["region"]: r["uniq"]
        for r in exploded_small.groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("uniq"))
        .collect()
    }
    for s in region_specs(0.02, 11, True):
        assert got[s.code] == len(s.pool)


def test_used_ingredients_subset_of_pool(exploded_small):
    pools = {s.code: set(s.pool.tolist()) for s in region_specs(0.02, 11, True)}
    used = (
        exploded_small.groupBy("region")
        .agg(F.collect_set("ingredient_id").alias("used"))
        .collect()
    )
    for row in used:
        assert set(row["used"]) <= pools[row["region"]]


def test_no_duplicate_ingredients_within_recipe(corpus_small):
    bad = corpus_small.where(
        F.size(F.array_distinct("ingredients")) != F.col("n")
    ).count()
    assert bad == 0


def test_n_matches_array_length(corpus_small):
    bad = corpus_small.where(F.size("ingredients") != F.col("n")).count()
    assert bad == 0


def test_recipe_ids_globally_unique(corpus_small):
    total = corpus_small.count()
    assert corpus_small.select("recipe_id").distinct().count() == total


def test_ingredient_ids_in_range(exploded_small):
    bad = exploded_small.where(
        (F.col("ingredient_id") < 0) | (F.col("ingredient_id") >= N_INGREDIENTS)
    ).count()
    assert bad == 0


def test_sizes_within_bounds(corpus_small):
    row = corpus_small.agg(
        F.min("n").alias("lo"), F.max("n").alias("hi"), F.avg("n").alias("mean")
    ).first()
    assert row["lo"] >= 2 and row["hi"] <= 25
    assert 8.0 < row["mean"] < 10.0


def test_deterministic_rebuild(spark, corpus_small):
    again = build_corpus(spark, scale=0.02, seed=11)
    a = corpus_small.select("recipe_id", "region", "n").toPandas().sort_values("recipe_id")
    b = again.select("recipe_id", "region", "n").toPandas().sort_values("recipe_id")
    pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))
    # spot-check full ingredient arrays on a sample
    sa = corpus_small.orderBy("recipe_id").limit(50).collect()
    sb = again.orderBy("recipe_id").limit(50).collect()
    for x, y in zip(sa, sb):
        assert x["ingredients"] == y["ingredients"]


def test_different_seed_differs(spark, corpus_small):
    other = _generate_df(spark, region_specs(0.02, 12, True), 12)
    a = corpus_small.orderBy("recipe_id").limit(20).collect()
    b = other.orderBy("recipe_id").limit(20).collect()
    assert any(x["ingredients"] != y["ingredients"] for x, y in zip(a, b))


def test_explode_matches_oracle(corpus_small, exploded_small):
    """Exploded counts per region == DuckDB unnest over the same corpus."""
    got = exploded_small.groupBy("region").agg(F.count("*").alias("usages"))
    corpus_pdf = corpus_small.select("region", "ingredients").toPandas()
    assert_equivalent(
        got,
        """
        SELECT region, count(*) AS usages
        FROM (SELECT region, unnest(ingredients) FROM corpus)
        GROUP BY region
        """,
        corpus=corpus_pdf,
    )


def test_all_regions_present(corpus_small):
    regions = {r["region"] for r in corpus_small.select("region").distinct().collect()}
    assert regions == {r.code for r in REGIONS} | {"OTHER"}


def test_scale_without_coverage_smaller_unique_counts(spark):
    raw = _generate_df(spark, region_specs(0.02, 11, True), 11)
    uniq = (
        explode_corpus(raw)
        .groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("u"))
        .collect()
    )
    pools = {s.code: len(s.pool) for s in region_specs(0.02, 11, True)}
    # without the coverage pass at least one region misses pool members
    assert any(r["u"] < pools[r["region"]] for r in uniq)


def test_apply_swaps_raises_without_a_victim(spark):
    """Both members are used once region-wide, so neither can make way for
    the missing ingredient: the swap step names the recipe instead of
    leaving the ingredient out."""
    spec = RegionSpec("KOR", 10, np.arange(12), np.ones(12), -1, recipe_offset=100)
    recipes = spark.createDataFrame([(105, "KOR", 2, [1, 2])], CORPUS_SCHEMA)
    swapped = _apply_swaps(recipes, (spec,), {("KOR", 5): [9]}, {"KOR": {1: 1, 2: 1}})
    with pytest.raises(PythonException, match="ValueError: region KOR, recipe 105: no member can make way for ingredient 9"):
        swapped.collect()
