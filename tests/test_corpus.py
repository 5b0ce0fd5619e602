"""Spark corpus assembly: counts, coverage, determinism, oracle checks."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.culinarydb.corpus import _batches, _generate_region, build_corpus, generate_corpus
from repro.culinarydb.generator import RegionSpec, generate_batch, region_specs
from repro.flavordb.ingredients import N_INGREDIENTS
from repro.oracle import assert_equivalent
from repro.regions import REGIONS
from tests.reference import coverage_fixes_loop


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


def _raw(spec: RegionSpec, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A region's generated sizes and recipes before the coverage fixes."""
    batches = [generate_batch(spec, start, count, seed) for start, count in _batches(spec)]
    return np.concatenate([b[0] for b in batches]), [r for b in batches for r in b[1]]


def test_different_seed_differs():
    a = _raw(region_specs(0.02, 11, True)[0], 11)[1][:20]
    b = _raw(region_specs(0.02, 12, True)[0], 12)[1][:20]
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


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


def test_scale_without_coverage_smaller_unique_counts():
    specs = region_specs(0.02, 11, True)
    # without the coverage fixes at least one region misses pool members
    assert any(len(np.unique(np.concatenate(_raw(s, 11)[1]))) < len(s.pool) for s in specs)
    assert any(_generate_region(s, 11)[2] for s in specs)


def test_coverage_raises_without_a_victim():
    """Every member of the one recipe is used once region-wide, so none can
    make way for the pool's unused ingredients: the planner names the
    recipe instead of leaving them out."""
    spec = RegionSpec("KOR", 1, np.arange(30), np.ones(30), -1, recipe_offset=100)
    with pytest.raises(ValueError, match="region KOR, recipe 100: no member can make way for ingredient"):
        _generate_region(spec, 11)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(scale=st.floats(0.01, 0.3), seed=st.integers(0, 2**16))
def test_coverage_fixes_reach_every_pool_member(scale, seed):
    for spec in region_specs(scale, seed, True):
        sizes, raw = _raw(spec, seed)
        got_sizes, fixed, fixes = _generate_region(spec, seed)
        assert np.array_equal(got_sizes, sizes)
        assert {local: f.tolist() for local, f in fixes.items()} == coverage_fixes_loop(spec, raw)
        assert all(np.array_equal(f, fixes.get(local, r)) for local, (f, r) in enumerate(zip(fixed, raw)))
        final = np.concatenate(fixed)
        assert np.array_equal(np.unique(final), np.sort(spec.pool))
        missing = set(spec.pool.tolist()) - set(np.concatenate(raw).tolist())
        inserted: dict[int, int] = {}
        for k in range(len(missing)):
            inserted[k % spec.n_recipes] = inserted.get(k % spec.n_recipes, 0) + 1
        for local, before in enumerate(raw):
            after = fixed[local]
            assert len(after) == len(np.unique(after)) == sizes[local]
            assert np.count_nonzero(after != before) == inserted.get(local, 0)
            for gone in np.setdiff1d(before, after):
                assert np.count_nonzero(final == gone) >= 1


def test_spark_corpus_equals_driver_generation(corpus_small):
    """The executors' corpus and ``generate_corpus`` are both the raw
    generation with the loop oracle's fixes applied, row for row and member
    for member."""
    rows = []
    for spec in region_specs(0.02, 11, True):
        sizes, raw = _raw(spec, 11)
        fixes = coverage_fixes_loop(spec, raw)
        for local, (n, r) in enumerate(zip(sizes, raw)):
            rows.append((spec.recipe_offset + local, spec.code, n, fixes.get(local, r)))
    spark_corpus = corpus_small.toPandas().sort_values("recipe_id").reset_index(drop=True)
    for got in (spark_corpus, generate_corpus(0.02, 11)):
        assert got["recipe_id"].tolist() == [r[0] for r in rows]
        assert got["region"].tolist() == [r[1] for r in rows]
        assert got["n"].tolist() == [r[2] for r in rows]
        for a, (*_, b) in zip(got["ingredients"], rows):
            assert np.array_equal(a, b)


def test_build_corpus_starts_no_spark_job(spark):
    sc = spark.sparkContext
    sc.setJobGroup("build_corpus_call", "build_corpus only defines the corpus")
    try:
        build_corpus(spark, scale=0.02, seed=12)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("build_corpus_call") == []
