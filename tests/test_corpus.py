"""Spark corpus assembly: counts, coverage, determinism, oracle checks."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.culinarydb.corpus import (
    FlatCorpus,
    _batches,
    _generate_region,
    build_corpus,
    corpus_frame,
    flat_corpus,
)
from repro.culinarydb.generator import RegionSpec, generate_batch, region_specs
from repro.flavordb.ingredients import N_INGREDIENTS
from repro.oracle import assert_equivalent
from repro.regions import REGIONS
from tests.conftest import SEED
from tests.reference import coverage_fixes_loop, nested_corpus


def test_recipe_counts_exact(corpus_small):
    got = {
        r["region"]: r["cnt"]
        for r in corpus_small.groupBy("region").agg(F.count("*").alias("cnt")).collect()
    }
    for s in region_specs(0.02, 11):
        assert got[s.code] == s.n_recipes


def test_unique_ingredient_coverage_exact(corpus_small, exploded_small):
    got = {
        r["region"]: r["uniq"]
        for r in exploded_small.groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("uniq"))
        .collect()
    }
    for s in region_specs(0.02, 11):
        assert got[s.code] == len(s.pool)


def test_used_ingredients_subset_of_pool(exploded_small):
    pools = {s.code: set(s.pool.tolist()) for s in region_specs(0.02, 11)}
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
    sizes = np.concatenate([b[0] for b in batches])
    return sizes, np.split(np.concatenate([b[1] for b in batches]), np.cumsum(sizes)[:-1])


def test_different_seed_differs():
    a = _raw(region_specs(0.02, 11)[0], 11)[1][:20]
    b = _raw(region_specs(0.02, 12)[0], 12)[1][:20]
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
    specs = region_specs(0.02, 11)
    # without the coverage fixes at least one region misses pool members
    assert any(len(np.unique(np.concatenate(_raw(s, 11)[1]))) < len(s.pool) for s in specs)
    assert any(not np.array_equal(_generate_region(s, 11)[1], np.concatenate(_raw(s, 11)[1])) for s in specs)


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
    for spec in region_specs(scale, seed):
        sizes, raw = _raw(spec, seed)
        got_sizes, members = _generate_region(spec, seed)
        assert np.array_equal(got_sizes, sizes)
        assert members.dtype == np.int64 and len(members) == sizes.sum()
        fixed = np.split(members, np.cumsum(sizes)[:-1])
        fixes = coverage_fixes_loop(spec, raw)
        assert [f.tolist() for f in fixed] == [fixes.get(local, r.tolist()) for local, r in enumerate(raw)]
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


def _nested_reference(scale: float, seed: int) -> pd.DataFrame:
    """The corpus frame built one recipe at a time: the raw generation with
    the loop oracle's fixes, each recipe its own int64 array."""
    frames = []
    for spec in region_specs(scale, seed):
        sizes, raw = _raw(spec, seed)
        fixes = coverage_fixes_loop(spec, raw)
        frames.append(pd.DataFrame({
            "recipe_id": spec.recipe_offset + np.arange(len(sizes)),
            "region": spec.code,
            "n": sizes.astype(np.int32),
            "ingredients": [np.array(fixes.get(local, r), dtype=np.int64) for local, r in enumerate(raw)],
        }))
    return pd.concat(frames, ignore_index=True)


def test_spark_corpus_equals_driver_generation(corpus_small):
    """The executors' corpus is the raw generation with the loop oracle's
    fixes applied, row for row and member for member."""
    want = _nested_reference(0.02, 11)
    got = corpus_small.toPandas().sort_values("recipe_id").reset_index(drop=True)
    for col in ("recipe_id", "region", "n"):
        assert got[col].tolist() == want[col].tolist()
    for a, b in zip(got["ingredients"], want["ingredients"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [0.02, 0.1])
def test_flat_corpus_equals_nested_reference(scale):
    """``flat_corpus``'s arrays hold the reference's recipes in order, and
    recipe r's slice of ``members`` is its int64 ``ingredients`` array."""
    corpus, want = flat_corpus(scale, 11), _nested_reference(scale, 11)
    got = pd.DataFrame({"recipe_id": corpus.recipe_id, "region": corpus.region, "n": corpus.n.astype(np.int32)})
    pd.testing.assert_frame_equal(got, want.drop(columns="ingredients"), check_exact=True)
    assert corpus.recipe_id.dtype == corpus.n.dtype == corpus.members.dtype == np.int64
    assert len(corpus.members) == corpus.offsets[-1]
    for a, b in zip(np.split(corpus.members, corpus.offsets[1:-1]), want["ingredients"]):
        assert np.array_equal(a, b)


def test_flat_corpus_take_matches_frame_rows(flat_small, recipes_small):
    """``take`` by a mask or by indices selects the same recipes, members
    and order as the frame's rows."""
    assert np.array_equal(flat_small.offsets, np.r_[0, np.cumsum(recipes_small["n"])])
    for rows in (flat_small.region != "OTHER", np.random.default_rng(3).permutation(len(flat_small.n))[:300]):
        got, want = flat_small.take(rows), recipes_small[rows] if rows.dtype == bool else recipes_small.iloc[rows]
        assert np.array_equal(got.recipe_id, want["recipe_id"])
        assert got.region.tolist() == want["region"].tolist()
        assert np.array_equal(got.n, want["n"])
        assert got.members.dtype == np.int64
        assert np.array_equal(got.members, np.concatenate(want["ingredients"].to_list()))


@pytest.mark.parametrize("members, total", [(np.arange(6), 6), (np.arange(4), 4)])
def test_take_rejects_members_not_matching_sizes(members, total):
    """Extra members are not dropped, and missing ones give no bare IndexError."""
    corpus = FlatCorpus(np.array([1, 2]), np.array(["KOR", "KOR"]), np.array([2, 3]), members)
    with pytest.raises(ValueError, match=f"{total} members for recipe sizes summing to 5"):
        corpus.take(np.array([1, 0]))


def test_flat_corpus_is_shared_per_scale_and_seed(flat_small):
    """One corpus per (scale, seed) and process; another seed is another corpus."""
    assert flat_corpus(0.02, SEED) is flat_small
    other = flat_corpus(0.02, SEED + 1)
    assert other is not flat_small
    assert not np.array_equal(other.members[:1000], flat_small.members[:1000])


@pytest.mark.parametrize("field", FlatCorpus._fields)
def test_flat_corpus_is_read_only(flat_small, field):
    """A write into the shared corpus raises; ``take`` gives writable copies."""
    with pytest.raises(ValueError, match="read-only"):
        getattr(flat_small, field)[0] = getattr(flat_small, field)[1]
    assert getattr(flat_small.take(np.arange(3)), field).flags.writeable


def test_build_corpus_starts_no_spark_job(spark):
    sc = spark.sparkContext
    sc.setJobGroup("build_corpus_call", "build_corpus only defines the corpus")
    try:
        build_corpus(spark, scale=0.02, seed=12)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("build_corpus_call") == []


def test_corpus_frame_emits_the_broadcast_arrays(spark, flat_small):
    """The executors read the driver's arrays and generate nothing: over a
    broadcast with every recipe's members reversed, the frame holds
    exactly the reversed recipes."""
    offsets = flat_small.offsets
    recipe = np.repeat(np.arange(len(flat_small.n)), flat_small.n)
    members = flat_small.members[offsets[recipe] + offsets[recipe + 1] - 1 - np.arange(len(recipe))]
    bc = spark.sparkContext.broadcast((flat_small.n, members))
    try:
        got = corpus_frame(spark, region_specs(0.02, SEED), bc).toPandas()
    finally:
        bc.destroy()
    got = got.sort_values("recipe_id", ignore_index=True)
    want = nested_corpus(flat_small._replace(members=members))
    pd.testing.assert_frame_equal(got.drop(columns="ingredients"), want.drop(columns="ingredients"), check_exact=True)
    for a, b, original in zip(got["ingredients"], want["ingredients"], nested_corpus(flat_small)["ingredients"]):
        assert a.dtype == np.int64 and np.array_equal(a, b) and np.array_equal(a, original[::-1])
