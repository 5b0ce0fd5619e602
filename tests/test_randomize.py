"""Randomized-cuisine models: each preserves exactly what the paper says."""
import numpy as np
import pyspark.sql.functions as F
import pytest

from repro.core.pairing import PAD_ID
from repro.core.randomize import (
    MODELS,
    model_batch,
    random_recipes,
    region_model_inputs,
)
from repro.flavordb.ingredients import CATEGORIES, ingredient_master
from tests.reference import model_batch_loop

N_RAND = 800
REGION_SUBSET = ("ITA", "KOR")


@pytest.fixture(scope="module")
def inputs(spark, corpus_small):
    sub = corpus_small.where(F.col("region").isin(list(REGION_SUBSET)))
    return region_model_inputs(spark, sub)


@pytest.fixture(scope="module", params=MODELS)
def model_output(request, spark, inputs):
    df = random_recipes(spark, inputs, request.param, N_RAND, seed=99).persist()
    df.count()
    yield request.param, df
    df.unpersist()


def test_inputs_cover_regions(inputs):
    assert set(inputs) == set(REGION_SUBSET)
    for inp in inputs.values():
        assert len(inp.pool) == len(inp.counts) == len(inp.cat_idx)
        assert inp.cat_comp.shape == (len(inp.sizes), len(CATEGORIES))
        # category composition row sums equal recipe sizes
        assert np.array_equal(inp.cat_comp.sum(axis=1), inp.sizes)


def test_model_count_and_schema(model_output):
    model, df = model_output
    counts = {r["region"]: r["c"] for r in df.groupBy("region").agg(F.count("*").alias("c")).collect()}
    assert counts == {r: N_RAND for r in REGION_SUBSET}


def test_ingredient_set_preserved(model_output, inputs):
    """Every model draws only from the cuisine's exact ingredient set."""
    model, df = model_output
    used = {
        r["region"]: set(r["used"])
        for r in df.select("region", F.explode("ingredients").alias("i"))
        .groupBy("region")
        .agg(F.collect_set("i").alias("used"))
        .collect()
    }
    for region, inp in inputs.items():
        assert used[region] <= set(inp.pool.tolist())


def test_recipe_ids_unique_across_regions(model_output):
    model, df = model_output
    assert df.select("recipe_id").distinct().count() == df.count() == N_RAND * len(REGION_SUBSET)


def test_no_duplicates_within_recipe(model_output):
    model, df = model_output
    assert df.where(F.size(F.array_distinct("ingredients")) != F.col("n")).count() == 0


def test_size_distribution_preserved(model_output, inputs):
    """All models preserve the cuisine's recipe-size distribution."""
    model, df = model_output
    sizes = df.select("region", "n").toPandas()
    for region, inp in inputs.items():
        got = sizes.loc[sizes["region"] == region, "n"]
        real_mean = inp.sizes.mean()
        real_sd = inp.sizes.std()
        assert abs(got.mean() - real_mean) < 4 * real_sd / np.sqrt(len(got))
        assert set(got) <= set(inp.sizes.tolist())


def test_frequency_model_preserves_popularity(spark, inputs):
    df = random_recipes(spark, inputs, "frequency", 3000, seed=5)
    counts = (
        df.select("region", F.explode("ingredients").alias("i"))
        .groupBy("region", "i")
        .count()
        .toPandas()
    )
    for region, inp in inputs.items():
        g = counts[counts["region"] == region].set_index("i")["count"]
        got = np.array([g.get(int(p), 0) for p in inp.pool], dtype=float)
        # Spearman-style: rank correlation between real and model usage
        real = inp.counts
        rho = np.corrcoef(np.argsort(np.argsort(real)), np.argsort(np.argsort(got)))[0, 1]
        assert rho > 0.7, (region, rho)


def test_random_model_flatter_than_frequency(spark, inputs):
    rand = random_recipes(spark, inputs, "random", 3000, seed=5)
    freq = random_recipes(spark, inputs, "frequency", 3000, seed=5)

    def cv(df, region):
        counts = (
            df.where(F.col("region") == region)
            .select(F.explode("ingredients").alias("i"))
            .groupBy("i")
            .count()
            .toPandas()["count"]
            .to_numpy(dtype=float)
        )
        return counts.std() / counts.mean()

    for region in REGION_SUBSET:
        assert cv(freq, region) > 2 * cv(rand, region)


@pytest.mark.parametrize("model", ["category", "freq_cat"])
def test_category_models_preserve_composition(spark, inputs, model):
    """Each random recipe's category multiset equals some real recipe's."""
    df = random_recipes(spark, inputs, model, 300, seed=7)
    master = ingredient_master()
    cat_idx = {c: k for k, c in enumerate(CATEGORIES)}
    cat_of = master.set_index("ingredient_id")["category"].map(cat_idx)
    rows = df.collect()
    real_comps = {
        region: {tuple(row) for row in inp.cat_comp}
        for region, inp in inputs.items()
    }
    for row in rows:
        comp = np.zeros(len(CATEGORIES), dtype=int)
        for i in row["ingredients"]:
            comp[cat_of.loc[i]] += 1
        assert tuple(comp) in real_comps[row["region"]]


def test_generation_deterministic(spark, inputs):
    a = random_recipes(spark, inputs, "frequency", 200, seed=3).orderBy(
        "region", "recipe_id"
    ).collect()
    b = random_recipes(spark, inputs, "frequency", 200, seed=3).orderBy(
        "region", "recipe_id"
    ).collect()
    assert [r["ingredients"] for r in a] == [r["ingredients"] for r in b]


@pytest.mark.parametrize("model", MODELS)
def test_padded_batch_equals_loop_reference(inputs, model):
    """The padded generators draw exactly the recipes of the per-recipe loop."""
    for inp in inputs.values():
        sizes, ids = model_batch(inp, model, 5000, 700, seed=3)
        ref_sizes, ref = model_batch_loop(inp, model, 5000, 700, seed=3)
        assert np.array_equal(sizes, ref_sizes)
        assert ids.shape[1] == sizes.max()
        assert (ids[np.arange(ids.shape[1]) >= sizes[:, None]] == PAD_ID).all()
        assert [row[:size].tolist() for row, size in zip(ids, sizes)] == [r.tolist() for r in ref]


def test_unknown_model_rejected(spark, inputs):
    with pytest.raises(ValueError):
        random_recipes(spark, inputs, "bogus", 10)
