"""Fig. 4 Z-score computation and qualitative reproduction on a subset."""
import dataclasses

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.errors import PythonException
import pytest

from repro.core.pairing import PAD_ID, cuisine_scores, recipe_scores_fast
from repro.core.randomize import MODELS, batch_plan, random_recipes, region_model_inputs
from repro.core.zscore import food_pairing_table, merge_moments, model_moments
from repro.regions import by_code

#: Two strongly-positive and two strongly-negative regions keep the
#: subset test fast while covering both regimes.
SUBSET = ("ITA", "INSC", "JPN", "EE")


@pytest.fixture(scope="module")
def table(spark, corpus_mid, overlap_matrix):
    sub = corpus_mid.where(F.col("region").isin(list(SUBSET)))
    return food_pairing_table(spark, sub, overlap_matrix, n_rand=4000, seed=17)


def test_table_shape(table):
    assert set(table["region"]) == set(SUBSET)
    for col in (
        "ns_real", "ns_random", "sigma_random", "z_real",
        "ns_frequency", "z_frequency", "ns_category", "z_category",
        "ns_freq_cat", "z_freq_cat", "pairing",
    ):
        assert col in table.columns


@pytest.mark.parametrize("region", SUBSET)
def test_signs_match_paper(table, region):
    row = table[table["region"] == region].iloc[0]
    assert np.sign(row["z_real"]) == by_code(region).pairing_sign


def test_no_cuisine_indistinguishable_from_random(table):
    """Paper: every cuisine deviates significantly from random."""
    assert (table["z_real"].abs() > 3).all()


def test_frequency_model_reproduces_pattern(table):
    """Paper: ingredient frequency accounts for the pairing pattern."""
    for _, row in table.iterrows():
        assert np.sign(row["z_frequency"]) == np.sign(row["z_real"])
        assert abs(row["z_frequency"]) > 0.5 * abs(row["z_real"])


def test_category_model_fails_to_reproduce(table):
    """Paper: category composition alone does not reproduce pairing."""
    for _, row in table.iterrows():
        assert abs(row["z_category"]) < 0.5 * abs(row["z_real"])


def test_freq_cat_model_tracks_frequency(table):
    for _, row in table.iterrows():
        assert np.sign(row["z_freq_cat"]) == np.sign(row["z_frequency"])


def test_pairing_labels(table):
    for _, row in table.iterrows():
        expected = "uniform" if row["z_real"] > 0 else "contrasting"
        assert row["pairing"] == expected


def test_z_formula_consistency(table):
    for _, row in table.iterrows():
        z = (
            np.sqrt(4000)
            * (row["ns_real"] - row["ns_random"])
            / row["sigma_random"]
        )
        assert row["z_real"] == pytest.approx(z)


def test_requires_random_baseline(spark, corpus_small, overlap_matrix):
    with pytest.raises(ValueError):
        food_pairing_table(
            spark, corpus_small, overlap_matrix, n_rand=10, models=("frequency",)
        )


# --- the fused generate→score→moments stage ---------------------------------
#: Two batches of the default 5,000, the second uneven.
N_FUSED = 5300


@pytest.fixture(scope="module")
def small_inputs(spark, corpus_small):
    return region_model_inputs(spark, corpus_small.where(F.col("region").isin(["ITA", "KOR"])))


@pytest.fixture(scope="module")
def unfused(spark, small_inputs, overlap_matrix):
    """The per-model composition the fused stage replaces, as its reference."""
    return {
        model: cuisine_scores(
            recipe_scores_fast(random_recipes(spark, small_inputs, model, N_FUSED, seed=23), overlap_matrix)
        ).toPandas().set_index("region").sort_index()
        for model in MODELS
    }


@pytest.mark.parametrize("partitions", [1, 5])
def test_fused_moments_equal_unfused(spark, small_inputs, overlap_matrix, unfused, partitions):
    plan = batch_plan(spark, small_inputs, MODELS, N_FUSED).repartition(partitions)
    got = model_moments(plan, small_inputs, overlap_matrix, seed=23)
    assert len(got) == len(MODELS) * len(small_inputs)
    for model, g in got.groupby("model"):
        g = g.set_index("region").sort_index()
        ref = unfused[model]
        assert (g["n_recipes"] == ref["n_recipes"]).all()
        np.testing.assert_allclose(g["ns"], ref["ns"], rtol=1e-9)
        np.testing.assert_allclose(g["sigma"], ref["sigma"], rtol=1e-9)


def test_merge_moments_equals_numpy():
    """Chan et al.'s merge over uneven chunks, one of a single row."""
    rng = np.random.default_rng(4)
    rows, values = [], {}
    for region, model, sizes in (("A", "random", [1, 7, 300, 42]), ("B", "category", [5, 1])):
        chunks = [rng.normal(3.0, 2.0, size=k) for k in sizes]
        values[region, model] = np.concatenate(chunks)
        start = 0
        for c in chunks:
            rows.append((region, model, start, len(c), c.mean(), ((c - c.mean()) ** 2).sum()))
            start += len(c)
    batches = pd.DataFrame(rows, columns=["region", "model", "start", "count", "mean", "m2"])
    got = merge_moments(batches)
    for _, row in got.iterrows():
        v = values[row["region"], row["model"]]
        assert row["n_recipes"] == len(v)
        assert row["ns"] == pytest.approx(np.mean(v), rel=1e-12)
        assert row["sigma"] == pytest.approx(np.std(v, ddof=0), rel=1e-12)
    shuffled = merge_moments(batches.sample(frac=1.0, random_state=1))
    pd.testing.assert_frame_equal(shuffled, got)


def test_model_moments_checks_random_recipes(spark, small_inputs, overlap_matrix):
    """A bad pool id reaches the kernel's checks inside the fused stage."""
    inp = small_inputs["KOR"]
    pool = inp.pool.copy()
    pool[np.argmax(inp.counts)] = PAD_ID + 3
    bad = {**small_inputs, "KOR": dataclasses.replace(inp, pool=pool)}
    with pytest.raises(PythonException, match=r"ValueError: region KOR, model \w+, recipe \d+: ingredient id outside"):
        model_moments(batch_plan(spark, bad, MODELS, 200), bad, overlap_matrix, seed=23)
