"""Fig. 4 Z-score computation and qualitative reproduction on a subset."""
import dataclasses
import os

import numpy as np
import pandas as pd
from pyspark.errors import PythonException
import pytest

from repro.core.pairing import PAD_ID
from repro.core.randomize import MODELS, REAL, batch_plan, region_model_inputs
from repro.core import zscore
from repro.core.zscore import _deal, food_pairing_table, merge_moments, model_moments
from repro.regions import PAPER_SIGNS, by_code
from tests.conftest import SEED
from tests.reference import cuisine_scores, merge_moments_loop, random_recipes, recipe_scores_fast

#: Two strongly-positive and two strongly-negative regions keep the
#: subset test fast while covering both regimes.
SUBSET = ("ITA", "INSC", "JPN", "EE")


@pytest.fixture(scope="module")
def table(spark, inputs_mid, overlap_matrix):
    sub = {code: inputs_mid[code] for code in SUBSET}
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


def test_signs_match_paper_in_most_regions(spark, inputs_mid, overlap_matrix):
    """All 22 regions at scale 0.1 and n_rand 5,000: the real cuisine's Z
    has the paper's sign in at least 20."""
    table = food_pairing_table(spark, inputs_mid, overlap_matrix, n_rand=5000, seed=17)
    scored = table[table["region"] != "OTHER"]
    ok = (np.sign(scored["z_real"]) == scored["region"].map(PAPER_SIGNS)).sum()
    assert ok >= 20


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


# --- the fused generate→score→moments stage ---------------------------------
#: Two batches of the default 5,000, the second uneven.
N_FUSED = 5300


@pytest.fixture(scope="module")
def small_inputs(inputs_small):
    return {code: inputs_small[code] for code in ("ITA", "KOR")}


@pytest.fixture(scope="module")
def unfused(spark, small_inputs, overlap_matrix):
    """The per-model composition the fused stage replaces, as its reference."""
    return {
        model: cuisine_scores(
            recipe_scores_fast(random_recipes(spark, small_inputs, model, N_FUSED, seed=23), overlap_matrix)
        ).toPandas().set_index("region").sort_index()
        for model in MODELS
    }


@pytest.mark.parametrize("slots", [1, 5])
def test_fused_moments_equal_unfused(spark, small_inputs, overlap_matrix, unfused, slots, monkeypatch):
    monkeypatch.setattr(zscore, "_deal", lambda plan, _: _deal(plan, slots))
    got = model_moments(spark, batch_plan(small_inputs, MODELS, N_FUSED), small_inputs, overlap_matrix, seed=23)
    assert len(got) == len(MODELS) * len(small_inputs)
    for model, g in got.groupby("model"):
        g = g.set_index("region").sort_index()
        ref = unfused[model]
        assert (g["n_recipes"] == ref["n_recipes"]).all()
        np.testing.assert_allclose(g["ns"], ref["ns"], rtol=1e-9)
        np.testing.assert_allclose(g["sigma"], ref["sigma"], rtol=1e-9)


@pytest.mark.parametrize("slots", [1, 2, 5])
def test_deal_assigns_every_batch_once(small_inputs, slots):
    """Every plan row lands in exactly one slot, and the slots' batch
    counts differ by at most one."""
    plan = batch_plan(small_inputs, (REAL, *MODELS), N_FUSED)
    dealt = _deal(plan, slots)
    assert len(dealt) == slots
    assert sorted(b for slot in dealt for b in slot) == sorted(plan)
    assert max(map(len, dealt)) - min(map(len, dealt)) <= 1


def test_model_moments_is_one_wave(spark, small_inputs, overlap_matrix):
    """The fused stage is one job of one stage with one task per core."""
    sc, group = spark.sparkContext, "test_model_moments_is_one_wave"
    prev = sc.getLocalProperty("spark.jobGroup.id")
    sc.setLocalProperty("spark.jobGroup.id", group)
    try:
        model_moments(spark, batch_plan(small_inputs, (REAL, *MODELS), N_FUSED), small_inputs, overlap_matrix, seed=23)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", prev)
    tracker = sc.statusTracker()
    (job,) = tracker.getJobIdsForGroup(group)
    (stage,) = tracker.getJobInfo(job).stageIds
    assert tracker.getStageInfo(stage).numTasks == sc.defaultParallelism


def test_food_pairing_table_releases_its_broadcasts(spark, overlap_matrix):
    """No pickled broadcast, the model inputs' flat members included, is
    left behind in the context's temp dir."""
    temp = spark.sparkContext._temp_dir
    before = len(os.listdir(temp))
    inputs = region_model_inputs(spark, scale=0.02, seed=SEED)
    assert len(os.listdir(temp)) == before
    food_pairing_table(spark, {"KOR": inputs["KOR"]}, overlap_matrix, n_rand=200)
    assert len(os.listdir(temp)) == before


def test_reference_oracles_release_their_broadcasts(spark, small_inputs, overlap_matrix):
    """A consumed oracle call leaves no pickle in the context's temp dir."""
    temp = spark.sparkContext._temp_dir
    before = len(os.listdir(temp))
    scored = recipe_scores_fast(random_recipes(spark, small_inputs, "random", 200, seed=23), overlap_matrix)
    assert scored.count() == 200 * len(small_inputs)
    assert len(os.listdir(temp)) == before


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


def test_merge_moments_equals_the_loop_form():
    """All groups folded at once give the loop form's frame bit for bit:
    1–20 uneven batches per (region, model), rows shuffled."""
    rng = np.random.default_rng(9)
    for trial in range(20):
        rows = []
        for region in ("A", "B", "C"):
            for model in ("category", "random", "real"):
                start = 0
                for count in rng.integers(1, 400, size=rng.integers(1, 21)):
                    c = rng.normal(rng.uniform(-2, 5), rng.uniform(0.1, 3), size=count)
                    rows.append((region, model, start, count, c.mean(), ((c - c.mean()) ** 2).sum()))
                    start += count
        batches = pd.DataFrame(rows, columns=["region", "model", "start", "count", "mean", "m2"])
        shuffled = batches.sample(frac=1.0, random_state=trial).reset_index(drop=True)
        pd.testing.assert_frame_equal(merge_moments(shuffled), merge_moments_loop(shuffled), check_exact=True)


def test_model_moments_checks_random_recipes(spark, small_inputs, overlap_matrix):
    """A bad pool id, and real recipe sizes that no longer sum to the
    region's members, reach the kernel's checks inside the fused stage."""
    inp = small_inputs["KOR"]
    pool = inp.pool.copy()
    pool[np.argmax(inp.counts)] = PAD_ID + 3
    bad = {**small_inputs, "KOR": dataclasses.replace(inp, pool=pool)}
    with pytest.raises(PythonException, match=r"ValueError: region KOR, model \w+, recipe \d+: ingredient id outside"):
        model_moments(spark, batch_plan(bad, MODELS, 200), bad, overlap_matrix, seed=23)

    sizes = inp.sizes.copy()
    sizes[4] += 1
    bad = {**small_inputs, "KOR": dataclasses.replace(inp, sizes=sizes)}
    with pytest.raises(
        PythonException, match=r"ValueError: region KOR, model real, recipe \d+: \d+ members for recipe sizes summing to"
    ):
        model_moments(spark, batch_plan(bad, (REAL,), 200), bad, overlap_matrix, seed=23)
