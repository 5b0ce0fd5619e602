"""Job wiring: the ``jobs/t*.py`` entry points run end to end at small scale."""
import os
import sys
from collections import defaultdict

import numpy as np
import pandas as pd
import pyspark.errors.utils
import pytest

from repro.culinarydb.corpus import _generate_region, flat_corpus
from repro.culinarydb.generator import region_specs
from tests.conftest import SEED

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs"))

import t1_region_stats  # noqa: E402
import t2_category_heatmap  # noqa: E402
import t3_size_popularity  # noqa: E402
import t4_food_pairing  # noqa: E402
import t5_contributions  # noqa: E402

#: The scale of the ``corpus_small`` fixture, so T5's reference reuses it.
SCALE = 0.02


def _chi_by_pair_decomposition(recipes, matrix) -> dict:
    """χ per (region, ingredient), one recipe at a time in NumPy.

    Removing i from R leaves 2 (S_R − T_{R,i}) / ((n−1)(n−2)) for n ≥ 3
    and drops a 2-ingredient recipe.
    """
    chi = {}
    for region, g in recipes.groupby("region"):
        scores, removed = [], defaultdict(lambda: [0.0, 0])  # Σ(score − score'), drops
        for members in g["ingredients"]:
            members = np.asarray(members)
            n = len(members)
            block = matrix[np.ix_(members, members)]
            two_s = block.sum()  # 2 S_R
            score = two_s / (n * (n - 1))
            scores.append(score)
            for i, t in zip(members, block.sum(axis=1)):
                acc = removed[int(i)]
                acc[0] += score - ((two_s - 2 * t) / ((n - 1) * (n - 2)) if n >= 3 else 0.0)
                acc[1] += n == 2
        ns_c, total = np.mean(scores), np.sum(scores)
        for i, (delta, dropped) in removed.items():
            if len(scores) > dropped:
                chi[(region, i)] = 100 * (ns_c - (total - delta) / (len(scores) - dropped)) / ns_c
    return chi


def test_t5_run_top3_matches_pair_decomposition(spark, overlap_matrix, corpus_small):
    top = t5_contributions.run(spark, scale=SCALE, seed=SEED)
    corpus = corpus_small.toPandas()
    ref = _chi_by_pair_decomposition(corpus[corpus["region"] != "OTHER"], overlap_matrix)
    assert sorted(top["region"].unique()) == sorted({r for r, _ in ref})
    assert top.groupby("region")["rank"].apply(list).map(lambda r: r == [1, 2, 3]).all()
    for row in top.itertuples():
        assert row.chi == pytest.approx(ref[(row.region, row.ingredient_id)], rel=1e-9)


def _refuse(*args, **kwargs):
    raise AssertionError("the job built or unpacked per-recipe ingredient arrays")


def _refuse_per_recipe_arrays(monkeypatch) -> None:
    """Make splitting the flat members by recipe, and every ``explode``, raise."""
    monkeypatch.setattr(np, "split", _refuse)
    for frame in (pd.DataFrame, pd.Series):
        monkeypatch.setattr(frame, "explode", _refuse)


def test_t5_run_scores_the_flat_corpus(monkeypatch, overlap_matrix, recipes_small):
    """T5 takes χ from the generator's flat arrays: with ``np.split`` and
    every ``explode`` raising, it builds no per-recipe array and still
    gives the pair decomposition's top-3."""
    flat_corpus.cache_clear()  # generate under the patches, not from the cache
    _refuse_per_recipe_arrays(monkeypatch)
    top = t5_contributions.run(None, scale=SCALE, seed=SEED)
    ref = _chi_by_pair_decomposition(recipes_small[recipes_small["region"] != "OTHER"], overlap_matrix)
    assert top.groupby("region")["rank"].apply(list).map(lambda r: r == [1, 2, 3]).all()
    assert top["region"].nunique() == 22
    for row in top.itertuples():
        assert row.chi == pytest.approx(ref[(row.region, row.ingredient_id)], rel=1e-9)


def test_t1_t3_read_the_flat_corpus(monkeypatch):
    """T1–T3 count the flat corpus's members as they are: with every
    ``explode`` and ``np.split`` raising, they still run, and Table 1
    holds each region's recipes and pool."""
    flat_corpus.cache_clear()  # generate under the patches, not from the cache
    _refuse_per_recipe_arrays(monkeypatch)
    table = t1_region_stats.run(None, SCALE, SEED).set_index("region")
    specs = [s for s in region_specs(SCALE, SEED) if s.code != "OTHER"]
    assert sorted(table.index) == sorted(s.code for s in specs)
    for spec in specs:
        assert table.loc[spec.code, "recipes"] == spec.n_recipes
        assert table.loc[spec.code, "ingredients"] == len(spec.pool)
    assert t2_category_heatmap.run(None, SCALE, SEED)["region"].nunique() == 24
    sizes, curve = t3_size_popularity.run(None, SCALE, SEED)
    assert len(sizes) == len(curve) == 23


def test_driver_jobs_generate_the_corpus_once(monkeypatch):
    """T1, T2, T3 and T5 at one (scale, seed) share one corpus: each of
    the 23 regions (22 and OTHER) is generated once, not once per job."""
    calls = []

    def counted(spec, seed):
        calls.append(spec.code)
        return _generate_region(spec, seed)

    flat_corpus.cache_clear()
    monkeypatch.setattr("repro.culinarydb.corpus._generate_region", counted)
    t1_region_stats.run(None, SCALE, SEED)
    t2_category_heatmap.run(None, SCALE, SEED)
    t3_size_popularity.run(None, SCALE, SEED)
    t5_contributions.run(None, SCALE, SEED)
    assert len(calls) == len(set(calls)) == len(region_specs(SCALE, SEED)) == 23


def test_t4_run_finite_z_for_every_region_and_model(spark):
    table = t4_food_pairing.run(spark, scale=SCALE, seed=SEED, n_rand=200)
    assert table["region"].nunique() == len(table) == 23
    z = table[["z_real", "z_frequency", "z_category", "z_freq_cat"]].to_numpy(dtype=float)
    assert np.isfinite(z).all()


def test_t4_run_calls_no_column_api(spark, monkeypatch):
    """T4 builds its Spark plans from SQL strings, not Column objects.  In
    PySpark 4.1 each Column-API call captures its call site, and the first
    capture imports IPython: 541 modules, ≈26 MiB more driver RSS on the
    fig4_zscore benchmark pass."""

    def refuse(depth):
        raise AssertionError("T4 called the Column API")

    monkeypatch.setattr(pyspark.errors.utils, "_capture_call_site", refuse)
    assert t4_food_pairing.run(spark, SCALE, SEED, n_rand=200)["region"].nunique() == 23


@pytest.mark.parametrize(
    "run",
    [lambda spark, scale, seed: t4_food_pairing.run(spark, scale, seed, n_rand=200)],
    ids=["t4"],
)
def test_run_releases_the_corpus_it_caches(spark, run):
    """No RDD the run persists stays persisted.  RDD ids only grow, so one
    left behind shows as a new id; ids may also go during the run, since
    Spark's ContextCleaner unpersists earlier tests' RDDs once the JVM
    collects them (e.g. the local checkpoints of ``tests.reference``)."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persistent())
    run(spark, SCALE, SEED)
    assert set(persistent()) <= before


def _jobs_started(spark, group: str, run) -> list[int]:
    """Ids of the Spark jobs that ``run()`` starts, under job group ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "jobs of one run")
    try:
        run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return sc.statusTracker().getJobIdsForGroup(group)


@pytest.mark.parametrize(
    "job",
    [t1_region_stats, t2_category_heatmap, t3_size_popularity, t5_contributions],
    ids=["t1", "t2", "t3", "t5"],
)
def test_run_starts_no_spark_job(spark, job):
    """T1–T3 and T5 run on the driver's pandas corpus."""
    assert _jobs_started(spark, f"{job.__name__}_run", lambda: job.run(spark, SCALE, SEED)) == []


def test_t4_run_starts_at_most_four_spark_jobs(spark):
    """T4 builds no corpus DataFrame: its Spark work is the model inputs'
    usage count and the fused stage's one wave, at most four jobs under
    adaptive execution (eight when it cached and collected the corpus)."""
    jobs = _jobs_started(spark, "t4_run", lambda: t4_food_pairing.run(spark, SCALE, SEED, n_rand=200))
    assert 0 < len(jobs) <= 4
