"""Ingredient contribution χ_i: exact decomposition vs brute force."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.contribution import ingredient_contributions, top_contributors
from repro.core.pairing import recipe_scores_fast
from repro.flavordb.profiles import shared_matrix_numpy
from tests.test_pairing import _MICRO_PROFILES


@pytest.fixture(scope="module")
def contrib(spark, corpus_small, overlap_matrix):
    sub = corpus_small.where(F.col("region").isin(["KOR", "SAM"]))
    df = ingredient_contributions(sub, overlap_matrix).persist()
    df.count()
    yield df
    df.unpersist()


def _brute_force_ns_without(corpus_pdf: pd.DataFrame, matrix: np.ndarray, ing: int) -> float:
    """Recompute N_s^C after removing ``ing`` from every recipe."""
    scores = []
    for _, row in corpus_pdf.iterrows():
        members = [i for i in row["ingredients"] if i != ing]
        n = len(members)
        if n < 2:
            continue
        arr = np.asarray(members)
        scores.append(matrix[np.ix_(arr, arr)].sum() / (n * (n - 1)))
    return float(np.mean(scores))


def test_chi_micro(spark):
    """Hand-computed χ over the micro profiles: |F_0∩F_1| = 2, 0 elsewhere.

    X = {0,1,2}, {0,1}: scores 2/3 and 2, N_s^C = 4/3.  Removing 0 (or 1)
    leaves {1,2} (or {0,2}) at 0 and drops {0,1}; removing 2 leaves {0,1}
    twice.  Y = {0,1}: removing either member empties it.  Z = {0,2},
    {1,2}: N_s^C = 0.
    """
    recipes = spark.createDataFrame(pd.DataFrame({
        "recipe_id": [1, 2, 3, 4, 5],
        "region": ["X", "X", "Y", "Z", "Z"],
        "n": [3, 2, 2, 2, 2],
        "ingredients": [[0, 1, 2], [0, 1], [0, 1], [0, 2], [1, 2]],
    }))
    got = {
        (r["region"], r["ingredient_id"]): r
        for r in ingredient_contributions(recipes, shared_matrix_numpy(_MICRO_PROFILES)).collect()
    }
    for ing, n_containing, ns_without, chi in ((0, 2, 0.0, 100.0), (1, 2, 0.0, 100.0), (2, 1, 2.0, -50.0)):
        row = got[("X", ing)]
        assert row["n_containing"] == n_containing
        assert row["ns_c"] == pytest.approx(4 / 3)
        assert row["ns_without"] == pytest.approx(ns_without)
        assert row["chi"] == pytest.approx(chi)
    for ing in (0, 1):
        assert got[("Y", ing)]["ns_without"] is None
        assert got[("Y", ing)]["chi"] is None
    assert got[("Z", 0)]["ns_c"] == 0.0
    assert got[("Z", 0)]["ns_without"] == 0.0
    assert got[("Z", 0)]["chi"] is None


def test_chi_matches_brute_force(spark, corpus_small, contrib, overlap_matrix):
    corpus_pdf = (
        corpus_small.where(F.col("region") == "KOR")
        .select("ingredients")
        .toPandas()
    )
    got = contrib.where(F.col("region") == "KOR").toPandas()
    # check the 5 most- and least-contributing ingredients exactly
    check = pd.concat([got.nlargest(5, "chi"), got.nsmallest(5, "chi")])
    for _, row in check.iterrows():
        brute = _brute_force_ns_without(
            corpus_pdf, overlap_matrix, int(row["ingredient_id"])
        )
        assert row["ns_without"] == pytest.approx(brute, rel=1e-9), row["ingredient_id"]


def test_ns_c_matches_fast_scorer(spark, corpus_small, contrib, overlap_matrix):
    real = (
        recipe_scores_fast(
            corpus_small.where(F.col("region") == "SAM"), overlap_matrix
        )
        .agg(F.avg("score"))
        .first()[0]
    )
    ns_c = contrib.where(F.col("region") == "SAM").select("ns_c").first()[0]
    assert ns_c == pytest.approx(real, rel=1e-9)


def test_every_pool_ingredient_has_chi(contrib, exploded_small):
    uniq = (
        exploded_small.where(F.col("region").isin(["KOR", "SAM"]))
        .groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("u"))
        .collect()
    )
    counts = {r["region"]: r["u"] for r in uniq}
    got = (
        contrib.groupBy("region").agg(F.count("*").alias("c")).collect()
    )
    for r in got:
        assert r["c"] == counts[r["region"]]


def test_chi_sums_are_finite(contrib):
    pdf = contrib.toPandas()
    assert np.isfinite(pdf["chi"].dropna()).all()


def test_top_contributors_shape(contrib):
    top = top_contributors(contrib, k=3)
    assert set(top["region"]) == {"KOR", "SAM"}
    assert top.groupby("region")["rank"].apply(list).map(lambda x: x == [1, 2, 3]).all()
    assert "ingredient" in top.columns


def test_top_contributors_direction(contrib):
    """SAM (positive) tops have the largest χ; KOR (negative) the smallest."""
    pdf = contrib.toPandas()
    top = top_contributors(contrib, k=3)
    sam_best = top[top["region"] == "SAM"]["chi"].max()
    assert sam_best == pytest.approx(pdf[pdf["region"] == "SAM"]["chi"].max())
    kor_best = top[top["region"] == "KOR"]["chi"].min()
    assert kor_best == pytest.approx(pdf[pdf["region"] == "KOR"]["chi"].min())


def test_top_contributors_accepts_pandas(contrib):
    pdf = contrib.toPandas()
    a = top_contributors(pdf, k=2)
    b = top_contributors(contrib, k=2)
    pd.testing.assert_frame_equal(
        a.sort_values(["region", "rank"]).reset_index(drop=True),
        b.sort_values(["region", "rank"]).reset_index(drop=True),
    )
