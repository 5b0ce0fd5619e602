"""Ingredient contribution χ_i: exact decomposition vs brute force."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.contribution import ingredient_contributions, top_contributors
from repro.culinarydb.corpus import FlatCorpus, flat_corpus
from repro.flavordb.profiles import shared_matrix_numpy
from tests.reference import recipe_scores_fast
from tests.test_pairing import _MICRO_PROFILES


def _flat(recipes: pd.DataFrame) -> FlatCorpus:
    """A corpus frame (recipe_id, region, n, ingredients) as flat arrays, in its row order."""
    assert (recipes["n"] == recipes["ingredients"].map(len)).all()
    return FlatCorpus(
        recipe_id=recipes["recipe_id"].to_numpy(np.int64),
        region=recipes["region"].to_numpy(),
        n=recipes["n"].to_numpy(np.int64),
        members=np.concatenate(recipes["ingredients"].to_list()).astype(np.int64),
    )


@pytest.fixture(scope="module")
def contrib_input():
    """KOR and SAM of the ``corpus_small`` corpus, generated on the driver."""
    corpus = flat_corpus(0.02, 11)
    return corpus.take(np.isin(corpus.region, ["KOR", "SAM"]))


@pytest.fixture(scope="module")
def contrib(contrib_input, overlap_matrix):
    return ingredient_contributions(contrib_input, overlap_matrix)


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


def test_chi_micro():
    """Hand-computed χ over the micro profiles: |F_0∩F_1| = 2, 0 elsewhere.

    X = {0,1,2}, {0,1}: scores 2/3 and 2, N_s^C = 4/3.  Removing 0 (or 1)
    leaves {1,2} (or {0,2}) at 0 and drops {0,1}; removing 2 leaves {0,1}
    twice.  Y = {0,1}: removing either member empties it.  Z = {0,2},
    {1,2}: N_s^C = 0.
    """
    recipes = pd.DataFrame({
        "recipe_id": [1, 2, 3, 4, 5],
        "region": ["X", "X", "Y", "Z", "Z"],
        "n": [3, 2, 2, 2, 2],
        "ingredients": [[0, 1, 2], [0, 1], [0, 1], [0, 2], [1, 2]],
    })
    got = ingredient_contributions(_flat(recipes), shared_matrix_numpy(_MICRO_PROFILES))
    got = got.set_index(["region", "ingredient_id"])
    for ing, n_containing, ns_without, chi in ((0, 2, 0.0, 100.0), (1, 2, 0.0, 100.0), (2, 1, 2.0, -50.0)):
        row = got.loc[("X", ing)]
        assert row["n_containing"] == n_containing
        assert row["ns_c"] == pytest.approx(4 / 3)
        assert row["ns_without"] == pytest.approx(ns_without)
        assert row["chi"] == pytest.approx(chi)
    for ing in (0, 1):
        assert np.isnan(got.loc[("Y", ing), "ns_without"])
        assert np.isnan(got.loc[("Y", ing), "chi"])
    assert got.loc[("Z", 0), "ns_c"] == 0.0
    assert got.loc[("Z", 0), "ns_without"] == 0.0
    assert np.isnan(got.loc[("Z", 0), "chi"])


def test_chi_matches_brute_force(spark, corpus_small, contrib, overlap_matrix):
    corpus_pdf = (
        corpus_small.where(F.col("region") == "KOR")
        .select("ingredients")
        .toPandas()
    )
    got = contrib[contrib["region"] == "KOR"]
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
    ns_c = contrib.loc[contrib["region"] == "SAM", "ns_c"].iloc[0]
    assert ns_c == pytest.approx(real, rel=1e-9)


def test_every_pool_ingredient_has_chi(contrib, exploded_small):
    uniq = (
        exploded_small.where(F.col("region").isin(["KOR", "SAM"]))
        .groupBy("region")
        .agg(F.countDistinct("ingredient_id").alias("u"))
        .collect()
    )
    counts = {r["region"]: r["u"] for r in uniq}
    assert contrib.groupby("region").size().to_dict() == counts


def test_chi_sums_are_finite(contrib):
    assert np.isfinite(contrib["chi"].dropna()).all()


def test_chi_independent_of_recipe_order(contrib_input, contrib, overlap_matrix):
    """The same rows in two different orders give the frame of the
    ``recipe_id``-ordered corpus bit for bit, since every sum runs over
    the recipes in ``recipe_id`` order."""
    first, second = (np.random.default_rng(s).permutation(len(contrib_input.n)) for s in (1, 2))
    for order in (first, second):
        pd.testing.assert_frame_equal(
            ingredient_contributions(contrib_input.take(order), overlap_matrix), contrib, check_exact=True
        )


def test_chi_with_interleaved_regions_matches_brute_force():
    """Regions whose ``recipe_id``s interleave, so that a slice holds both
    and neither is contiguous in ``recipe_id`` order, match brute-force
    removal per region."""
    recipes = pd.DataFrame({
        "recipe_id": [7, 1, 4, 2, 6, 3, 5, 8],
        "region": ["B", "A", "B", "B", "A", "A", "B", "A"],
        "n": [3, 2, 2, 3, 3, 2, 2, 2],
        "ingredients": [[0, 1, 3], [0, 1], [1, 3], [2, 1, 0], [1, 2, 3], [0, 3], [0, 2], [1, 3]],
    })
    matrix = shared_matrix_numpy(pd.DataFrame({
        "ingredient_id": [0, 0, 0, 1, 1, 1, 2, 2, 3, 3],
        "molecule_id": [0, 1, 2, 1, 2, 3, 2, 4, 0, 4],
    }))
    got = ingredient_contributions(_flat(recipes), matrix).set_index(["region", "ingredient_id"])
    for region, g in recipes.groupby("region"):
        members = sorted({i for row in g["ingredients"] for i in row})
        assert got.loc[region].index.tolist() == members
        for ing in members:
            row = got.loc[(region, ing)]
            assert row["n_containing"] == sum(ing in r for r in g["ingredients"])
            assert row["ns_without"] == pytest.approx(_brute_force_ns_without(g, matrix, ing), rel=1e-12)


def test_ingredient_contributions_names_bad_recipe(overlap_matrix):
    recipes = pd.DataFrame({
        "recipe_id": [11, 12, 13],
        "region": ["KOR", "KOR", "KOR"],
        "n": [2, 3, 2],
        "ingredients": [[0, 1], [1, 2, 1], [2, 3]],
    })
    with pytest.raises(ValueError, match="recipe 12: duplicate ingredient"):
        ingredient_contributions(_flat(recipes), overlap_matrix)


def test_ingredient_contributions_rejects_members_not_matching_sizes(overlap_matrix):
    corpus = FlatCorpus(np.array([1, 2]), np.array(["KOR", "KOR"]), np.array([2, 3]), np.arange(6))
    with pytest.raises(ValueError, match="6 members for recipe sizes summing to 5"):
        ingredient_contributions(corpus, overlap_matrix)


def test_top_contributors_shape(contrib):
    top = top_contributors(contrib, k=3)
    assert set(top["region"]) == {"KOR", "SAM"}
    assert top.groupby("region")["rank"].apply(list).map(lambda x: x == [1, 2, 3]).all()
    assert "ingredient" in top.columns


def test_top_contributors_direction(contrib):
    """SAM (positive) tops have the largest χ; KOR (negative) the smallest."""
    top = top_contributors(contrib, k=3)
    sam_best = top[top["region"] == "SAM"]["chi"].max()
    assert sam_best == pytest.approx(contrib[contrib["region"] == "SAM"]["chi"].max())
    kor_best = top[top["region"] == "KOR"]["chi"].min()
    assert kor_best == pytest.approx(contrib[contrib["region"] == "KOR"]["chi"].min())


def test_top_contributors_ties_rank_lower_id_first():
    """Equal χ rank by ingredient_id, whatever order the rows come in."""
    contributions = pd.DataFrame({
        "region": ["SAM", "SAM", "SAM", "KOR", "KOR", "KOR"],
        "ingredient_id": [7, 3, 5, 9, 2, 4],
        "chi": [2.0, 2.0, 1.0, -1.0, -1.0, 3.0],
    })
    top = top_contributors(contributions, k=2)
    assert top[["region", "rank", "ingredient_id"]].values.tolist() == [
        ["KOR", 1, 2], ["KOR", 2, 9], ["SAM", 1, 3], ["SAM", 2, 7],
    ]


def test_top_contributors_unsigned_region_ranks_largest_chi():
    """A region missing from ``REGIONS`` (here ``OTHER``) has no Fig. 4
    sign and ranks by largest χ, like a positive one."""
    contributions = pd.DataFrame({
        "region": ["OTHER"] * 4,
        "ingredient_id": [1, 2, 3, 4],
        "chi": [-5.0, 7.0, 0.5, 3.0],
    })
    top = top_contributors(contributions, k=3)
    assert top[["rank", "ingredient_id"]].values.tolist() == [[1, 2], [2, 4], [3, 3]]


def test_top_contributors_drops_nan_chi():
    contributions = pd.DataFrame({
        "region": ["SAM", "SAM", "SAM", "KOR", "KOR"],
        "ingredient_id": [1, 2, 3, 4, 5],
        "chi": [np.nan, 1.0, 2.0, np.nan, np.nan],
    })
    top = top_contributors(contributions, k=3)
    assert top[["region", "rank", "ingredient_id"]].values.tolist() == [["SAM", 1, 3], ["SAM", 2, 2]]


def test_top_contributors_k_beyond_region_rows():
    """A region with fewer rows than k keeps all of them, ranked 1..rows."""
    contributions = pd.DataFrame({
        "region": ["KOR", "SAM", "SAM", "SAM", "SAM", "SAM"],
        "ingredient_id": [9, 1, 2, 3, 4, 5],
        "chi": [4.0, 1.0, 5.0, 3.0, 2.0, 4.0],
    })
    top = top_contributors(contributions, k=4)
    assert top[["region", "rank", "ingredient_id"]].values.tolist() == [
        ["KOR", 1, 9], ["SAM", 1, 2], ["SAM", 2, 5], ["SAM", 3, 3], ["SAM", 4, 4],
    ]


def test_top_contributors_columns_and_dtypes(contrib):
    top = top_contributors(contrib, k=3)
    assert top.dtypes.astype(str).to_dict() == {
        "region": "object", "rank": "int64", "ingredient_id": "int64", "ingredient": "object", "chi": "float64",
    }
    pd.testing.assert_index_equal(top.index, pd.RangeIndex(len(top)))
    assert top["ingredient"].notna().all()
