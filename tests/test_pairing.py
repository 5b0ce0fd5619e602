"""Food-pairing score N_s^R: formula, the kernel vs the join reference, DuckDB oracle."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.pairing import (
    PAD_ID,
    cuisine_scores,
    member_overlap,
    recipe_scores_fast,
    shared_matrix,
)
from repro.flavordb.profiles import shared_matrix_numpy
from repro.oracle import assert_equivalent
from tests.reference import recipe_scores_join, shared_pairs

# --- hand-built micro fixture: 3 ingredients, known overlaps -------------
# F_0 = {0,1,2}, F_1 = {1,2,3}, F_2 = {9}
# |F_0∩F_1| = 2, |F_0∩F_2| = 0, |F_1∩F_2| = 0
_MICRO_PROFILES = pd.DataFrame(
    {
        "ingredient_id": [0, 0, 0, 1, 1, 1, 2],
        "molecule_id": [0, 1, 2, 1, 2, 3, 9],
    }
)


def _micro_matrix() -> np.ndarray:
    return shared_matrix_numpy(_MICRO_PROFILES)


@pytest.fixture(scope="module")
def micro_profiles(spark):
    return spark.createDataFrame(_MICRO_PROFILES)


def test_shared_pairs_micro(spark, micro_profiles):
    got = {(r["i"], r["j"]): r["shared"] for r in shared_pairs(micro_profiles).collect()}
    assert got == {(0, 1): 2}  # zero-overlap pairs absent


def test_shared_pairs_matches_oracle(spark, micro_profiles):
    assert_equivalent(
        shared_pairs(micro_profiles),
        """
        SELECT a.ingredient_id AS i, b.ingredient_id AS j, count(*) AS shared
        FROM prof a JOIN prof b
          ON a.molecule_id = b.molecule_id AND a.ingredient_id < b.ingredient_id
        GROUP BY 1, 2
        """,
        prof=_MICRO_PROFILES,
    )


def test_recipe_score_formula_micro(spark, micro_profiles):
    """Recipe {0,1,2}: N_s = 2/(3·2) · (2+0+0) = 2/3."""
    exploded = spark.createDataFrame(
        pd.DataFrame(
            {"recipe_id": [1, 1, 1], "region": "X", "n": 3, "ingredient_id": [0, 1, 2]}
        )
    )
    row = recipe_scores_join(exploded, shared_pairs(micro_profiles)).first()
    assert row["score"] == pytest.approx(2 / 3)


def test_recipe_score_zero_overlap_recipe(spark, micro_profiles):
    exploded = spark.createDataFrame(
        pd.DataFrame(
            {"recipe_id": [5, 5], "region": "X", "n": 2, "ingredient_id": [0, 2]}
        )
    )
    row = recipe_scores_join(exploded, shared_pairs(micro_profiles)).first()
    assert row["score"] == 0.0


def test_shared_matrix_matches_numpy_reference(spark, profiles, pairs_df):
    """The B·Bᵀ builder equals a dense fill of the join reference."""
    pdf = pairs_df.toPandas()
    ref = np.zeros((PAD_ID + 1, PAD_ID + 1), dtype=np.int32)
    ref[pdf["i"].to_numpy(), pdf["j"].to_numpy()] = pdf["shared"].to_numpy()
    mat = shared_matrix(spark, profiles)
    assert mat.dtype == np.int32
    assert np.array_equal(mat, ref + ref.T)


def test_shared_matrix_symmetric_zero_diag(overlap_matrix):
    assert (overlap_matrix == overlap_matrix.T).all()
    assert (np.diag(overlap_matrix) == 0).all()
    assert (overlap_matrix[PAD_ID] == 0).all()


def test_join_path_equals_fast_path(corpus_small, exploded_small, pairs_df, overlap_matrix):
    j = (
        recipe_scores_join(exploded_small, pairs_df)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    f = (
        recipe_scores_fast(corpus_small, overlap_matrix)
        .select("recipe_id", "score")
        .toPandas()
        .sort_values("recipe_id")
        .reset_index(drop=True)
    )
    assert len(j) == len(f) == corpus_small.count()
    assert np.abs(j["score"] - f["score"]).max() < 1e-9


def test_join_path_matches_duckdb_oracle(exploded_small, profiles):
    """Full N_s^R from raw profiles in pure SQL vs the Spark join reference."""
    ex = exploded_small.limit(0).sparkSession  # noqa: F841  (fixture warm)
    sample_ids = [r["recipe_id"] for r in exploded_small.select("recipe_id").distinct().limit(60).collect()]
    sub = exploded_small.where(F.col("recipe_id").isin(sample_ids))
    got = recipe_scores_join(sub, shared_pairs(profiles)).select(
        "recipe_id", "score"
    )
    assert_equivalent(
        got,
        """
        WITH sh AS (
          SELECT a.ingredient_id AS i, b.ingredient_id AS j, count(*) AS s
          FROM prof a JOIN prof b
            ON a.molecule_id = b.molecule_id AND a.ingredient_id < b.ingredient_id
          GROUP BY 1, 2
        ),
        pairs AS (
          SELECT x.recipe_id, x.n, x.ingredient_id AS i, y.ingredient_id AS j
          FROM ex x JOIN ex y
            ON x.recipe_id = y.recipe_id AND x.ingredient_id < y.ingredient_id
        )
        SELECT recipe_id, SUM(COALESCE(s, 0)) * 2.0 / (n * (n - 1)) AS score
        FROM pairs LEFT JOIN sh USING (i, j)
        GROUP BY recipe_id, n
        """,
        ex=sub.toPandas(),
        prof=profiles.toPandas(),
    )


def test_fast_path_matches_numpy_brute_force(corpus_small, overlap_matrix):
    rows = corpus_small.orderBy("recipe_id").limit(80).collect()
    scored = (
        recipe_scores_fast(corpus_small, overlap_matrix)
        .orderBy("recipe_id")
        .limit(80)
        .collect()
    )
    for raw, got in zip(rows, scored):
        ing = np.array(raw["ingredients"])
        n = len(ing)
        brute = overlap_matrix[np.ix_(ing, ing)].sum() / (n * (n - 1))
        assert got["score"] == pytest.approx(brute)


def test_cuisine_scores_aggregation(spark):
    pdf = pd.DataFrame(
        {
            "region": ["A", "A", "A", "B"],
            "score": [1.0, 2.0, 3.0, 5.0],
        }
    )
    got = {r["region"]: r for r in cuisine_scores(spark.createDataFrame(pdf)).collect()}
    assert got["A"]["ns"] == pytest.approx(2.0)
    assert got["A"]["sigma"] == pytest.approx(np.sqrt(2 / 3))
    assert got["A"]["n_recipes"] == 3
    assert got["B"]["sigma"] == 0.0


def test_cuisine_scores_match_oracle(corpus_small, overlap_matrix):
    scored = recipe_scores_fast(corpus_small, overlap_matrix).select("region", "score")
    got = cuisine_scores(scored).select("region", "ns", "n_recipes")
    assert_equivalent(
        got,
        "SELECT region, avg(score) AS ns, count(*) AS n_recipes FROM s GROUP BY region",
        s=scored.toPandas(),
    )


# --- member_overlap input checks: one bad row each -------------------------
def _kernel_batch(bad_ingredients, bad_n=None):
    ingredients = [[0, 1, 2], [1, 2], bad_ingredients]
    n = [3, 2, len(bad_ingredients) if bad_n is None else bad_n]
    return pd.DataFrame({"recipe_id": [5, 6, 7], "n": n, "ingredients": ingredients})


def test_member_overlap_values():
    ids, t = member_overlap(_kernel_batch([0, 1]), _micro_matrix())
    assert ids.tolist() == [[0, 1, 2], [1, 2, PAD_ID], [0, 1, PAD_ID]]
    assert t.tolist() == [[2, 2, 0], [0, 0, 0], [2, 2, 0]]


def test_member_overlap_rejects_wrong_n():
    with pytest.raises(ValueError, match="recipe 7: n differs"):
        member_overlap(_kernel_batch([0, 1], bad_n=3), _micro_matrix())


@pytest.mark.parametrize("bad_id", [-1, PAD_ID, PAD_ID + 5])
def test_member_overlap_rejects_id_out_of_range(bad_id):
    with pytest.raises(ValueError, match="recipe 7: ingredient id outside"):
        member_overlap(_kernel_batch([0, bad_id]), _micro_matrix())


def test_member_overlap_rejects_duplicate_member():
    with pytest.raises(ValueError, match="recipe 7: duplicate ingredient"):
        member_overlap(_kernel_batch([1, 0, 1]), _micro_matrix())


def test_member_overlap_rejects_single_ingredient():
    with pytest.raises(ValueError, match="recipe 7: fewer than 2"):
        member_overlap(_kernel_batch([2]), _micro_matrix())
