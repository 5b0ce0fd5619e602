"""Food-pairing score N_s^R: formula, the kernel vs the join reference, DuckDB oracle."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.pairing import PAD_ID, flat_overlap, shared_matrix
from repro.flavordb.profiles import shared_matrix_numpy
from repro.oracle import assert_equivalent
from tests.reference import cuisine_scores, recipe_scores_fast, recipe_scores_join, shared_pairs

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


def test_shared_matrix_matches_numpy_reference(pairs_df):
    """The shared-molecule count equals a dense fill of the join reference."""
    pdf = pairs_df.toPandas()
    ref = np.zeros((PAD_ID + 1, PAD_ID + 1), dtype=np.int32)
    ref[pdf["i"].to_numpy(), pdf["j"].to_numpy()] = pdf["shared"].to_numpy()
    mat = shared_matrix()
    assert mat.dtype == np.int32
    assert np.array_equal(mat, ref + ref.T)


def test_shared_matrix_built_once_and_read_only():
    """Every caller shares one matrix, so none may write to it."""
    mat = shared_matrix()
    assert shared_matrix() is mat
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 1] = 0


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


# --- member overlap (flat_overlap) input checks: one bad recipe each
def _kernel_overlap(bad_members, bad_n=None):
    """T_{R,i} of recipes 5 = {0, 1, 2}, 6 = {1, 2} and a bad recipe 7, flat."""
    members = np.array([0, 1, 2, 1, 2, *bad_members])
    n = np.array([3, 2, len(bad_members) if bad_n is None else bad_n])
    return flat_overlap(members, n, lambda row: f"recipe {5 + row}", _micro_matrix())


def test_member_overlap_values():
    t = _kernel_overlap([0, 1])
    assert t.dtype == np.int64
    assert t.tolist() == [2, 2, 0, 0, 0, 2, 2]


def test_member_overlap_rejects_wrong_n():
    """Sizes that do not sum to the member count name the recipe where
    they part: the first that runs past the members, or the last."""
    with pytest.raises(ValueError, match="recipe 7: 7 members for recipe sizes summing to 8"):
        _kernel_overlap([0, 1], bad_n=3)
    with pytest.raises(ValueError, match="recipe 7: 7 members for recipe sizes summing to 6"):
        _kernel_overlap([0, 1], bad_n=1)


@pytest.mark.parametrize("bad_id", [-1, PAD_ID, PAD_ID + 5])
def test_member_overlap_rejects_id_out_of_range(bad_id):
    with pytest.raises(ValueError, match="recipe 7: ingredient id outside"):
        _kernel_overlap([0, bad_id])


def test_member_overlap_rejects_duplicate_member():
    with pytest.raises(ValueError, match="recipe 7: duplicate ingredient"):
        _kernel_overlap([1, 0, 1])


def test_member_overlap_rejects_single_ingredient():
    with pytest.raises(ValueError, match="recipe 7: fewer than 2"):
        _kernel_overlap([2])


# --- the gather kernel against a per-recipe brute force, every size bucket
@pytest.mark.parametrize(
    "sizes",
    [
        np.random.default_rng(3).permutation(np.repeat(np.arange(2, 26), 3)),
        np.full(40, 7),
        np.array([25]),
    ],
    ids=["every size 2-25, shuffled", "one size", "one row"],
)
def test_flat_overlap_equals_brute_force(sizes, overlap_matrix):
    rng = np.random.default_rng(len(sizes))
    recipes = [rng.choice(PAD_ID, size, replace=False) for size in sizes]
    t = flat_overlap(np.concatenate(recipes), sizes, str, overlap_matrix)
    assert t.dtype == np.int64
    want = np.concatenate([overlap_matrix[np.ix_(members, members)].sum(axis=1) for members in recipes])
    assert np.array_equal(t, want)
