"""Flavor profiles: size bounds, community structure, compound pooling."""
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.flavordb.ingredients import N_INGREDIENTS, ingredient_master
from repro.flavordb.molecules import N_MOLECULES, molecule_community
from repro.flavordb.profiles import basic_profiles, profiles, shared_matrix_numpy
from repro.oracle import assert_equivalent
from tests.reference import profiles_pandas


@pytest.fixture(scope="module")
def master():
    return ingredient_master()


@pytest.fixture(scope="module")
def basic():
    return basic_profiles()


def test_profile_sizes_within_bounds(basic):
    sizes = basic.groupby("ingredient_id").size()
    assert sizes.between(5, 150).all()


def test_no_duplicate_molecules_per_ingredient(basic):
    assert not basic.duplicated(["ingredient_id", "molecule_id"]).any()


def test_molecule_ids_valid(basic):
    assert basic["molecule_id"].between(0, N_MOLECULES - 1).all()


def test_only_basic_profiled_ingredients(basic, master):
    expected = set(
        master.loc[~master["is_compound"] & master["has_profile"], "ingredient_id"]
    )
    assert set(basic["ingredient_id"]) == expected


def test_majority_of_profile_from_home_community(basic, master):
    comm = master.set_index("ingredient_id")["community"]
    b = basic.copy()
    b["mol_comm"] = molecule_community(b["molecule_id"].to_numpy())
    b["home"] = b["ingredient_id"].map(comm)
    frac_home = (b["mol_comm"] == b["home"]).groupby(b["ingredient_id"]).mean()
    assert (frac_home > 0.5).all()
    assert frac_home.mean() > 0.7


def test_deterministic(basic):
    again = basic_profiles.__wrapped__()
    pd.testing.assert_frame_equal(basic.reset_index(drop=True), again)


@pytest.fixture(scope="module")
def prof():
    return profiles()


def test_profiles_df_pools_compounds(spark, master, basic, prof):
    """Basic rows, plus every compound's constituent molecules once each, in DuckDB."""
    compounds = master.loc[master["is_compound"], ["ingredient_id", "constituents"]]
    assert len(compounds) == 103
    assert_equivalent(
        spark.createDataFrame(prof),
        """
        SELECT ingredient_id, molecule_id FROM basic
        UNION ALL
        SELECT DISTINCT c.ingredient_id, b.molecule_id
        FROM (SELECT ingredient_id, unnest(constituents) AS constituent_id FROM compounds) c
        JOIN basic b ON b.ingredient_id = c.constituent_id
        """,
        basic=basic,
        compounds=compounds,
    )


def test_profiles_equal_pandas_pooling(prof):
    """Same rows, in the same order, as the explode → merge →
    ``drop_duplicates`` form."""
    pd.testing.assert_frame_equal(prof, profiles_pandas(), check_exact=True)


def test_profiles_df_excludes_profile_less_additives(master, prof):
    assert set(prof["ingredient_id"]) == set(master.loc[master["has_profile"], "ingredient_id"])


def test_profiles_df_no_duplicates(prof):
    assert not prof.duplicated().any()


def test_shared_matrix_numpy_properties(prof):
    s = shared_matrix_numpy(prof)
    assert s.shape == (N_INGREDIENTS + 1, N_INGREDIENTS + 1)
    assert (s == s.T).all()
    assert (np.diag(s) == 0).all()
    assert (s[N_INGREDIENTS, :] == 0).all()  # padding slot
    assert s.max() > 0


def test_shared_matrix_numpy_matches_set_intersection(prof):
    s = shared_matrix_numpy(prof)
    sets = {i: set(g["molecule_id"]) for i, g in prof.groupby("ingredient_id")}
    ids = sorted(sets)[:20]
    for a in ids:
        for b in ids:
            if a != b:
                assert s[a, b] == len(sets[a] & sets[b])


def test_shared_matrix_numpy_counts_repeated_rows_once(prof):
    repeated = pd.concat([prof, prof.iloc[::3], prof.iloc[::7]]).sample(frac=1.0, random_state=0)
    assert np.array_equal(shared_matrix_numpy(repeated), shared_matrix_numpy(prof))


def test_shared_matrix_numpy_equals_incidence_product(prof):
    """The whole (N+1)² matrix against B·Bᵀ of the dense ingredient ×
    molecule incidence matrix B, diagonal zeroed.  float32 holds every
    count exactly (each is at most 150 < 2²⁴)."""
    b = np.zeros((N_INGREDIENTS + 1, N_MOLECULES), dtype=np.float32)
    b[prof["ingredient_id"].to_numpy(), prof["molecule_id"].to_numpy()] = 1.0
    want = (b @ b.T).astype(np.int32)
    np.fill_diagonal(want, 0)
    got = shared_matrix_numpy(prof)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


def test_shared_matrix_numpy_memory_peak(prof):
    """The pair bincount stays bounded: the peak of profiles and matrix
    together is at most 10 MiB (the matrix alone is 3.4 MiB)."""
    profiles()  # fill the master and basic-profile caches first
    tracemalloc.start()
    try:
        shared_matrix_numpy(profiles())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak / 2**20
