"""Ingredient master list (Materials §B)."""
import numpy as np
import pytest

from repro.flavordb.ingredients import (
    CATEGORIES,
    N_BASIC,
    N_COMPOUND,
    N_INGREDIENTS,
    NO_PROFILE_NAMES,
    ingredient_master,
)
from repro.flavordb.molecules import N_COMMUNITIES


@pytest.fixture(scope="module")
def master():
    return ingredient_master()


def test_twenty_one_categories():
    assert len(CATEGORIES) == 21


def test_total_counts(master):
    assert len(master) == N_INGREDIENTS == 943
    assert (~master["is_compound"]).sum() == N_BASIC == 840
    assert master["is_compound"].sum() == N_COMPOUND == 103


def test_ids_dense_and_unique(master):
    assert np.array_equal(np.sort(master["ingredient_id"]), np.arange(N_INGREDIENTS))


def test_names_unique(master):
    assert master["name"].is_unique


def test_categories_all_valid(master):
    assert set(master["category"]) <= set(CATEGORIES)


def test_every_category_used(master):
    assert set(master["category"]) == set(CATEGORIES)


def test_communities_in_range(master):
    assert master["community"].between(0, N_COMMUNITIES - 1).all()


def test_exactly_four_profile_less_additives(master):
    no_prof = master[~master["has_profile"]]
    assert set(no_prof["name"]) == NO_PROFILE_NAMES
    assert (no_prof["category"] == "Additive").all()


def test_seven_additives(master):
    assert (master["category"] == "Additive").sum() == 7


@pytest.mark.parametrize("name,syn", [
    ("bread", "bun"),
    ("beer", "lager"),
    ("yogurt", "curd"),
    ("whiskey", "whisky"),
    ("asafoetida", "hing"),
    ("chili", "chile"),
])
def test_paper_synonyms_present(master, name, syn):
    row = master[master["name"] == name].iloc[0]
    assert syn in row["synonyms"]


@pytest.mark.parametrize("name", [
    "anise oil", "apple juice", "coconut milk", "coconut oil", "lemon juice",
    "brown rice", "tomato juice", "tomato paste", "tomato puree",
    "coriander seed", "pork fat", "cured ham",
    "cayenne", "yeast", "tequila", "sauerkraut",
])
def test_paper_added_ingredients_present(master, name):
    assert (master["name"] == name).any()


def test_mayonnaise_constituents(master):
    row = master[master["name"] == "mayonnaise"].iloc[0]
    names = set(master.set_index("ingredient_id").loc[list(row["constituents"]), "name"])
    assert names == {"oil", "egg", "lemon juice"}


def test_half_half_constituents(master):
    row = master[master["name"] == "half half"].iloc[0]
    names = set(master.set_index("ingredient_id").loc[list(row["constituents"]), "name"])
    assert names == {"milk", "cream"}


def test_bear_constituents(master):
    row = master[master["name"] == "bear"].iloc[0]
    names = set(master.set_index("ingredient_id").loc[list(row["constituents"]), "name"])
    assert names == {"black bear", "polar bear", "brown bear"}


def test_compounds_have_two_to_four_constituents(master):
    comp = master[master["is_compound"]]
    lens = comp["constituents"].map(len)
    assert lens.between(2, 4).all()


def test_basic_have_no_constituents(master):
    basic = master[~master["is_compound"]]
    assert (basic["constituents"].map(len) == 0).all()


def test_constituents_are_basic_ids(master):
    basic_ids = set(master.loc[~master["is_compound"], "ingredient_id"])
    for cs in master.loc[master["is_compound"], "constituents"]:
        assert set(cs) <= basic_ids


def test_deterministic_in_seed():
    a = ingredient_master()
    b = ingredient_master.__wrapped__()  # bypass cache: fresh build
    assert a["name"].tolist() == b["name"].tolist()
    assert a["community"].tolist() == b["community"].tolist()
