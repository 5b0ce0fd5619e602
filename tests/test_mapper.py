"""Aliasing: phrase → ingredient id."""
import numpy as np
import pandas as pd
import pytest

from repro.aliasing.mapper import alias_one, alias_phrases, build_lexicon
from repro.aliasing.textnorm import normalize_name
from repro.culinarydb.phrases import make_phrase
from repro.flavordb.ingredients import ingredient_master


@pytest.fixture(scope="module")
def lex():
    return build_lexicon()


def test_lexicon_has_no_collisions(lex):
    # build_lexicon raises on collision; reaching here is the assertion,
    # but also sanity-check the size covers every ingredient
    master = ingredient_master()
    assert len(set(lex.values())) == len(master)


def test_exact_match(lex):
    master = ingredient_master()
    iid = int(master.loc[master["name"] == "jalapeno pepper", "ingredient_id"].iloc[0])
    assert alias_one("2 jalapeno peppers, roasted and slit", lex) == (iid, "exact")


def test_synonym_match(lex):
    master = ingredient_master()
    iid = int(master.loc[master["name"] == "whiskey", "ingredient_id"].iloc[0])
    got, status = alias_one("3 tbsp whisky", lex)
    assert got == iid and status == "exact"


def test_longest_ngram_wins(lex):
    master = ingredient_master()
    paste = int(master.loc[master["name"] == "tomato paste", "ingredient_id"].iloc[0])
    tomato = int(master.loc[master["name"] == "tomato", "ingredient_id"].iloc[0])
    got, _ = alias_one("1 cup tomato paste", lex)
    assert got == paste != tomato


def test_partial_when_leftover_tokens(lex):
    got, status = alias_one("mystery gloop with basil", lex)
    assert status == "partial" and got is not None


def test_unmatched(lex):
    assert alias_one("totally unknown gizmo", lex) == (None, "unmatched")


def test_empty_phrase(lex):
    assert alias_one("2 1/2 cups", lex) == (None, "unmatched")


def test_bulk_accuracy_on_synthetic_phrases(lex):
    master = ingredient_master()
    rng = np.random.default_rng(0)
    sample = master.sample(200, random_state=1)
    for _, row in sample.iterrows():
        ph = make_phrase(rng, row["name"], tuple(row["synonyms"]))
        got, _ = alias_one(ph, lex)
        assert got == row["ingredient_id"], (ph, row["name"])


def test_lexicon_covers_all_names(lex):
    master = ingredient_master()
    for name, iid in zip(master["name"], master["ingredient_id"]):
        assert lex[normalize_name(name)] == iid, name
    # synonym entries point at the canonical ingredient
    assert lex[normalize_name("bun")] == lex[normalize_name("bread")]
    assert lex[normalize_name("whisky")] == lex[normalize_name("whiskey")]


def test_alias_phrases_recovers_corpus(aliased_small, members_small):
    assert aliased_small["region"].nunique() == 23
    pd.testing.assert_frame_equal(aliased_small[members_small.columns], members_small)
    # An Int64 comparison is <NA> on a null, and .all() skips <NA>.
    assert aliased_small["mapped_id"].notna().all()
    assert (aliased_small["mapped_id"] == aliased_small["ingredient_id"]).all()


def test_alias_phrases_schema():
    phrases = pd.DataFrame(
        {
            "recipe_id": [3, 1, 2],
            "phrase": ["2 jalapeno peppers, roasted and slit", "totally unknown gizmo", "mystery gloop with basil"],
        },
        index=[10, 20, 30],
    )
    aliased = alias_phrases(phrases)
    assert list(aliased.columns) == ["recipe_id", "phrase", "mapped_id", "status"]
    assert aliased.index.tolist() == [10, 20, 30]
    assert aliased["mapped_id"].dtype == "Int64"
    assert aliased["mapped_id"].isna().tolist() == [False, True, False]
    assert aliased["status"].tolist() == ["exact", "unmatched", "partial"]
    assert list(alias_phrases(phrases.iloc[:0]).columns) == list(aliased.columns)
