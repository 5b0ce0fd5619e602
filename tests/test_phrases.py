"""Phrase synthesis for the aliasing pipeline."""
import numpy as np
import pandas as pd

from repro.aliasing.textnorm import normalize_name
from repro.culinarydb.phrases import make_phrase, phrases_df
from repro.flavordb.ingredients import ingredient_master


def test_make_phrase_contains_surface_form():
    master = ingredient_master()
    row = master[master["name"] == "onion"].iloc[0]
    rng = np.random.default_rng(0)
    for _ in range(20):
        ph = make_phrase(rng, row["name"], tuple(row["synonyms"]))
        assert "onion" in ph.lower()


def test_make_phrase_uses_synonyms_sometimes():
    master = ingredient_master()
    row = master[master["name"] == "whiskey"].iloc[0]
    rng = np.random.default_rng(0)
    surfaces = {make_phrase(rng, row["name"], tuple(row["synonyms"])) for _ in range(60)}
    assert any("whisky" in s.lower() for s in surfaces)
    assert any("whiskey" in s.lower() for s in surfaces)


def test_make_phrase_deterministic_given_rng_state():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    assert make_phrase(rng1, "basil", ()) == make_phrase(rng2, "basil", ())


def test_phrases_df_row_per_usage(members_small):
    sample = members_small.head(100)
    out = phrases_df(sample)
    assert list(out.columns) == [*sample.columns, "phrase"]
    pd.testing.assert_frame_equal(out[sample.columns], sample)


def test_phrases_df_deterministic(members_small):
    """A phrase depends on (seed, recipe_id, ingredient_id) only, not on
    the row's position or on the other rows."""
    key = ["recipe_id", "ingredient_id"]
    sample = members_small.head(500)
    want = phrases_df(sample, seed=23).set_index(key)["phrase"]
    shuffled = phrases_df(sample.sample(frac=1, random_state=0), seed=23).set_index(key)["phrase"]
    pd.testing.assert_series_equal(shuffled.loc[want.index], want)
    head = phrases_df(sample.head(7), seed=23).set_index(key)["phrase"]
    pd.testing.assert_series_equal(head, want.head(7))


def test_phrases_df_seed_changes_output(members_small):
    sample = members_small.head(50)
    assert phrases_df(sample, seed=23)["phrase"].tolist() != phrases_df(sample, seed=24)["phrase"].tolist()


def test_phrase_normalizes_back_to_name_tokens():
    from repro.aliasing.textnorm import normalize, pluralize

    master = ingredient_master()
    rng = np.random.default_rng(5)
    for _, row in master.sample(30, random_state=2).iterrows():
        ph = make_phrase(rng, row["name"], ())
        # the normalized phrase must contain one of the two lexicon keys
        # (singular-derived or plural-derived surface form)
        keys = {normalize_name(row["name"]), normalize_name(pluralize(row["name"]))}
        assert any(k in " ".join(normalize(ph)) for k in keys)
