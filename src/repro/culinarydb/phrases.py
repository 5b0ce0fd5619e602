"""Synthesize raw ingredient phrases, as scraped recipe sites would show.

The paper's aliasing protocol starts from phrases like
``"2 jalapeno peppers, roasted and slit"``.  To exercise that code path
with known ground truth, this module wraps each corpus ingredient in a
deterministic random phrase: quantity, unit, pre/post descriptors,
optional pluralization, optional spelling-variant synonym and mixed
case/punctuation.  The aliasing pipeline must map the phrase back to the
true ingredient id; tests measure exact recovery.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.aliasing.textnorm import pluralize
from repro.flavordb.ingredients import ingredient_master

_QUANTITIES = ("1", "2", "3", "1/2", "3/4", "1 1/2", "")
_UNITS = ("cup", "cups", "tablespoon", "tbsp", "teaspoon", "ounce", "oz", "pound", "")
# Descriptors are deliberately disjoint from the modifier words that can
# open real ingredient names ("dried", "smoked", ...), so stopword
# removal can never truncate a name.
_PRE = ("fresh", "chopped", "finely chopped", "large", "small", "ripe", "")
_POST = ("roasted and slit", "to taste", "or more", "thinly sliced", "peeled", "")


def make_phrase(rng: np.random.Generator, name: str, synonyms: tuple[str, ...]) -> str:
    """One noisy phrase embedding ``name`` (or one of its synonyms)."""
    surface = name
    if synonyms and rng.random() < 0.3:
        surface = str(rng.choice(list(synonyms)))
    if rng.random() < 0.4:
        surface = pluralize(surface)
    if rng.random() < 0.3:
        surface = surface.title()
    qty = rng.choice(_QUANTITIES)
    unit = rng.choice(_UNITS) if qty else ""
    pre = rng.choice(_PRE)
    post = rng.choice(_POST)
    phrase = " ".join(x for x in (qty, unit, pre, surface) if x)
    if post:
        phrase += f", {post}"
    return phrase


def phrases_df(members: pd.DataFrame, seed: int = 23) -> pd.DataFrame:
    """``members`` (long format: ``recipe_id``, ``region``, ``ingredient_id``)
    plus ``phrase``, a raw phrase for each row.

    Each row draws from its own generator, seeded by (seed, recipe_id,
    ingredient_id), so a phrase depends neither on the row's position nor
    on the other rows.
    """
    master = ingredient_master()
    names = dict(zip(master["ingredient_id"], master["name"]))
    syns = dict(zip(master["ingredient_id"], master["synonyms"]))
    return members.assign(
        phrase=[
            make_phrase(np.random.default_rng([seed, int(rid), int(ing)]), names[ing], tuple(syns[ing]))
            for rid, ing in zip(members["recipe_id"], members["ingredient_id"])
        ]
    )
