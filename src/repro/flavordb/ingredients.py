"""Ingredient master list: 840 basic + 103 compound ingredients, 21 categories.

Mirrors the paper's Materials §B:

* 840 unique basic ingredients (including the paper's named additions:
  anise oil, apple juice, coconut milk, ..., cayenne, yeast, tequila,
  sauerkraut, and 7 additives of which the last four — cooking spray,
  gelatin, food coloring, liquid smoke — carry **no** flavor profile);
* 103 'compound ingredients' (spice combinations, sauces, common dishes)
  whose flavor profile is pooled from constituents — the paper's examples
  (mayonnaise = oil + egg + lemon juice; 'half half' = milk + cream;
  'bear' = black bear + polar bear + brown bear) are reproduced verbatim;
* each ingredient classified into one of the paper's 21 categories;
* spelling-variant synonyms (whiskey/whisky, chili/chile, asafoetida/hing,
  bread/bun, beer/lager, yogurt/curd) for the aliasing pipeline.

Ingredients the paper scraped are proprietary, so beyond the ~70 anchor
names taken from the paper text, names are deterministic pronounceable
pseudo-words.  Every ingredient also gets a latent flavor *community*
(see :mod:`repro.flavordb.molecules`) that drives profile overlap.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd

from repro.flavordb.molecules import N_COMMUNITIES

#: The paper's 21 ingredient categories (Materials §B).
CATEGORIES: tuple[str, ...] = (
    "Vegetable", "Dairy", "Legume", "Maize", "Cereal", "Meat",
    "Nuts and Seeds", "Plant", "Fish", "Seafood", "Spice", "Bakery",
    "Beverage Alcoholic", "Beverage", "Essential Oil", "Flower", "Fruit",
    "Fungus", "Herb", "Additive", "Dish",
)

N_BASIC = 840
N_COMPOUND = 103
N_INGREDIENTS = N_BASIC + N_COMPOUND

#: Seed of the ingredient master; the basic flavor profiles use the next one.
MASTER_SEED = 7

#: How many of the 840 basic slots each category owns (sums to 840).
#: Ordered so the WORLD aggregate usage (Fig. 2) has Vegetable, Spice,
#: Dairy, Herb, Plant, Meat, Fruit among the most frequent categories.
_CATEGORY_SIZES: dict[str, int] = {
    "Vegetable": 110, "Fruit": 90, "Spice": 75, "Meat": 60, "Plant": 60,
    "Herb": 55, "Fish": 45, "Dairy": 40, "Nuts and Seeds": 35, "Dish": 35,
    "Cereal": 30, "Legume": 30, "Seafood": 30, "Beverage Alcoholic": 30,
    "Bakery": 25, "Beverage": 25, "Essential Oil": 20, "Flower": 15,
    "Fungus": 15, "Maize": 8, "Additive": 7,
}
assert sum(_CATEGORY_SIZES.values()) == N_BASIC

#: Anchor ingredients named in the paper (or needed as compound
#: constituents), as (name, category, synonyms).
_ANCHORS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("bread", "Bakery", ("bun",)),
    ("beer", "Beverage Alcoholic", ("lager",)),
    ("yogurt", "Dairy", ("curd",)),
    ("whiskey", "Beverage Alcoholic", ("whisky",)),
    ("asafoetida", "Spice", ("hing",)),
    ("chili", "Spice", ("chile",)),
    ("jalapeno pepper", "Vegetable", ()),
    ("cayenne", "Spice", ()),
    ("yeast", "Fungus", ()),
    ("tequila", "Beverage Alcoholic", ()),
    ("sauerkraut", "Vegetable", ()),
    ("anise oil", "Essential Oil", ()),
    ("apple juice", "Beverage", ()),
    ("coconut milk", "Plant", ()),
    ("coconut oil", "Essential Oil", ()),
    ("hops", "Plant", ()),
    ("lemon juice", "Fruit", ()),
    ("brown rice", "Cereal", ()),
    ("tomato juice", "Beverage", ()),
    ("tomato paste", "Vegetable", ()),
    ("tomato puree", "Vegetable", ()),
    ("coriander seed", "Spice", ()),
    ("pork fat", "Meat", ()),
    ("cured ham", "Meat", ()),
    # 7 additives added for their high usage; the last four get no profile.
    ("baking powder", "Additive", ()),
    ("monosodium glutamate", "Additive", ("msg",)),
    ("citric acid", "Additive", ()),
    ("cooking spray", "Additive", ()),
    ("gelatin", "Additive", ()),
    ("food coloring", "Additive", ()),
    ("liquid smoke", "Additive", ()),
    # Compound-ingredient constituents and common staples.
    ("oil", "Plant", ()),
    ("egg", "Meat", ()),
    ("milk", "Dairy", ()),
    ("cream", "Dairy", ()),
    ("black bear", "Meat", ()),
    ("polar bear", "Meat", ()),
    ("brown bear", "Meat", ()),
    ("onion", "Vegetable", ()),
    ("garlic", "Vegetable", ()),
    ("tomato", "Vegetable", ()),
    ("potato", "Vegetable", ()),
    ("butter", "Dairy", ()),
    ("olive oil", "Essential Oil", ()),
    ("ginger", "Spice", ()),
    ("cumin", "Spice", ()),
    ("turmeric", "Spice", ()),
    ("cardamom", "Spice", ()),
    ("cinnamon", "Spice", ()),
    ("clove", "Spice", ()),
    ("black pepper", "Spice", ()),
    ("basil", "Herb", ()),
    ("oregano", "Herb", ()),
    ("cilantro", "Herb", ("coriander leaf",)),
    ("parmesan cheese", "Dairy", ()),
    ("rice", "Cereal", ()),
    ("wheat flour", "Cereal", ()),
    ("corn", "Maize", ()),
    ("sugar", "Plant", ()),
    ("chicken", "Meat", ()),
    ("beef", "Meat", ()),
    ("pork", "Meat", ()),
    ("shrimp", "Seafood", ()),
    ("salmon", "Fish", ()),
    ("mushroom", "Fungus", ()),
    ("apple", "Fruit", ()),
    ("banana", "Fruit", ()),
    ("orange", "Fruit", ()),
    ("lemon", "Fruit", ()),
    ("coconut", "Fruit", ()),
    ("peanut", "Nuts and Seeds", ()),
    ("almond", "Nuts and Seeds", ()),
    ("soybean", "Legume", ()),
    ("lentil", "Legume", ()),
    ("rose", "Flower", ()),
)

#: Basic-ingredient names with no flavor profile (Materials §B: "For the
#: last four additives, no flavor profile was added").
NO_PROFILE_NAMES = frozenset(
    {"cooking spray", "gelatin", "food coloring", "liquid smoke"}
)

#: Compound ingredients with paper-specified constituents.
_NAMED_COMPOUNDS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("mayonnaise", "Dish", ("oil", "egg", "lemon juice")),
    ("half half", "Dairy", ("milk", "cream")),
    ("bear", "Meat", ("black bear", "polar bear", "brown bear")),
    ("garam masala", "Spice", ("cumin", "cardamom", "cinnamon", "clove")),
    ("pesto", "Dish", ("basil", "olive oil", "parmesan cheese", "garlic")),
    ("salsa", "Dish", ("tomato", "onion", "chili")),
    ("curry powder", "Spice", ("turmeric", "coriander seed", "cumin", "chili")),
)

_SYLLABLES = (
    "ka", "ri", "mo", "ta", "lu", "ven", "shi", "pra", "del", "nor",
    "fa", "gu", "zel", "mir", "os", "tan", "be", "chi", "dra", "el",
)
_MODIFIERS = (
    "red", "wild", "sweet", "smoked", "dried", "black", "white", "mountain",
)


def _pseudo_name(rng: np.random.Generator, taken: set[str]) -> str:
    """A unique pronounceable pseudo-ingredient name."""
    while True:
        k = rng.integers(2, 4)
        word = "".join(rng.choice(_SYLLABLES, size=k))
        if rng.random() < 0.25:
            word = f"{rng.choice(_MODIFIERS)} {word}"
        if word not in taken:
            taken.add(word)
            return word


@lru_cache(maxsize=1)
def ingredient_master() -> pd.DataFrame:
    """The full ingredient master table (943 rows), from ``MASTER_SEED``.

    Columns: ingredient_id, name, category, community, is_compound,
    has_profile, synonyms (tuple of str), constituents (tuple of
    ingredient ids; empty for basic ingredients).
    """
    rng = np.random.default_rng(MASTER_SEED)
    taken = {name for name, _, _ in _ANCHORS}
    taken |= {name for name, _, _ in _NAMED_COMPOUNDS}

    rows: list[dict] = []
    anchors_by_cat: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for name, cat, syns in _ANCHORS:
        anchors_by_cat.setdefault(cat, []).append((name, syns))

    # Basic ingredients: anchors occupy the first slots of their category,
    # pseudo-names fill the rest.
    for cat in CATEGORIES:
        size = _CATEGORY_SIZES[cat]
        anchors = anchors_by_cat.get(cat, [])
        if len(anchors) > size:
            raise ValueError(f"category {cat} too small for its anchors")
        for name, syns in anchors:
            rows.append(
                {"name": name, "category": cat, "synonyms": syns,
                 "is_compound": False, "constituent_names": ()}
            )
        for _ in range(size - len(anchors)):
            rows.append(
                {"name": _pseudo_name(rng, taken), "category": cat,
                 "synonyms": (), "is_compound": False,
                 "constituent_names": ()}
            )

    basic_names = [r["name"] for r in rows]
    assert len(basic_names) == N_BASIC

    # Compound ingredients: paper-named ones first, then synthetic mixes
    # of 2-4 random basic constituents.
    for name, cat, constituents in _NAMED_COMPOUNDS:
        rows.append(
            {"name": name, "category": cat, "synonyms": (),
             "is_compound": True, "constituent_names": constituents}
        )
    for _ in range(N_COMPOUND - len(_NAMED_COMPOUNDS)):
        k = int(rng.integers(2, 5))
        constituents = tuple(rng.choice(basic_names, size=k, replace=False))
        rows.append(
            {"name": _pseudo_name(rng, taken) + " blend", "category": "Dish",
             "synonyms": (), "is_compound": True,
             "constituent_names": constituents}
        )

    pdf = pd.DataFrame(rows)
    pdf["ingredient_id"] = np.arange(len(pdf))
    name_to_id = dict(zip(pdf["name"], pdf["ingredient_id"]))
    pdf["constituents"] = pdf["constituent_names"].map(
        lambda names: tuple(name_to_id[n] for n in names)
    )
    pdf["community"] = rng.integers(0, N_COMMUNITIES, len(pdf))
    pdf["has_profile"] = ~pdf["name"].isin(NO_PROFILE_NAMES)
    return pdf[
        ["ingredient_id", "name", "category", "community", "is_compound",
         "has_profile", "synonyms", "constituents"]
    ]
