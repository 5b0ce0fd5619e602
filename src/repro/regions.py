"""Paper ground truth: Table 1 region statistics and Fig. 4 pairing signs.

This module is the single source of truth for the 22 world regions the
paper analyzes.  Every number here is copied from the paper:

* ``recipes`` / ``ingredients`` — Table 1 ("Statistics of recipes and
  ingredients across world cuisines").
* ``pairing_sign`` — Fig. 4: +1 for the 16 regions with uniform (positive)
  food pairing, -1 for the 6 regions with contrasting (negative) pairing.
* ``category_boosts`` — Fig. 2's reported regional deviations (France,
  British Isles and Scandinavia use Dairy above Vegetable; the Indian
  Subcontinent, Africa, Middle East and Caribbean are Spice-dominant).

The synthetic corpus generator consumes these constants so that the
reproduction targets the paper's numbers *by construction*, and the
experiment harnesses diff the measured corpus against them.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Region:
    """One of the paper's 22 geo-cultural regions.

    Attributes
    ----------
    code:
        Short region code used throughout the paper (e.g. ``"INSC"``).
    name:
        Human-readable region name from Table 1.
    recipes:
        Number of recipes attributed to the region (Table 1).
    ingredients:
        Number of unique flavor-mapped ingredients used by the region's
        recipes (Table 1).
    pairing_sign:
        +1 if Fig. 4 reports uniform (positive) food pairing for the
        region, -1 for contrasting (negative) pairing.
    category_boosts:
        Multiplicative weight overrides applied to the region's
        ingredient-category sampling weights, encoding Fig. 2's reported
        regional preferences.  Categories absent from the dict keep
        weight 1.0.
    """

    code: str
    name: str
    recipes: int
    ingredients: int
    pairing_sign: int
    category_boosts: dict[str, float] = field(default_factory=dict)


# Dairy must outweigh Vegetable's larger share of the ingredient
# universe (110 vs 40 of the 840 basic slots), hence the stronger boost.
_DAIRY_FIRST = {"Dairy": 4.5}  # dairy used more prominently than vegetables
_SPICE_FIRST = {"Spice": 2.8}  # predominant use of spice


#: The paper's Table 1, augmented with Fig. 4 signs and Fig. 2 preferences.
REGIONS: tuple[Region, ...] = (
    Region("AFR", "Africa", 651, 303, +1, _SPICE_FIRST),
    Region("ANZ", "Australia & NZ", 494, 294, +1),
    Region("BRI", "British Isles", 1075, 340, -1, _DAIRY_FIRST),
    Region("CAN", "Canada", 1112, 368, +1),
    Region("CBN", "Caribbean", 1103, 340, +1, _SPICE_FIRST),
    Region("CHN", "China", 941, 302, +1),
    Region("DACH", "DACH Countries", 487, 260, -1),
    Region("EE", "Eastern Europe", 565, 255, -1),
    Region("FRA", "France", 2703, 424, +1, _DAIRY_FIRST),
    Region("GRC", "Greece", 934, 280, +1),
    Region("INSC", "Indian Subcontinent", 4058, 378, +1, _SPICE_FIRST),
    Region("ITA", "Italy", 7504, 452, +1),
    Region("JPN", "Japan", 580, 283, -1),
    Region("KOR", "Korea", 301, 198, -1),
    Region("MEX", "Mexico", 3138, 376, +1),
    Region("ME", "Middle East", 993, 313, +1, _SPICE_FIRST),
    Region("SCND", "Scandinavia", 404, 245, -1, _DAIRY_FIRST),
    Region("SAM", "South America", 310, 221, +1),
    Region("SEA", "South East Asia", 611, 266, +1),
    Region("ESP", "Spain", 816, 312, +1),
    Region("THA", "Thailand", 667, 265, +1),
    Region("USA", "USA", 16118, 612, +1),
)

#: Total number of recipes in the paper's corpus (Table 1 sums to 45565;
#: the remaining 207 recipes from Portugal, Belgium, Central America and
#: the Netherlands are aggregated into WORLD but not listed as regions).
TOTAL_RECIPES = 45772

#: Recipes used only in the WORLD aggregate (Materials §A).
EXTRA_WORLD_RECIPES = 207

#: Fig. 4's sign per region code: +1 uniform, −1 contrasting food pairing.
PAPER_SIGNS = {r.code: r.pairing_sign for r in REGIONS}

#: Region codes with positive (uniform) food pairing per Fig. 4.
POSITIVE_REGIONS = tuple(r.code for r in REGIONS if r.pairing_sign > 0)

#: Region codes with negative (contrasting) food pairing per Fig. 4.
NEGATIVE_REGIONS = tuple(r.code for r in REGIONS if r.pairing_sign < 0)


def by_code(code: str) -> Region:
    """Return the :class:`Region` with the given code.

    Raises ``KeyError`` for unknown codes so typos in experiment configs
    fail loudly.
    """
    for r in REGIONS:
        if r.code == code:
            return r
    raise KeyError(f"unknown region code: {code!r}")


def table1_rows() -> list[tuple[str, str, int, int]]:
    """Table 1 as (code, name, recipes, ingredients) rows, paper order."""
    return [(r.code, r.name, r.recipes, r.ingredients) for r in REGIONS]
