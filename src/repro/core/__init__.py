"""The paper's primary contribution: food-pairing analysis of cuisines.

* :mod:`repro.core.pairing` — the ingredient overlap matrix
  |F_i ∩ F_j| and the one gather kernel over it, which scores recipes
  (``N_s^R``, Methodology §B) against a broadcast copy of the matrix;
* :mod:`repro.core.randomize` — the four randomized-cuisine models
  (Random / Ingredient Frequency / Ingredient Category /
  Frequency + Category);
* :mod:`repro.core.zscore` — cuisine scores ``N_s^C`` and the Z-score of
  each cuisine and model against the Random Cuisine (Fig. 4);
* :mod:`repro.core.contribution` — ingredient contribution χ_i via exact
  pair-level decomposition on the same kernel (Fig. 5);
* :mod:`repro.core.stats` — corpus statistics for Table 1, Fig. 2 and
  Fig. 3.
"""
from repro.core.pairing import (
    cuisine_scores,
    member_overlap,
    recipe_scores_fast,
    shared_matrix,
)
from repro.core.randomize import MODELS, random_recipes, region_model_inputs
from repro.core.zscore import food_pairing_table
from repro.core.contribution import ingredient_contributions, top_contributors

__all__ = [
    "MODELS",
    "cuisine_scores",
    "food_pairing_table",
    "ingredient_contributions",
    "member_overlap",
    "random_recipes",
    "recipe_scores_fast",
    "region_model_inputs",
    "shared_matrix",
    "top_contributors",
]
