"""The paper's primary contribution: food-pairing analysis of cuisines.

* :mod:`repro.core.pairing` — the ingredient overlap matrix
  |F_i ∩ F_j| and the one gather kernel over it, which scores flat
  (sizes, members) recipes (``N_s^R``, Methodology §B);
* :mod:`repro.core.randomize` — the four randomized-cuisine models
  (Random / Ingredient Frequency / Ingredient Category /
  Frequency + Category) and the batch plan that also carries the real
  recipes;
* :mod:`repro.core.zscore` — cuisine scores ``N_s^C`` and σ of the real
  and randomized cuisines from one fused pass, and the Z-score of each
  cuisine and model against the Random Cuisine (Fig. 4);
* :mod:`repro.core.contribution` — ingredient contribution χ_i via exact
  pair-level decomposition on the same kernel, N_s^C included, over the
  flat driver corpus in one pass of bincounts (Fig. 5);
* :mod:`repro.core.stats` — corpus statistics for Table 1, Fig. 2 and
  Fig. 3, aggregated in pandas over the flat driver corpus.
"""
from repro.core.pairing import shared_matrix
from repro.core.randomize import MODELS, region_model_inputs
from repro.core.zscore import food_pairing_table
from repro.core.contribution import ingredient_contributions, top_contributors

__all__ = [
    "MODELS",
    "food_pairing_table",
    "ingredient_contributions",
    "region_model_inputs",
    "shared_matrix",
    "top_contributors",
]
