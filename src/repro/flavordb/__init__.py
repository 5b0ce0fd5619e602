"""Synthetic FlavorDB substrate.

The paper sources flavor molecules of natural ingredients from FlavorDB
(Garg et al., NAR 2017), which is not available offline.  This package
builds the closest synthetic equivalent that exercises the same code
paths:

* :mod:`repro.flavordb.molecules` — a molecule universe organized into
  latent *flavor communities*, giving the two overlap regimes (high
  within-community, low across) that food-pairing analysis depends on;
* :mod:`repro.flavordb.ingredients` — the ingredient master list: 840
  basic + 103 compound ingredients over the paper's 21 categories,
  including the paper's named special cases (additives without flavor
  profiles, compound ingredients such as mayonnaise and 'half half',
  spelling-variant synonyms);
* :mod:`repro.flavordb.profiles` — per-ingredient flavor profiles, a
  compound ingredient's being the union of its constituents' (the
  paper's pooling rule), and the overlap matrix built from them.
"""
from repro.flavordb.ingredients import (
    CATEGORIES,
    N_BASIC,
    N_COMPOUND,
    ingredient_master,
)
from repro.flavordb.molecules import (
    N_COMMUNITIES,
    N_MOLECULES,
    molecule_community,
)
from repro.flavordb.profiles import basic_profiles, profiles, shared_matrix_numpy

__all__ = [
    "CATEGORIES",
    "N_BASIC",
    "N_COMPOUND",
    "N_COMMUNITIES",
    "N_MOLECULES",
    "basic_profiles",
    "ingredient_master",
    "molecule_community",
    "profiles",
    "shared_matrix_numpy",
]
