"""Ingredient contribution χ_i to cuisine food pairing (Fig. 5).

χ_i is the percentage change of N_s^C when ingredient i is removed from
the cuisine (Methodology §C): every recipe containing i loses i (its
pairs vanish and its size drops by one; 2-ingredient recipes drop out of
the average entirely, having no pairs left).

Rather than re-scoring the cuisine once per ingredient (O(#ingredients)
passes), the removal is computed exactly in one pass from the pair-level
decomposition:

    score'_R = 2 (S_R − T_{R,i}) / ((n−1)(n−2))     for recipes R ∋ i, n ≥ 3

where S_R is R's total pair overlap and T_{R,i} the overlap of pairs
involving i, both from the gather kernel
:func:`repro.core.pairing.flat_overlap`.  The recipes come as flat
arrays (:func:`repro.culinarydb.corpus.flat_corpus`: per-recipe
``recipe_id``, ``region`` and ``n``, and every member concatenated), so
no Spark job runs and no per-recipe object is built.  One kernel call on
the driver scores the whole corpus in ``recipe_id`` order, every member
at once.  Members are keyed ``region index · N_INGREDIENTS +
ingredient_id``, so one ``np.bincount`` per statistic over the keys
gives the per-(region, ingredient) sums, and bincounts over the
recipes' region index give each region's recipe count and Σ score for
N_s^C.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

from repro.core.pairing import flat_overlap
from repro.culinarydb.corpus import FlatCorpus
from repro.flavordb.ingredients import N_INGREDIENTS, ingredient_master
from repro.regions import PAPER_SIGNS


def ingredient_contributions(corpus: FlatCorpus, matrix: np.ndarray) -> pd.DataFrame:
    """χ_i for every (region, ingredient).

    ``corpus`` holds the recipes as flat arrays (``recipe_id``,
    ``region``, ``n``, ``members``); ``matrix`` is the overlap matrix
    from :func:`repro.core.pairing.shared_matrix`.  Returns (region,
    ingredient_id, n_containing, ns_c, ns_without, chi) where ``chi`` =
    100 · (N_s^C − N_s^{C∖i}) / N_s^C: positive χ means the ingredient
    pulls the cuisine's pairing score *up*.  ``chi`` is NaN when
    removing i empties the region or when N_s^C = 0.

    Every sum runs over the recipes in ``recipe_id`` order, so χ does
    not depend on the order of the recipes.  Raises ``ValueError``
    (from :meth:`FlatCorpus.take`) when the members are not as many as
    the sizes sum to.
    """
    corpus = corpus.take(np.argsort(corpus.recipe_id, kind="stable"))
    region, regions = pd.factorize(corpus.region, sort=True)
    t = flat_overlap(corpus.members, corpus.n, lambda row: f"recipe {corpus.recipe_id[row]}", matrix)
    recipe = np.repeat(np.arange(len(corpus.n)), corpus.n)
    pair_sum = np.add.reduceat(t, corpus.offsets[:-1])  # 2 S_R
    n = corpus.n.astype(np.float64)
    score = pair_sum / (n * (n - 1))
    m = n[recipe]
    adj = np.where(m >= 3, (pair_sum[recipe] - 2 * t) / np.maximum((m - 1) * (m - 2), 1), 0.0)
    # Keys are dense (regions × N_INGREDIENTS), so a bincount per statistic needs no sort.
    keys = region[recipe] * N_INGREDIENTS + corpus.members
    per_key = partial(np.bincount, keys, minlength=len(regions) * N_INGREDIENTS)
    n_containing = per_key()
    key = np.flatnonzero(n_containing)
    r = key // N_INGREDIENTS
    n_recipes, total = np.bincount(region)[r], np.bincount(region, weights=score)[r]
    ns_c = total / n_recipes
    remaining = n_recipes - np.bincount(keys[m == 2], minlength=len(n_containing))[key]
    with np.errstate(divide="ignore", invalid="ignore"):
        ns_without = (total - per_key(score[recipe])[key] + per_key(adj)[key]) / remaining
        ns_without[remaining == 0] = np.nan
        chi = np.where(ns_c != 0, 100.0 * (ns_c - ns_without) / ns_c, np.nan)
    return pd.DataFrame({
        "region": regions[r],
        "ingredient_id": key % N_INGREDIENTS,
        "n_containing": n_containing[key],
        "ns_c": ns_c,
        "ns_without": ns_without,
        "chi": chi,
    })


def top_contributors(contributions: pd.DataFrame, k: int = 3) -> pd.DataFrame:
    """Top-k contributing ingredients per region (Fig. 5).

    For positive-pairing regions the largest χ (ingredients pulling the
    score up); for negative-pairing ones the smallest χ (pulling it
    down), by the paper's Fig. 4 signs from :mod:`repro.regions`; a
    region without a sign there ranks by largest χ.  Rows with NaN χ are
    dropped, and equal χ rank by ``ingredient_id``.  Ingredient names are
    joined in for readability.
    """
    pdf = contributions.dropna(subset=["chi"])
    region, ingredient, chi = (pdf[c].to_numpy() for c in ("region", "ingredient_id", "chi"))
    pull = chi * -pdf["region"].map(PAPER_SIGNS).fillna(1).to_numpy()
    order = np.lexsort((ingredient, pull, region))
    # In region order, a row's rank is its distance from its region's first row.
    ranked = region[order]
    rank = np.arange(1, len(order) + 1) - np.searchsorted(ranked, ranked)
    top = order[rank <= k]
    names = ingredient_master().set_index("ingredient_id")["name"]
    return pd.DataFrame({
        "region": region[top],
        "rank": rank[rank <= k].astype(np.int64),
        "ingredient_id": ingredient[top].astype(np.int64),
        "ingredient": names.reindex(ingredient[top]).to_numpy(),
        "chi": chi[top],
    })
