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
:func:`repro.core.pairing.padded_overlap`.  The recipes come as a pandas
frame (:func:`repro.culinarydb.corpus.generate_corpus`), so no Spark job
runs; they are scored on the driver in slices of at most
:data:`repro.core.randomize.BATCH_SIZE` recipes per region.  Each slice
is reduced to per-ingredient partial sums with ``np.bincount``, and to
its recipe count and Σ score for N_s^C; the partials are summed per
(region, ingredient).
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

from repro.core import randomize
from repro.core.pairing import PAD_ID, pad_members, padded_overlap
from repro.flavordb.ingredients import ingredient_master


def ingredient_contributions(recipes: pd.DataFrame, matrix: np.ndarray) -> pd.DataFrame:
    """χ_i for every (region, ingredient).

    ``recipes`` has one row per recipe with ``recipe_id``, ``region``,
    ``n`` and ``ingredients``; ``matrix`` is the overlap matrix from
    :func:`repro.core.pairing.shared_matrix`.  Returns (region,
    ingredient_id, n_containing, ns_c, ns_without, chi) where ``chi`` =
    100 · (N_s^C − N_s^{C∖i}) / N_s^C: positive χ means the ingredient
    pulls the cuisine's pairing score *up*.  ``chi`` is NaN when
    removing i empties the region or when N_s^C = 0.

    The recipes are sliced in ``recipe_id`` order, so the slices and the
    floating-point sums do not depend on the order of ``recipes``' rows.
    """
    pdf = recipes.sort_values("recipe_id")
    parts, totals = [], []
    for region, g in pdf.groupby("region"):
        for lo in range(0, len(g), randomize.BATCH_SIZE):
            part = g.iloc[lo: lo + randomize.BATCH_SIZE]
            recipe_ids, sizes = part["recipe_id"].to_numpy(), part["n"].to_numpy()
            ids, lengths = pad_members(part["ingredients"])
            t = padded_overlap(ids, lengths, sizes, lambda row: f"recipe {recipe_ids[row]}", matrix)
            n = sizes.astype(np.float64)[:, None]
            pair_sum = t.sum(axis=1, keepdims=True)  # 2 S_R
            score = pair_sum / (n * (n - 1))
            adj = np.where(n >= 3, (pair_sum - 2 * t) / np.maximum((n - 1) * (n - 2), 1), 0.0)
            real = ids != PAD_ID
            rows = np.nonzero(real)[0]
            ingredient_id, member = np.unique(ids[real], return_inverse=True)
            per_ingredient = partial(np.bincount, member, minlength=len(ingredient_id))
            parts.append(pd.DataFrame({
                "region": region,
                "ingredient_id": ingredient_id,
                "n_containing": per_ingredient(),
                "sum_score": per_ingredient(score[rows, 0]),
                "sum_adj": per_ingredient(adj[real]),
                "n_dropped": per_ingredient(sizes[rows] == 2).astype(np.int64),
            }))
            totals.append((region, len(part), score.sum()))
    per = pd.concat(parts).groupby(["region", "ingredient_id"], as_index=False).sum()
    region_totals = pd.DataFrame(totals, columns=["region", "n_recipes", "total"]).groupby("region").sum()
    per = per.join(region_totals, on="region")
    ns_c = per["total"] / per["n_recipes"]
    remaining = per["n_recipes"] - per["n_dropped"]
    ns_without = ((per["total"] - per["sum_score"] + per["sum_adj"]) / remaining).where(remaining > 0)
    return per[["region", "ingredient_id", "n_containing"]].assign(
        ns_c=ns_c,
        ns_without=ns_without,
        chi=(100.0 * (ns_c - ns_without) / ns_c).where(ns_c != 0),
    )


def top_contributors(contributions: pd.DataFrame, k: int = 3) -> pd.DataFrame:
    """Top-k contributing ingredients per region (Fig. 5).

    For positive-pairing regions the largest χ (ingredients pulling the
    score up); for negative-pairing ones the smallest χ (pulling it
    down), by the paper's Fig. 4 signs from :mod:`repro.regions`.  Equal
    χ rank by ``ingredient_id``.  Ingredient names are joined in for
    readability.
    """
    from repro.regions import REGIONS

    signs = {r.code: r.pairing_sign for r in REGIONS}
    pdf = contributions.dropna(subset=["chi"])
    pull = pdf["chi"] * -pdf["region"].map(signs).fillna(1)
    top = (
        pdf.assign(pull=pull)
        .sort_values(["region", "pull", "ingredient_id"])
        .groupby("region")
        .head(k)
        .reset_index(drop=True)
    )
    names = ingredient_master().set_index("ingredient_id")["name"]
    return pd.DataFrame({
        "region": top["region"],
        "rank": top.groupby("region").cumcount() + 1,
        "ingredient_id": top["ingredient_id"].astype(np.int64),
        "ingredient": top["ingredient_id"].map(names),
        "chi": top["chi"],
    })
