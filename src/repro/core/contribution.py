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
:func:`repro.core.pairing.member_overlap` in one ``mapInPandas`` pass.
N_s^C comes from the same pass: ``lead`` marks each recipe's first member.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Window

from repro.core.pairing import PAD_ID, member_overlap
from repro.flavordb.ingredients import ingredient_master

_MEMBER_SCHEMA = "region string, ingredient_id long, score double, adj double, dropped int, lead int"


def ingredient_contributions(recipes: DataFrame, matrix: np.ndarray) -> DataFrame:
    """χ_i for every (region, ingredient).

    ``recipes`` has one row per recipe with ``recipe_id``, ``region``,
    ``n`` and ``ingredients``; ``matrix`` is the overlap matrix from
    :func:`repro.core.pairing.shared_matrix`.  Returns (region,
    ingredient_id, n_containing, ns_c, ns_without, chi) where ``chi`` =
    100 · (N_s^C − N_s^{C∖i}) / N_s^C: positive χ means the ingredient
    pulls the cuisine's pairing score *up*.  ``chi`` is NULL when
    removing i empties the region or when N_s^C = 0.
    """
    bc = recipes.sparkSession.sparkContext.broadcast(matrix)

    def members(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        """One row per member: its recipe's score and the score without it."""
        for pdf in batches:
            if len(pdf) == 0:
                continue
            ids, t = member_overlap(pdf, bc.value)
            n = pdf["n"].to_numpy()[:, None].astype(np.float64)
            pair_sum = t.sum(axis=1, keepdims=True)  # 2 S_R
            adj = np.where(n >= 3, (pair_sum - 2 * t) / np.maximum((n - 1) * (n - 2), 1), 0.0)
            real = ids != PAD_ID
            rows, slots = np.nonzero(real)
            yield pd.DataFrame({
                "region": pdf["region"].to_numpy()[rows],
                "ingredient_id": ids[real],
                "score": (pair_sum / (n * (n - 1)))[rows, 0],
                "adj": adj[real],
                "dropped": (n[rows, 0] == 2).astype(np.int32),
                "lead": (slots == 0).astype(np.int32),
            })

    per_ing = (
        recipes.mapInPandas(members, _MEMBER_SCHEMA)
        .groupBy("region", "ingredient_id")
        .agg(
            F.count("*").alias("n_containing"),
            F.sum("score").alias("sum_orig"),
            F.sum("adj").alias("sum_adj"),
            F.sum("dropped").alias("n_dropped"),
            F.sum("lead").alias("n_lead"),
            F.sum(F.col("lead") * F.col("score")).alias("lead_score"),
        )
    )
    region = Window.partitionBy("region")
    n_r, total = F.sum("n_lead").over(region), F.sum("lead_score").over(region)
    ns_c = total / n_r
    remaining = n_r - F.col("n_dropped")
    ns_without = F.when(remaining > 0, (total - F.col("sum_orig") + F.col("sum_adj")) / remaining)
    chi = F.when(ns_c != 0, 100.0 * (ns_c - ns_without) / ns_c)
    return per_ing.select(
        "region", "ingredient_id", "n_containing", ns_c.alias("ns_c"),
        ns_without.alias("ns_without"), chi.alias("chi"),
    )


def top_contributors(contributions: DataFrame | pd.DataFrame, k: int = 3) -> pd.DataFrame:
    """Top-k contributing ingredients per region (Fig. 5).

    For positive-pairing regions the largest χ (ingredients pulling the
    score up); for negative-pairing ones the smallest χ (pulling it
    down), by the paper's Fig. 4 signs from :mod:`repro.regions`.
    Ingredient names are joined in for readability.
    """
    from repro.regions import REGIONS

    pdf = (
        contributions.toPandas()
        if isinstance(contributions, DataFrame)
        else contributions.copy()
    )
    signs = {r.code: r.pairing_sign for r in REGIONS}
    names = ingredient_master().set_index("ingredient_id")["name"]
    rows = []
    for region, g in pdf.dropna(subset=["chi"]).groupby("region"):
        sign = signs.get(region, 1)
        top = g.sort_values("chi", ascending=sign < 0).head(k)
        for rank, (_, row) in enumerate(top.iterrows(), start=1):
            rows.append(
                {
                    "region": region,
                    "rank": rank,
                    "ingredient_id": int(row["ingredient_id"]),
                    "ingredient": names.loc[int(row["ingredient_id"])],
                    "chi": row["chi"],
                }
            )
    return pd.DataFrame(rows)
