"""Corpus statistics: Table 1, Fig. 2 and Fig. 3 as pandas frames.

Every function takes the driver corpus of
:func:`repro.culinarydb.corpus.generate_corpus` (one row per recipe:
``recipe_id, region, n, ingredients``) and aggregates it in pandas, so
no statistic starts a Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.flavordb.ingredients import ingredient_master
from repro.regions import REGIONS


def _members(recipes: pd.DataFrame) -> pd.DataFrame:
    """Long format: one (recipe_id, region, ingredient_id) row per member."""
    out = recipes[["recipe_id", "region", "ingredients"]].explode("ingredients")
    return out.rename(columns={"ingredients": "ingredient_id"}).astype({"ingredient_id": np.int64})


def _usage(recipes: pd.DataFrame) -> pd.DataFrame:
    """Members with their category: one row per usage."""
    return _members(recipes).merge(ingredient_master()[["ingredient_id", "category"]], on="ingredient_id")


def _counts(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Rows per ``keys`` group, as a ``count`` column."""
    return df.groupby(keys, as_index=False).size().rename(columns={"size": "count"})


def region_table(recipes: pd.DataFrame) -> pd.DataFrame:
    """Measured Table 1: recipes and unique ingredients per region."""
    return _members(recipes).groupby("region", as_index=False).agg(
        recipes=("recipe_id", "nunique"), ingredients=("ingredient_id", "nunique")
    )


def region_table_vs_paper(recipes: pd.DataFrame) -> pd.DataFrame:
    """Measured Table 1 joined with the paper's published values."""
    paper = pd.DataFrame(
        [(r.code, r.name, r.recipes, r.ingredients) for r in REGIONS],
        columns=["region", "name", "paper_recipes", "paper_ingredients"],
    )
    out = paper.merge(region_table(recipes), on="region", how="left")
    out["recipes_match"] = out["recipes"] == out["paper_recipes"]
    out["ingredients_match"] = out["ingredients"] == out["paper_ingredients"]
    return out


def category_shares(recipes: pd.DataFrame) -> pd.DataFrame:
    """Fig. 2: share of ingredient *usage* per category per region.

    A usage is one (recipe, ingredient) occurrence; shares sum to 1 per
    region.  The ingredient master gives the category.
    """
    counts = _counts(_usage(recipes), ["region", "category"])
    counts["share"] = counts["count"] / counts.groupby("region")["count"].transform("sum")
    return counts


def world_category_shares(recipes: pd.DataFrame) -> pd.DataFrame:
    """Fig. 2's WORLD aggregate row (all regions pooled)."""
    counts = _counts(_usage(recipes), ["category"])
    counts["share"] = counts["count"] / counts["count"].sum()
    return counts


def recipe_size_histogram(recipes: pd.DataFrame, per_region: bool = False) -> pd.DataFrame:
    """Fig. 3a: recipe-size distribution (global or per region)."""
    out = _counts(recipes, ["region", "n"] if per_region else ["n"])
    total = out.groupby("region")["count"].transform("sum") if per_region else out["count"].sum()
    out["p"] = out["count"] / total
    return out


def recipe_size_summary(recipes: pd.DataFrame) -> pd.DataFrame:
    """Mean / max / p99 recipe size per region (thin-tail check).

    p99 interpolates linearly between the two nearest ranks.
    """
    return recipes.groupby("region", as_index=False)["n"].agg(
        mean_n="mean",
        p99_n=lambda n: n.quantile(0.99, interpolation="linear"),
        max_n="max",
        recipes="size",
    )


def rank_frequency(recipes: pd.DataFrame) -> pd.DataFrame:
    """Fig. 3b: ingredient popularity rank vs normalized frequency.

    Per region, ingredients ranked by usage count (rank 1 = most used;
    ties go to the smaller ``ingredient_id``); ``rel_freq`` is the count
    normalized by the most popular ingredient's, ``rel_rank`` the rank
    normalized by the region's ingredient count — the paper's curves
    collapse on these axes.
    """
    ranked = _counts(_members(recipes), ["region", "ingredient_id"]).sort_values(
        ["region", "count", "ingredient_id"], ascending=[True, False, True], ignore_index=True
    )
    per_region = ranked.groupby("region")["count"]
    ranked["rank"] = ranked.groupby("region").cumcount() + 1
    ranked["rel_freq"] = ranked["count"] / per_region.transform("max")
    ranked["rel_rank"] = ranked["rank"] / per_region.transform("size")
    return ranked[["region", "ingredient_id", "rank", "count", "rel_freq", "rel_rank"]]
