"""Corpus statistics: Table 1, Fig. 2 and Fig. 3 as pandas frames.

Every function takes the flat driver corpus of
:func:`repro.culinarydb.corpus.flat_corpus`, repeats each recipe's
``recipe_id`` and integer region code over its members where it counts
members, aggregates in pandas and names the region codes after the
group-by, so no statistic starts a Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.culinarydb.corpus import FlatCorpus
from repro.flavordb.ingredients import ingredient_master
from repro.regions import table1_rows


def _recipes(corpus: FlatCorpus) -> pd.DataFrame:
    """One (recipe_id, region, n) row per recipe, ``n`` as int32."""
    return pd.DataFrame({"recipe_id": corpus.recipe_id, "region": corpus.region, "n": corpus.n.astype(np.int32)})


def _members(corpus: FlatCorpus) -> pd.DataFrame:
    """Long format: one (recipe_id, region, ingredient_id) row per member,
    ``region`` as its integer code; :func:`_decoded` names the codes."""
    codes, _ = pd.factorize(corpus.region, sort=True)
    return pd.DataFrame(
        {
            "recipe_id": np.repeat(corpus.recipe_id, corpus.n),
            "region": np.repeat(codes, corpus.n),
            "ingredient_id": corpus.members,
        }
    )


def _decoded(df: pd.DataFrame, corpus: FlatCorpus) -> pd.DataFrame:
    """``df`` with the region codes of :func:`_members` replaced by their names."""
    return df.assign(region=pd.factorize(corpus.region, sort=True)[1][df["region"].to_numpy()])


def _usage(corpus: FlatCorpus) -> pd.DataFrame:
    """Members with their category: one row per usage."""
    return _members(corpus).merge(ingredient_master()[["ingredient_id", "category"]], on="ingredient_id")


def _counts(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Rows per ``keys`` group, as a ``count`` column."""
    return df.groupby(keys, as_index=False).size().rename(columns={"size": "count"})


def region_table(corpus: FlatCorpus) -> pd.DataFrame:
    """Measured Table 1: recipes and unique ingredients per region."""
    table = _members(corpus).groupby("region", as_index=False).agg(
        recipes=("recipe_id", "nunique"), ingredients=("ingredient_id", "nunique")
    )
    return _decoded(table, corpus)


def region_table_vs_paper(corpus: FlatCorpus) -> pd.DataFrame:
    """Measured Table 1 joined with the paper's published values."""
    paper = pd.DataFrame(table1_rows(), columns=["region", "name", "paper_recipes", "paper_ingredients"])
    out = paper.merge(region_table(corpus), on="region", how="left")
    out["recipes_match"] = out["recipes"] == out["paper_recipes"]
    out["ingredients_match"] = out["ingredients"] == out["paper_ingredients"]
    return out


def category_shares(corpus: FlatCorpus) -> pd.DataFrame:
    """Fig. 2: share of ingredient *usage* per category per region.

    A usage is one (recipe, ingredient) occurrence; shares sum to 1 per
    region.  The ingredient master gives the category.
    """
    counts = _decoded(_counts(_usage(corpus), ["region", "category"]), corpus)
    counts["share"] = counts["count"] / counts.groupby("region")["count"].transform("sum")
    return counts


def world_category_shares(per_region: pd.DataFrame) -> pd.DataFrame:
    """Fig. 2's WORLD aggregate row (all regions pooled), from the
    per-region counts of :func:`category_shares`."""
    counts = per_region.groupby("category", as_index=False)["count"].sum()
    counts["share"] = counts["count"] / counts["count"].sum()
    return counts


def recipe_size_histogram(corpus: FlatCorpus, per_region: bool = False) -> pd.DataFrame:
    """Fig. 3a: recipe-size distribution (global or per region)."""
    out = _counts(_recipes(corpus), ["region", "n"] if per_region else ["n"])
    total = out.groupby("region")["count"].transform("sum") if per_region else out["count"].sum()
    out["p"] = out["count"] / total
    return out


def recipe_size_summary(corpus: FlatCorpus) -> pd.DataFrame:
    """Mean / max / p99 recipe size per region (thin-tail check).

    p99 interpolates linearly between the two nearest ranks.
    """
    return _recipes(corpus).groupby("region", as_index=False)["n"].agg(
        mean_n="mean",
        p99_n=lambda n: n.quantile(0.99, interpolation="linear"),
        max_n="max",
        recipes="size",
    )


def rank_frequency(corpus: FlatCorpus) -> pd.DataFrame:
    """Fig. 3b: ingredient popularity rank vs normalized frequency.

    Per region, ingredients ranked by usage count (rank 1 = most used;
    ties go to the smaller ``ingredient_id``); ``rel_freq`` is the count
    normalized by the most popular ingredient's, ``rel_rank`` the rank
    normalized by the region's ingredient count — the paper's curves
    collapse on these axes.
    """
    ranked = _counts(_members(corpus), ["region", "ingredient_id"]).sort_values(
        ["region", "count", "ingredient_id"], ascending=[True, False, True], ignore_index=True
    )
    per_region = ranked.groupby("region")["count"]
    ranked["rank"] = ranked.groupby("region").cumcount() + 1
    ranked["rel_freq"] = ranked["count"] / per_region.transform("max")
    ranked["rel_rank"] = ranked["rank"] / per_region.transform("size")
    return _decoded(ranked[["region", "ingredient_id", "rank", "count", "rel_freq", "rel_rank"]], corpus)
