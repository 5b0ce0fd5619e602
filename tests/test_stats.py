"""Corpus statistics: Table 1, Fig. 2, Fig. 3 — with oracle checks.

Every statistic reads the flat corpus: ``flat_small`` for the oracle
tests, whose DuckDB side reads the nested ``recipes_small`` and
``members_small``, and ``flat_full``, the corpus at the paper's size,
for the paper's claims.
"""
import numpy as np
import pytest

from repro.core.stats import (
    category_shares,
    rank_frequency,
    recipe_size_histogram,
    recipe_size_summary,
    region_table,
    region_table_vs_paper,
    world_category_shares,
)
from repro.culinarydb.generator import region_specs
from repro.flavordb.ingredients import ingredient_master
from repro.oracle import assert_equivalent


def test_region_table_matches_specs(flat_small):
    got = region_table(flat_small).set_index("region")
    for s in region_specs(0.02, 11):
        assert got.loc[s.code, "recipes"] == s.n_recipes
        assert got.loc[s.code, "ingredients"] == len(s.pool)


def test_region_table_matches_oracle(flat_small, members_small):
    assert_equivalent(
        region_table(flat_small),
        """
        SELECT region,
               count(DISTINCT recipe_id) AS recipes,
               count(DISTINCT ingredient_id) AS ingredients
        FROM ex GROUP BY region
        """,
        ex=members_small,
    )


def test_region_table_vs_paper_columns(flat_small):
    pdf = region_table_vs_paper(flat_small)
    assert len(pdf) == 22
    assert {
        "region", "paper_recipes", "paper_ingredients",
        "recipes", "ingredients", "recipes_match", "ingredients_match",
    } <= set(pdf.columns)


def test_table1_matches_paper_at_full_scale(flat_full):
    """Table 1: recipes and unique ingredients match the paper in 22/22 regions."""
    pdf = region_table_vs_paper(flat_full)
    assert pdf["recipes_match"].sum() == 22, pdf[~pdf["recipes_match"]]
    assert pdf["ingredients_match"].sum() == 22, pdf[~pdf["ingredients_match"]]


def test_category_shares_sum_to_one(flat_small):
    totals = category_shares(flat_small).groupby("region")["share"].sum()
    assert np.allclose(totals, 1.0)


def test_category_shares_match_oracle(flat_small, members_small):
    assert_equivalent(
        category_shares(flat_small),
        """
        SELECT region, category, count(*) AS count,
               count(*) / sum(count(*)) OVER (PARTITION BY region) AS share
        FROM ex JOIN cats USING (ingredient_id)
        GROUP BY region, category
        """,
        ex=members_small,
        cats=ingredient_master()[["ingredient_id", "category"]],
    )


def test_world_category_shares_match_oracle(flat_small, members_small):
    assert_equivalent(
        world_category_shares(category_shares(flat_small)),
        """
        SELECT category, count(*) AS count,
               count(*) / sum(count(*)) OVER () AS share
        FROM ex JOIN cats USING (ingredient_id)
        GROUP BY category
        """,
        ex=members_small,
        cats=ingredient_master()[["ingredient_id", "category"]],
    )


def test_spice_regions_rank_spice_high(flat_full):
    """Fig. 2: INSC / AFR / ME / CBN show predominant use of spice."""
    pdf = category_shares(flat_full)
    for code in ("INSC", "AFR", "ME", "CBN"):
        g = pdf[pdf["region"] == code].set_index("category")["share"]
        assert g.idxmax() == "Spice", (code, g.nlargest(3))


def test_dairy_first_regions_dairy_above_vegetable(flat_full):
    """Fig. 2: FRA / BRI / SCND use dairy above vegetables."""
    pdf = category_shares(flat_full)
    for code in ("FRA", "BRI", "SCND"):
        g = pdf[pdf["region"] == code].set_index("category")["share"]
        assert g["Dairy"] > g["Vegetable"], (code, g.nlargest(5))


def test_world_top_categories(flat_full):
    """Fig. 2 WORLD: Vegetable/Spice/Dairy/Herb/Plant/Meat/Fruit lead."""
    pdf = world_category_shares(category_shares(flat_full))
    top7 = set(pdf.nlargest(7, "share")["category"])
    assert "Vegetable" in top7
    assert len(top7 & {"Vegetable", "Spice", "Dairy", "Herb", "Plant", "Meat", "Fruit"}) >= 5


def test_size_histogram_global(flat_small):
    pdf = recipe_size_histogram(flat_small)
    assert pdf["p"].sum() == pytest.approx(1.0)
    assert pdf["n"].between(2, 25).all()


def test_size_histogram_per_region(flat_small):
    pdf = recipe_size_histogram(flat_small, per_region=True)
    sums = pdf.groupby("region")["p"].sum()
    assert np.allclose(sums, 1.0)


def test_size_summary_mean_about_nine(flat_full):
    """Fig. 3a: average of about nine ingredients per recipe, thin tail."""
    pdf = recipe_size_summary(flat_full)
    assert pdf["mean_n"].between(8.0, 10.0).all()
    assert (pdf["max_n"] <= 25).all()


def test_size_summary_matches_oracle(flat_small, recipes_small):
    assert_equivalent(
        recipe_size_summary(flat_small),
        """
        SELECT region, avg(n) AS mean_n, quantile_cont(n, 0.99) AS p99_n,
               max(n) AS max_n, count(*) AS recipes
        FROM corpus GROUP BY region
        """,
        corpus=recipes_small.drop(columns="ingredients"),
    )


def test_rank_frequency_normalized(flat_small):
    pdf = rank_frequency(flat_small)
    top = pdf[pdf["rank"] == 1]
    assert (top["rel_freq"] == 1.0).all()
    assert pdf["rel_freq"].between(0, 1).all()


def test_rank_frequency_monotone_in_rank(flat_small):
    pdf = rank_frequency(flat_small)
    for region, g in pdf.groupby("region"):
        g = g.sort_values("rank")
        assert (np.diff(g["count"]) <= 0).all(), region


def test_rank_frequency_matches_oracle(flat_small, members_small):
    assert_equivalent(
        rank_frequency(flat_small),
        """
        WITH counts AS (
            SELECT region, ingredient_id, count(*) AS count
            FROM ex GROUP BY region, ingredient_id
        )
        SELECT region, ingredient_id, count,
               row_number() OVER w AS rank,
               count / max(count) OVER (PARTITION BY region) AS rel_freq,
               row_number() OVER w / count(*) OVER (PARTITION BY region) AS rel_rank
        FROM counts
        WINDOW w AS (PARTITION BY region ORDER BY count DESC, ingredient_id)
        """,
        ex=members_small,
    )


def test_rank_frequency_scaling_consistent_across_regions(flat_full):
    """Fig. 3b: normalized popularity curves collapse across cuisines.

    Check that at matched relative ranks the normalized frequencies of
    all regions lie within a tight band (consistent scaling).
    """
    pdf = rank_frequency(flat_full)
    grid = [0.1, 0.3, 0.5]
    for q in grid:
        vals = []
        for region, g in pdf.groupby("region"):
            g = g.sort_values("rel_rank")
            idx = (g["rel_rank"] - q).abs().idxmin()
            vals.append(g.loc[idx, "rel_freq"])
        vals = np.array(vals)
        assert vals.std() / vals.mean() < 0.8, (q, vals)
