"""Job wiring: the ``jobs/t*.py`` entry points run end to end at small scale."""
import os
import sys
from collections import defaultdict

import numpy as np
import pytest

from repro.core.pairing import shared_matrix
from tests.conftest import SEED

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs"))

import t4_food_pairing  # noqa: E402
import t5_contributions  # noqa: E402

#: The scale of the ``corpus_small`` fixture, so T5's reference reuses it.
SCALE = 0.02


def _chi_by_pair_decomposition(recipes, matrix) -> dict:
    """χ per (region, ingredient), one recipe at a time in NumPy.

    Removing i from R leaves 2 (S_R − T_{R,i}) / ((n−1)(n−2)) for n ≥ 3
    and drops a 2-ingredient recipe.
    """
    chi = {}
    for region, g in recipes.groupby("region"):
        scores, removed = [], defaultdict(lambda: [0.0, 0])  # Σ(score − score'), drops
        for members in g["ingredients"]:
            members = np.asarray(members)
            n = len(members)
            block = matrix[np.ix_(members, members)]
            two_s = block.sum()  # 2 S_R
            score = two_s / (n * (n - 1))
            scores.append(score)
            for i, t in zip(members, block.sum(axis=1)):
                acc = removed[int(i)]
                acc[0] += score - ((two_s - 2 * t) / ((n - 1) * (n - 2)) if n >= 3 else 0.0)
                acc[1] += n == 2
        ns_c, total = np.mean(scores), np.sum(scores)
        for i, (delta, dropped) in removed.items():
            if len(scores) > dropped:
                chi[(region, i)] = 100 * (ns_c - (total - delta) / (len(scores) - dropped)) / ns_c
    return chi


def test_t5_run_top3_matches_pair_decomposition(spark, profiles, corpus_small):
    top = t5_contributions.run(spark, scale=SCALE, seed=SEED)
    corpus = corpus_small.toPandas()
    ref = _chi_by_pair_decomposition(
        corpus[corpus["region"] != "OTHER"], shared_matrix(spark, profiles)
    )
    assert sorted(top["region"].unique()) == sorted({r for r, _ in ref})
    assert top.groupby("region")["rank"].apply(list).map(lambda r: r == [1, 2, 3]).all()
    for row in top.itertuples():
        assert row.chi == pytest.approx(ref[(row.region, row.ingredient_id)], rel=1e-9)


def test_t4_run_finite_z_for_every_region_and_model(spark):
    table = t4_food_pairing.run(spark, scale=SCALE, seed=SEED, n_rand=200)
    assert table["region"].nunique() == len(table) == 23
    z = table[["z_real", "z_frequency", "z_category", "z_freq_cat"]].to_numpy(dtype=float)
    assert np.isfinite(z).all()
