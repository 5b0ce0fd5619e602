"""The benchmark's workloads: one pass of the jobs' entry points each, and
the checks that every pass's output is correct.

A pass calls the workload's ``jobs/t*.py`` ``run()`` functions and
returns their collected (pandas) results.  The checks compare those
results with independent references computed once per run, outside the
timed region:

* ``fig4_zscore`` — ``ns_real``/``sigma_real`` against a NumPy gather
  over ``flavordb.profiles.shared_matrix_numpy`` (profiles pooled in
  pandas, independently of the Spark join), plus structural
  invariants (every region × model present, Z finite);
* ``fig5_chi`` — the reported top-3 χ rows against a NumPy pair
  decomposition of the corpus;
* ``corpus_stats`` — Table 1, the Fig. 2 shares and the Fig. 3 size
  summary against DuckDB via ``repro.oracle.assert_equivalent``;
* at the jobs' default seed, all workloads also compare against
  ``reference_seed11.json``, recorded from the code the benchmark was
  defined on, within 1e-9 relative.

Imports ``jobs/`` modules, so ``jobs`` and ``src`` must be on the path.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

import t1_region_stats
import t2_category_heatmap
import t3_size_popularity
import t4_food_pairing
import t5_contributions
from repro.core.pairing import PAD_ID
from repro.culinarydb.corpus import build_corpus
from repro.flavordb.ingredients import ingredient_master
from repro.flavordb.profiles import basic_profiles, shared_matrix_numpy
from repro.oracle import assert_equivalent
from repro.regions import REGIONS

REFERENCE_SEED = 11
REFERENCE_FILE = os.path.join(os.path.dirname(__file__), "reference_seed11.json")
RTOL, ATOL = 1e-9, 1e-12
#: fig4 columns compared with the recorded reference.
FIG4_REFERENCE_COLS = ["ns_real", "sigma_real", "ns_random", "sigma_random",
                       "ns_frequency", "ns_category", "ns_freq_cat"]
PAPER_SIGNS = {r.code: r.pairing_sign for r in REGIONS}


@dataclass
class Workload:
    run_pass: Callable  # (spark, inputs, seed) -> collected outputs
    reference: Callable  # (spark, inputs, seed) -> reference data
    check: Callable  # (output, reference, inputs) -> list of problems
    paper_checks: Callable  # output -> {name: count}
    to_reference: Callable  # output -> JSON-able values for reference_seed11.json


def _close(a, b) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=RTOL, atol=ATOL))


def _corpus(spark, inputs, seed) -> pd.DataFrame:
    return build_corpus(spark, scale=inputs["scale"], seed=seed).toPandas()


def overlap_matrix() -> np.ndarray:
    """``shared_matrix_numpy`` over profiles pooled in pandas, not Spark.

    Compound ingredients take the union of their constituents' basic
    profiles, the pooling rule ``profiles_df`` applies with a Spark join.
    """
    master, basic = ingredient_master(), basic_profiles()
    parts = master[master["is_compound"]][["ingredient_id", "constituents"]].explode("constituents")
    parts["constituents"] = parts["constituents"].astype(np.int64)
    pooled = parts.merge(basic.rename(columns={"ingredient_id": "constituents"}), on="constituents")
    return shared_matrix_numpy(pd.concat([basic, pooled[["ingredient_id", "molecule_id"]]]))


def _padded(ingredients: pd.Series) -> np.ndarray:
    lists = [np.asarray(x, dtype=np.int64) for x in ingredients]
    out = np.full((len(lists), max(map(len, lists))), PAD_ID, dtype=np.int64)
    for row, ing in enumerate(lists):
        out[row, : len(ing)] = ing
    return out


def member_overlap(ingredients: pd.Series, matrix: np.ndarray, chunk: int = 4096):
    """Padded member ids and T_{R,i} (overlap of i with the rest of R)."""
    ids = _padded(ingredients)
    t = np.empty(ids.shape, dtype=np.int64)
    for lo in range(0, len(ids), chunk):
        block = ids[lo: lo + chunk]
        t[lo: lo + chunk] = matrix[block[:, :, None], block[:, None, :]].sum(axis=2)
    return ids, t


# --- fig4_zscore ---------------------------------------------------------

def fig4_pass(spark, inputs, seed):
    return t4_food_pairing.run(spark, inputs["scale"], seed, inputs["n_rand"])


def fig4_reference(spark, inputs, seed):
    corpus = _corpus(spark, inputs, seed)
    matrix = overlap_matrix()
    _, t = member_overlap(corpus["ingredients"], matrix)
    n = corpus["n"].to_numpy().astype(np.float64)
    score = t.sum(axis=1) / (n * (n - 1))
    per = pd.DataFrame({"region": corpus["region"], "score": score}).groupby("region")["score"]
    return pd.DataFrame({"ns": per.mean(), "sigma": per.std(ddof=0), "n": per.size()})


def fig4_check(table, ref, inputs):
    problems = []
    if sorted(table["region"]) != sorted(ref.index):
        return [f"regions {sorted(table['region'])} != {sorted(ref.index)}"]
    t = table.set_index("region").loc[ref.index]
    if not (t["n_recipes_real"].to_numpy() == ref["n"].to_numpy()).all():
        problems.append("n_recipes_real differs from the corpus")
    for col, ref_col in (("ns_real", "ns"), ("sigma_real", "sigma")):
        if not _close(t[col], ref[ref_col]):
            problems.append(f"{col} differs from the NumPy gather")
    zcols = [c for c in t.columns if c.startswith(("z_", "ns_"))]
    expected = {"z_real", "z_frequency", "z_category", "z_freq_cat"}
    if not expected <= set(zcols):
        problems.append(f"missing model columns: {sorted(expected - set(zcols))}")
    if not np.isfinite(t[zcols].to_numpy(dtype=float)).all():
        problems.append("non-finite N_s or Z")
    return problems


def fig4_paper(table):
    scored = table[table["region"].isin(PAPER_SIGNS)]
    return {"signs_match": int((np.sign(scored["z_real"]) == scored["region"].map(PAPER_SIGNS)).sum())}


def fig4_to_reference(table):
    return table.set_index("region")[FIG4_REFERENCE_COLS].to_dict(orient="index")


# --- fig5_chi ------------------------------------------------------------

def chi_numpy(corpus: pd.DataFrame, matrix: np.ndarray) -> pd.DataFrame:
    """χ for every (region, ingredient) by the pair decomposition.

    score_R = 2 S_R / (n(n−1)); removing i leaves 2 (S_R − T_{R,i}) /
    ((n−1)(n−2)) for n ≥ 3 and drops a 2-ingredient recipe.
    """
    corpus = corpus[corpus["region"] != "OTHER"].reset_index(drop=True)
    ids, t = member_overlap(corpus["ingredients"], matrix)
    n = corpus["n"].to_numpy().astype(np.float64)
    s = t.sum(axis=1) / 2.0
    score = 2.0 * s / (n * (n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        adj = np.where(n[:, None] >= 3, 2.0 * (s[:, None] - t) / ((n[:, None] - 1) * (n[:, None] - 2)), 0.0)
    real = ids != PAD_ID
    rows = np.nonzero(real)
    members = pd.DataFrame({
        "region": corpus["region"].to_numpy()[rows[0]],
        "ingredient_id": ids[rows],
        "score": score[rows[0]],
        "adj": adj[rows],
        "dropped": (n[rows[0]] == 2).astype(np.int64),
    })
    per = members.groupby(["region", "ingredient_id"]).sum()
    region = pd.DataFrame({"region": corpus["region"], "score": score}).groupby("region")["score"].agg(["sum", "size"])
    tot = region.loc[per.index.get_level_values("region")]
    ns_c = tot["sum"].to_numpy() / tot["size"].to_numpy()
    remaining = tot["size"].to_numpy() - per["dropped"].to_numpy()
    with np.errstate(divide="ignore", invalid="ignore"):
        ns_without = (tot["sum"].to_numpy() - per["score"].to_numpy() + per["adj"].to_numpy()) / remaining
        chi = np.where(remaining > 0, 100.0 * (ns_c - ns_without) / ns_c, np.nan)
    return pd.DataFrame({"chi": chi}, index=per.index).reset_index()


def fig5_pass(spark, inputs, seed):
    return t5_contributions.run(spark, inputs["scale"], seed)


def fig5_reference(spark, inputs, seed):
    corpus = _corpus(spark, inputs, seed)
    chi = chi_numpy(corpus, overlap_matrix()).dropna(subset=["chi"])
    top = {}
    for region, g in chi.groupby("region"):
        top[region] = np.sort(g["chi"].to_numpy())
        top[region] = top[region][:3] if PAPER_SIGNS.get(region, 1) < 0 else top[region][::-1][:3]
    return {"chi": chi.set_index(["region", "ingredient_id"])["chi"], "top": top}


def fig5_check(top, ref, inputs):
    if sorted(top["region"].unique()) != sorted(ref["top"]):
        return [f"regions {sorted(top['region'].unique())} != {sorted(ref['top'])}"]
    problems = []
    for region, g in top.groupby("region"):
        g = g.sort_values("rank")
        if list(g["rank"]) != list(range(1, len(ref["top"][region]) + 1)):
            problems.append(f"{region}: ranks {list(g['rank'])}")
            continue
        # Ties may order ingredients either way: check each row's own χ
        # and that the χ sequence is the reference's top 3.
        keys = list(zip(g["region"], g["ingredient_id"]))
        if not all(k in ref["chi"].index for k in keys) or not _close(g["chi"], ref["chi"].loc[keys]):
            problems.append(f"{region}: chi differs from the NumPy decomposition")
        elif not _close(g["chi"], ref["top"][region]):
            problems.append(f"{region}: not the top-3 chi")
    return problems


def fig5_paper(top):
    return {}


def fig5_to_reference(top):
    return [[r.region, int(r.rank), int(r.ingredient_id), float(r.chi)] for r in top.itertuples()]


# --- corpus_stats --------------------------------------------------------

class _Collected:
    """A collected result in the shape ``assert_equivalent`` expects."""

    def __init__(self, pdf: pd.DataFrame):
        self.pdf = pdf

    def toPandas(self) -> pd.DataFrame:  # noqa: N802 — Spark's name
        return self.pdf


def corpus_pass(spark, inputs, seed):
    scale = inputs["scale"]
    return (t1_region_stats.run(spark, scale, seed),
            t2_category_heatmap.run(spark, scale, seed),
            t3_size_popularity.run(spark, scale, seed)[0])


def corpus_reference(spark, inputs, seed):
    corpus = _corpus(spark, inputs, seed)
    members = corpus.explode("ingredients").rename(columns={"ingredients": "ingredient_id"})
    members["ingredient_id"] = members["ingredient_id"].astype(np.int64)
    return {"members": members, "corpus": corpus.drop(columns="ingredients"),
            "cats": ingredient_master()[["ingredient_id", "category"]]}


_TABLE1_SQL = """
SELECT region, COUNT(DISTINCT recipe_id) AS recipes,
       COUNT(DISTINCT ingredient_id) AS ingredients
FROM members WHERE region <> 'OTHER' GROUP BY region"""
_FIG2_SQL = """
WITH usage AS (SELECT region, category FROM members JOIN cats USING (ingredient_id)),
per AS (SELECT region, category, COUNT(*) AS count FROM usage GROUP BY region, category),
world AS (SELECT 'WORLD' AS region, category, COUNT(*) AS count FROM usage GROUP BY category)
SELECT region, category, count, count / SUM(count) OVER (PARTITION BY region) AS share
FROM (SELECT * FROM per UNION ALL SELECT * FROM world)"""
_FIG3_SQL = """
SELECT region, AVG(n) AS mean_n, quantile_cont(n, 0.99) AS p99_n,
       MAX(n) AS max_n, COUNT(*) AS recipes
FROM corpus GROUP BY region"""


def corpus_check(out, ref, inputs):
    t1, t2, sizes = out
    problems = []
    for label, got, sql in (
        ("Table 1", t1[["region", "recipes", "ingredients"]].astype({"recipes": "int64", "ingredients": "int64"}), _TABLE1_SQL),
        ("Fig. 2", t2, _FIG2_SQL),
        ("Fig. 3", sizes, _FIG3_SQL),
    ):
        try:
            assert_equivalent(_Collected(got.reset_index(drop=True)), sql, **ref)
        except AssertionError as e:
            problems.append(f"{label} differs from DuckDB: {str(e)[:200]}")
    return problems


def corpus_paper(out):
    t1 = out[0]
    return {"table1_match": int((t1["recipes_match"] & t1["ingredients_match"]).sum())}


def corpus_to_reference(out):
    t1, t2, sizes = out
    return {
        "table1": t1[["region", "recipes", "ingredients"]].astype({"recipes": "int64", "ingredients": "int64"}).values.tolist(),
        "fig2": t2.sort_values(["region", "category"])[["region", "category", "share"]].values.tolist(),
        "fig3": sizes[["region", "mean_n", "p99_n"]].values.tolist(),
    }


WORKLOADS = {
    "fig4_zscore": Workload(fig4_pass, fig4_reference, fig4_check, fig4_paper, fig4_to_reference),
    "fig5_chi": Workload(fig5_pass, fig5_reference, fig5_check, fig5_paper, fig5_to_reference),
    "corpus_stats": Workload(corpus_pass, corpus_reference, corpus_check, corpus_paper, corpus_to_reference),
}


def _same(got, want) -> bool:
    """Recorded values equal: strings exactly, numbers within 1e-9 relative."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, str):
        return got == want
    return _close(got, want)


def recorded_reference(name: str, inputs: dict):
    """Values recorded for ``name`` at ``inputs`` and the default seed, if any."""
    if not os.path.exists(REFERENCE_FILE):
        return None
    with open(REFERENCE_FILE) as f:
        entry = json.load(f).get(name)
    if entry is None or entry["inputs"] != inputs:
        return None
    return entry["values"]


def check_recorded(name: str, output, recorded) -> list[str]:
    got = json.loads(json.dumps(WORKLOADS[name].to_reference(output)))
    return [] if _same(got, recorded) else ["differs from the values recorded at seed 11"]
