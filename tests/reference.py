"""Catalyst join forms of the overlap table and of N_s^R, per-recipe
DataFrame forms of N_s^R, N_s^C and the random recipes, the loop forms
of the randomized-cuisine generators, of the corpus coverage swaps and
of the Fig. 4 batch-moment merge, the Gumbel form of the top-k sampler,
the pandas form of the compound-profile pooling, and the nested (one
array per recipe) frame of the flat driver corpus with its exploded form.

Reference implementations only: the package builds the overlap matrix
with :func:`repro.flavordb.profiles.shared_matrix_numpy` and scores
recipes in the flat corpus layout (sizes, and every recipe's members
concatenated) with :func:`repro.core.pairing.flat_overlap`, in one pass
per figure.  The tests check these joins against the DuckDB oracle and
the package against them.
"""
from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import ArrayType, DoubleType, IntegerType, LongType, StringType, StructField, StructType

from repro.core.pairing import flat_overlap
from repro.core.randomize import RegionInputs, batch_plan, model_batch
from repro.culinarydb.corpus import FlatCorpus
from repro.culinarydb.generator import RegionSpec
from repro.flavordb.ingredients import ingredient_master
from repro.flavordb.profiles import basic_profiles

RANDOM_SCHEMA = StructType(
    [
        StructField("recipe_id", LongType()),
        StructField("region", StringType()),
        StructField("n", IntegerType()),
        StructField("ingredients", ArrayType(LongType())),
    ]
)


def explode_corpus(recipes: DataFrame) -> DataFrame:
    """Long format: one (recipe_id, region, n, ingredient_id) row per member."""
    return recipes.select(
        "recipe_id", "region", "n", F.explode("ingredients").alias("ingredient_id")
    )


def shared_pairs(profiles: DataFrame) -> DataFrame:
    """|F_i ∩ F_j| for every ingredient pair i < j with nonzero overlap.

    Columns: ``i``, ``j``, ``shared``.  Pairs that share no molecule are
    absent (consumers must treat missing as 0).
    """
    a = profiles.select(
        F.col("ingredient_id").alias("i"), F.col("molecule_id").alias("m")
    )
    b = profiles.select(
        F.col("ingredient_id").alias("j"), F.col("molecule_id").alias("m")
    )
    return (
        a.join(b, on="m")
        .where(F.col("i") < F.col("j"))
        .groupBy("i", "j")
        .agg(F.count("*").alias("shared"))
    )


def recipe_scores_join(exploded: DataFrame, shared: DataFrame) -> DataFrame:
    """N_s^R per recipe via DataFrame joins.

    ``exploded`` has (recipe_id, region, n, ingredient_id); ``shared``
    comes from :func:`shared_pairs`.  Returns (recipe_id, region, n,
    score).  Zero-overlap pairs contribute 0 via the left join; recipes
    whose pairs all have zero overlap still appear (score 0) because the
    pair self-join always produces n(n-1)/2 rows per recipe.
    """
    left = exploded.select(
        "recipe_id", "region", "n", F.col("ingredient_id").alias("i")
    )
    right = exploded.select("recipe_id", F.col("ingredient_id").alias("j"))
    pairs = left.join(right, on="recipe_id").where(F.col("i") < F.col("j"))
    scored = pairs.join(shared, on=["i", "j"], how="left").withColumn(
        "shared", F.coalesce(F.col("shared"), F.lit(0))
    )
    return scored.groupBy("recipe_id", "region", "n").agg(
        (F.sum("shared") * 2.0 / (F.first("n") * (F.first("n") - 1))).alias("score")
    )


def gumbel_topk_rows(
    rng: np.random.Generator, log_w: np.ndarray, sizes: np.ndarray
) -> list[np.ndarray]:
    """Gumbel form of :func:`repro.culinarydb.generator.topk_rows`.

    Row i picks ``sizes[i]`` distinct indices from ``len(log_w)``
    candidates with probability ∝ exp(log_w), via the Gumbel top-k trick
    (argsort of log-weights + Gumbel noise), fully vectorized.
    """
    n, p = len(sizes), len(log_w)
    keys = log_w[None, :] + rng.gumbel(size=(n, p))
    order = np.argsort(-keys, axis=1)
    return [order[i, : sizes[i]] for i in range(n)]


def model_batch_loop(
    inp: RegionInputs, model: str, start: int, count: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(sizes, one member array per recipe) from the same random stream
    as :func:`repro.core.randomize.model_batch`, recipe by recipe."""
    rng = np.random.default_rng(
        [seed, zlib.crc32(inp.code.encode()), zlib.crc32(model.encode()), start]
    )
    weighted = model in ("frequency", "freq_cat")
    if model in ("random", "frequency"):
        sizes = rng.choice(inp.sizes, size=count)
        log_w = np.log(inp.counts) if weighted else np.zeros(len(inp.pool))
        keys = log_w[None, :] + rng.gumbel(size=(count, len(inp.pool)))
        order = np.argsort(-keys, axis=1)
        return sizes, [inp.pool[order[i, : sizes[i]]] for i in range(count)]
    templates = rng.integers(0, len(inp.cat_comp), size=count)
    comp = inp.cat_comp[templates]
    sizes = comp.sum(axis=1).astype(np.int64)
    picks: list[list[np.ndarray]] = [[] for _ in range(count)]
    for c in range(comp.shape[1]):
        k_vec = comp[:, c]
        rows = np.nonzero(k_vec)[0]
        if len(rows) == 0:
            continue
        members = np.nonzero(inp.cat_idx == c)[0]
        log_w = np.log(inp.counts[members]) if weighted else np.zeros(len(members))
        keys = log_w[None, :] + rng.gumbel(size=(len(rows), len(members)))
        order = np.argsort(-keys, axis=1)
        for r_i, row in enumerate(rows):
            picks[row].append(inp.pool[members[order[r_i, : k_vec[row]]]])
    return sizes, [np.concatenate(p) for p in picks]


def recipe_scores_fast(recipes: DataFrame, matrix: np.ndarray) -> DataFrame:
    """N_s^R per recipe via the broadcast overlap matrix.

    ``recipes`` must carry ``recipe_id``, ``n`` and ``ingredients``; output is
    the input schema plus a ``score`` column.  The matrix is shipped with
    ``SparkContext.broadcast`` (one copy per executor, not per task) and
    released on return: see :func:`_release_after_run`.
    """
    spark = recipes.sparkSession
    bc = spark.sparkContext.broadcast(matrix)
    # StructType.add mutates in place — copy the field list instead of
    # appending to the input DataFrame's live schema object.
    out_schema = StructType(
        list(recipes.schema.fields) + [StructField("score", DoubleType())]
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        s = bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            members = np.concatenate(pdf["ingredients"].to_list())
            sizes, recipe_ids = pdf["n"].to_numpy(), pdf["recipe_id"].to_numpy()
            t = flat_overlap(members, sizes, lambda row: f"recipe {recipe_ids[row]}", s)
            yield pdf.assign(score=np.add.reduceat(t, np.cumsum(sizes) - sizes) / (sizes * (sizes - 1.0)))

    return _release_after_run(recipes.mapInPandas(run, out_schema), bc)


def cuisine_scores(recipe_scores: DataFrame) -> DataFrame:
    """Per-region N_s^C, recipe-score standard deviation and recipe count."""
    return recipe_scores.groupBy("region").agg(
        F.avg("score").alias("ns"),
        F.stddev_pop("score").alias("sigma"),
        F.count("*").alias("n_recipes"),
    )


def random_recipes(
    spark: SparkSession,
    inputs: dict[str, RegionInputs],
    model: str,
    n_rand: int,
    seed: int = 17,
) -> DataFrame:
    """``n_rand`` randomized recipes per region under ``model``.

    Same schema as the real corpus, so :func:`recipe_scores_fast` scores
    both identically.  ``recipe_id`` is unique
    across regions: region k of ``sorted(inputs)`` holds ids k·n_rand to
    (k+1)·n_rand − 1.  The broadcast inputs are released on return: see
    :func:`_release_after_run`.
    """
    plan = spark.createDataFrame(
        batch_plan(inputs, (model,), n_rand), "region string, model string, start int, count int"
    )
    first_id = {code: k * n_rand for k, code in enumerate(sorted(inputs))}
    bc = spark.sparkContext.broadcast(inputs)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        inps = bc.value
        for pdf in batches:
            for code, _, start, count in pdf.itertuples(index=False):
                sizes, members = model_batch(inps[code], model, start, count, seed)
                yield pd.DataFrame(
                    {
                        "recipe_id": first_id[code] + start + np.arange(count),
                        "region": code,
                        "n": sizes.astype(np.int32),
                        "ingredients": np.split(members, np.cumsum(sizes)[:-1]),
                    }
                )

    return _release_after_run(plan.mapInPandas(gen, RANDOM_SCHEMA), bc)


def _release_after_run(df: DataFrame, bc: Broadcast) -> DataFrame:
    """``df`` computed once into a local checkpoint, then ``bc`` destroyed.

    A broadcast keeps its pickle in the context's temp dir until it is
    destroyed, and a lazy result would read ``bc`` again at each action.
    The checkpoint cuts the lineage, so later actions never need it.
    """
    try:
        return df.localCheckpoint()
    finally:
        bc.destroy()


def coverage_fixes_loop(spec: RegionSpec, raw: list[np.ndarray]) -> dict[int, list[int]]:
    """Loop form of one region's coverage swaps: ``{local_idx: members}``.

    Counts usage in a dict, deals the pool members that ``raw`` never uses
    round-robin over the recipes, and swaps each in for the member with
    the largest ``(count, id)`` among those used at least twice and not
    swapped in before.
    """
    counts: dict[int, int] = {}
    for recipe in raw:
        for x in recipe.tolist():
            counts[x] = counts.get(x, 0) + 1
    missing = [i for i in spec.pool.tolist() if i not in counts]
    fixes: dict[int, list[int]] = {}
    replaced: set[int] = set()
    for k, ing in enumerate(missing):
        members = fixes.setdefault(k % spec.n_recipes, raw[k % spec.n_recipes].tolist())
        victim = max((counts[x], x) for x in members if x not in replaced and counts.get(x, 0) >= 2)[1]
        members[members.index(victim)] = ing
        replaced.add(ing)
    return fixes


def merge_moments_loop(batches: pd.DataFrame) -> pd.DataFrame:
    """Loop form of :func:`repro.core.zscore.merge_moments`: each (region,
    model) group folds its batches one row at a time, in ``start`` order."""
    out = []
    for (region, model), g in batches.sort_values("start").groupby(["region", "model"]):
        n = mean = m2 = 0.0
        for count, batch_mean, batch_m2 in g[["count", "mean", "m2"]].itertuples(index=False):
            total = n + count
            delta = batch_mean - mean
            mean += delta * count / total
            m2 += batch_m2 + delta * delta * n * count / total
            n = total
        out.append((region, model, mean, np.sqrt(m2 / n), int(n)))
    return pd.DataFrame(out, columns=["region", "model", "ns", "sigma", "n_recipes"])


def profiles_pandas() -> pd.DataFrame:
    """Pandas form of :func:`repro.flavordb.profiles.profiles`: the basic
    profiles, then each compound's constituents exploded and merged with
    their basic rows, duplicates dropped."""
    master, basic = ingredient_master(), basic_profiles()
    parts = master.loc[master["is_compound"], ["ingredient_id", "constituents"]]
    parts = parts.explode("constituents").astype({"constituents": np.int64})
    pooled = parts.merge(basic.rename(columns={"ingredient_id": "constituents"}), on="constituents")
    return pd.concat([basic, pooled[["ingredient_id", "molecule_id"]]]).drop_duplicates(ignore_index=True)


def nested_corpus(corpus: FlatCorpus) -> pd.DataFrame:
    """``corpus`` as a pandas frame of the corpus schema, one row per
    recipe; each ``ingredients`` array is a view into its members."""
    return pd.DataFrame(
        {
            "recipe_id": corpus.recipe_id,
            "region": corpus.region,
            "n": corpus.n.astype(np.int32),
            "ingredients": np.split(corpus.members, corpus.offsets[1:-1]),
        }
    )
