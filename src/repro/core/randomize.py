"""The paper's four randomized-cuisine models (Methodology §B).

All models preserve the cuisine's exact ingredient set and its recipe
size distribution; they differ in how recipe ingredients are drawn:

* ``random``    — uniformly from the cuisine's ingredient set;
* ``frequency`` — with probability ∝ observed frequency of use;
* ``category``  — preserving the category composition of a (sampled)
  real recipe, ingredients uniform within each category;
* ``freq_cat``  — category composition preserved *and* ingredients
  frequency-weighted within each category.

Model inputs (pools, frequencies, sizes, per-recipe category
compositions) are derived from the corpus with Spark aggregations;
recipe generation itself is Spark-parallel ``mapInPandas`` over a
(region, model, batch) plan, using vectorized Gumbel top-k weighted
sampling without replacement (Efraimidis & Spirakis, IPL 2006).  Each
batch comes out as a (count × max size) member matrix padded with
``PAD_ID``, the layout :func:`repro.core.pairing.padded_overlap` scores.
Output is deterministic in (seed, region, model, batch start) regardless
of partitioning.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.core.pairing import PAD_ID
from repro.culinarydb.corpus import explode_corpus
from repro.flavordb.ingredients import CATEGORIES, ingredient_master

#: The four models, in the paper's order.
MODELS = ("random", "frequency", "category", "freq_cat")

RANDOM_SCHEMA = StructType(
    [
        StructField("recipe_id", LongType()),
        StructField("region", StringType()),
        StructField("n", IntegerType()),
        StructField("ingredients", ArrayType(LongType())),
    ]
)

_PLAN_SCHEMA = "region string, model string, start int, count int"


@dataclass
class RegionInputs:
    """Everything a model needs about one cuisine, all NumPy.

    ``pool``/``counts``/``cat_idx`` are aligned; ``sizes`` is one entry
    per real recipe; ``cat_comp`` is the (n_recipes × 21) matrix of real
    per-recipe category compositions.
    """

    code: str
    pool: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    cat_idx: np.ndarray
    cat_comp: np.ndarray


def region_model_inputs(
    spark: SparkSession, corpus: DataFrame, seed: int = 7
) -> dict[str, RegionInputs]:
    """Derive per-region model inputs from the corpus.

    Usage counts come from a distributed explode + groupBy; per-recipe
    category compositions are computed from the collected recipes (the
    corpus is the small side — ≤46k rows of short arrays).
    """
    usage = (
        explode_corpus(corpus)
        .groupBy("region", "ingredient_id")
        .count()
        .toPandas()
    )
    recipes = corpus.select("region", "n", "ingredients").toPandas()
    master = ingredient_master(seed)
    cat_of = master.set_index("ingredient_id")["category"].map(
        {c: k for k, c in enumerate(CATEGORIES)}
    )
    cat_arr = np.zeros(len(master) + 1, dtype=np.int64)
    cat_arr[master["ingredient_id"].to_numpy()] = cat_of.to_numpy()

    out: dict[str, RegionInputs] = {}
    for region, g in usage.groupby("region"):
        pool = g["ingredient_id"].to_numpy()
        counts = g["count"].to_numpy().astype(np.float64)
        rg = recipes[recipes["region"] == region]
        sizes = rg["n"].to_numpy().astype(np.int64)
        comp = np.zeros((len(rg), len(CATEGORIES)), dtype=np.int16)
        for row, ing in enumerate(rg["ingredients"]):
            np.add.at(comp[row], cat_arr[np.asarray(ing)], 1)
        out[region] = RegionInputs(
            code=region,
            pool=pool,
            counts=counts,
            sizes=sizes,
            cat_idx=cat_arr[pool],
            cat_comp=comp,
        )
    return out


def _beyond_size(ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``ids`` with every slot at or past its row's size set to ``PAD_ID``."""
    ids[np.arange(ids.shape[1]) >= sizes[:, None]] = PAD_ID
    return ids


def _uniform_or_freq_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """`random` / `frequency` model: one Gumbel top-k per recipe.

    Returns ``(sizes, ids)``: ids is (count × max size), each row's
    members in key order, then ``PAD_ID``.
    """
    sizes = rng.choice(inp.sizes, size=count)
    log_w = np.log(inp.counts) if weighted else np.zeros(len(inp.pool))
    keys = log_w[None, :] + rng.gumbel(size=(count, len(inp.pool)))
    order = np.argsort(-keys, axis=1)[:, : sizes.max()]
    return sizes, _beyond_size(inp.pool[order], sizes)


def _category_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """`category` / `freq_cat` model: preserve a real recipe's composition.

    Returns ``(sizes, ids)`` like :func:`_uniform_or_freq_batch`, each
    row's members grouped by category in category order.
    """
    templates = rng.integers(0, len(inp.cat_comp), size=count)
    comp = inp.cat_comp[templates]  # (count, 21)
    sizes = comp.sum(axis=1).astype(np.int64)
    blocks = []
    for c in range(comp.shape[1]):
        k_vec = comp[:, c]
        rows = np.nonzero(k_vec)[0]
        if len(rows) == 0:
            continue
        members = np.nonzero(inp.cat_idx == c)[0]
        log_w = (
            np.log(inp.counts[members]) if weighted else np.zeros(len(members))
        )
        keys = log_w[None, :] + rng.gumbel(size=(len(rows), len(members)))
        k = k_vec[rows]
        order = np.argsort(-keys, axis=1)[:, : k.max()]
        block = np.full((count, k.max()), PAD_ID, dtype=np.int64)
        block[rows] = _beyond_size(inp.pool[members[order]], k)
        blocks.append(block)
    ids = np.concatenate(blocks, axis=1)
    # A stable sort on "is padding" moves each row's members to its front
    # and keeps their category order.
    ids = np.take_along_axis(ids, np.argsort(ids == PAD_ID, axis=1, kind="stable"), axis=1)
    return sizes, ids[:, : sizes.max()]


def model_batch(
    inp: RegionInputs, model: str, start: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Recipes ``start`` to ``start + count`` of ``model`` for one cuisine.

    Returns ``(sizes, ids)``, ids (count × max size) padded with
    ``PAD_ID``.  The random stream is keyed on (seed, region, model,
    start) alone, so a batch is the same whichever task draws it.
    """
    rng = np.random.default_rng(
        [seed, zlib.crc32(inp.code.encode()), zlib.crc32(model.encode()), start]
    )
    if model in ("random", "frequency"):
        return _uniform_or_freq_batch(rng, inp, count, model == "frequency")
    return _category_batch(rng, inp, count, model == "freq_cat")


def batch_plan(
    spark: SparkSession,
    inputs: dict[str, RegionInputs],
    models: tuple[str, ...],
    n_rand: int,
    batch_size: int = 5000,
) -> DataFrame:
    """One row per (region, model, start, count) batch of ``n_rand`` recipes.

    Rows are spread round-robin over up to twice the default parallelism.
    """
    unknown = set(models) - set(MODELS)
    if unknown:
        raise ValueError(f"unknown model {sorted(unknown)}; expected one of {MODELS}")
    plan_rows = [
        (code, model, start, min(batch_size, n_rand - start))
        for code in sorted(inputs)
        for model in models
        for start in range(0, n_rand, batch_size)
    ]
    return spark.createDataFrame(plan_rows, _PLAN_SCHEMA).repartition(
        max(1, min(len(plan_rows), spark.sparkContext.defaultParallelism * 2))
    )


def random_recipes(
    spark: SparkSession,
    inputs: dict[str, RegionInputs],
    model: str,
    n_rand: int,
    seed: int = 17,
    batch_size: int = 5000,
) -> DataFrame:
    """``n_rand`` randomized recipes per region under ``model``.

    Same schema as the real corpus, so :func:`repro.core.pairing.
    recipe_scores_fast` scores both identically.  ``recipe_id`` is unique
    across regions: region k of ``sorted(inputs)`` holds ids k·n_rand to
    (k+1)·n_rand − 1.  Fig. 4 does not use this view: it scores the same
    :func:`model_batch` recipes where they are drawn
    (:func:`repro.core.zscore.model_moments`).
    """
    plan = batch_plan(spark, inputs, (model,), n_rand, batch_size)
    first_id = {code: k * n_rand for k, code in enumerate(sorted(inputs))}
    bc = spark.sparkContext.broadcast(inputs)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        inps = bc.value
        for pdf in batches:
            for code, _, start, count in pdf.itertuples(index=False):
                sizes, ids = model_batch(inps[code], model, start, count, seed)
                yield pd.DataFrame(
                    {
                        "recipe_id": first_id[code] + start + np.arange(count),
                        "region": code,
                        "n": sizes.astype(np.int32),
                        "ingredients": [row[:size] for row, size in zip(ids, sizes)],
                    }
                )

    return plan.mapInPandas(gen, RANDOM_SCHEMA)
