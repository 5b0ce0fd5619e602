"""The paper's four randomized-cuisine models (Methodology §B).

All models preserve the cuisine's exact ingredient set and its recipe
size distribution; they differ in how recipe ingredients are drawn:

* ``random``    — uniformly from the cuisine's ingredient set;
* ``frequency`` — with probability ∝ observed frequency of use;
* ``category``  — preserving the category composition of a (sampled)
  real recipe, ingredients uniform within each category;
* ``freq_cat``  — category composition preserved *and* ingredients
  frequency-weighted within each category.

Model inputs (pools, frequencies, sizes, the real recipes) come from the
flat driver corpus; only the pool order and its usage counts come from a
Spark aggregation, one job over :func:`repro.culinarydb.corpus.corpus_frame`.
:func:`batch_plan` lists, on the driver, (region, model, batch) rows for
the models and for ``REAL``, the cuisine's own recipes.  Random batches
draw with the corpus's sampler,
:func:`repro.culinarydb.generator.topk_rows`: the Gumbel top-k orders of
the same uniform draws, ranked as Exp(1)/frequency keys (Efraimidis &
Spirakis, IPL 2006), or as the draws themselves when uniform.  Each
batch is flat like the corpus (each recipe's size, and the members of
every recipe concatenated), the layout
:func:`repro.core.pairing.flat_overlap` scores, and depends on (seed,
region, model, batch start) and the inputs alone.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.culinarydb.corpus import corpus_frame, flat_corpus
from repro.culinarydb.generator import region_specs, topk_rows
from repro.flavordb.ingredients import CATEGORIES, ingredient_master

#: The four models, in the paper's order.
MODELS = ("random", "frequency", "category", "freq_cat")

#: The real cuisine, planned and scored like a model: its own recipes.
REAL = "real"

#: Recipes per (region, model) batch of the plan.
BATCH_SIZE = 5000


@dataclass
class RegionInputs:
    """Everything a model needs about one cuisine, all NumPy.

    ``pool``/``counts``/``cat_idx`` are aligned; ``sizes`` and
    ``cat_comp`` have one row per real recipe: its size ``n`` and its
    (× 21) category composition, and ``members`` holds every real
    recipe's members concatenated in the same order.
    """

    code: str
    pool: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    members: np.ndarray
    cat_idx: np.ndarray
    cat_comp: np.ndarray


def region_model_inputs(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 11
) -> dict[str, RegionInputs]:
    """Per-region model inputs of the corpus at ``scale`` and ``seed``.

    The corpus is generated once on the driver (:func:`flat_corpus`), and
    ``sizes``, ``members`` and ``cat_comp`` take each region's recipes in
    ``recipe_id`` order.  ``pool`` and ``counts`` come from one Spark job:
    :func:`repro.culinarydb.corpus.corpus_frame`, the layout of
    :func:`repro.culinarydb.corpus.build_corpus`, emits the recipes from a
    broadcast of the flat corpus, and an ``explode`` → ``groupBy`` counts
    their members.  ``pool`` takes the aggregation's row order, so it can
    change with the shuffle partitioning; the broadcast is destroyed on
    return.
    """
    corpus = flat_corpus(scale, seed)
    bc = spark.sparkContext.broadcast((corpus.n, corpus.members))
    try:
        usage = (
            corpus_frame(spark, region_specs(scale, seed), bc)
            .selectExpr("region", "explode(ingredients) AS ingredient_id")
            .groupBy("region", "ingredient_id")
            .count()
            .toPandas()
        )
    finally:
        bc.destroy()
    master = ingredient_master()
    cat_of = master.set_index("ingredient_id")["category"].map(
        {c: k for k, c in enumerate(CATEGORIES)}
    )
    cat_arr = np.zeros(len(master) + 1, dtype=np.int64)
    cat_arr[master["ingredient_id"].to_numpy()] = cat_of.to_numpy()

    out: dict[str, RegionInputs] = {}
    for region, g in usage.groupby("region"):
        pool = g["ingredient_id"].to_numpy()
        rc = corpus.take(corpus.region == region)
        recipe = np.repeat(np.arange(len(rc.n)), rc.n)
        comp = np.bincount(
            recipe * len(CATEGORIES) + cat_arr[rc.members], minlength=len(rc.n) * len(CATEGORIES)
        ).reshape(len(rc.n), len(CATEGORIES))
        out[region] = RegionInputs(
            code=region,
            pool=pool,
            counts=g["count"].to_numpy().astype(np.float64),
            sizes=rc.n,
            members=rc.members,
            cat_idx=cat_arr[pool],
            cat_comp=comp.astype(np.int16),
        )
    return out


def _uniform_or_freq_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """`random` / `frequency` model: one top-k draw over the pool per recipe.

    Returns ``(sizes, members)``, each recipe's members in key order.
    """
    sizes = rng.choice(inp.sizes, size=count)
    order = topk_rows(rng, inp.counts if weighted else None, count, len(inp.pool), sizes.max())
    return sizes, inp.pool[order][np.arange(order.shape[1]) < sizes[:, None]]


def _category_batch(
    rng: np.random.Generator, inp: RegionInputs, count: int, weighted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """`category` / `freq_cat` model: preserve a real recipe's composition.

    Returns ``(sizes, members)`` like :func:`_uniform_or_freq_batch`,
    each recipe's members grouped by category in category order.
    """
    templates = rng.integers(0, len(inp.cat_comp), size=count)
    comp = inp.cat_comp[templates]  # (count, 21)
    sizes = comp.sum(axis=1).astype(np.int64)
    picks, owners = [], []
    for c in range(comp.shape[1]):
        k_vec = comp[:, c]
        rows = np.nonzero(k_vec)[0]
        if len(rows) == 0:
            continue
        members = np.nonzero(inp.cat_idx == c)[0]
        k = k_vec[rows]
        order = topk_rows(
            rng, inp.counts[members] if weighted else None, len(rows), len(members), k.max()
        )
        picks.append(inp.pool[members[order[np.arange(order.shape[1]) < k[:, None]]]])
        owners.append(np.repeat(rows, k))
    # A stable sort by recipe keeps each recipe's picks in category order.
    return sizes, np.concatenate(picks)[np.argsort(np.concatenate(owners), kind="stable")]


def model_batch(
    inp: RegionInputs, model: str, start: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Recipes ``start`` to ``start + count`` of ``model`` for one cuisine.

    Returns ``(sizes, members)``, every recipe's members concatenated.
    For ``REAL`` these are the cuisine's own recipes.  The random stream
    is keyed on (seed, region, model, start) alone, so a batch is the
    same whichever task draws it.
    """
    if model == REAL:
        lo, hi = inp.sizes[:start].sum(), inp.sizes[:start + count].sum()
        return inp.sizes[start:start + count], inp.members[lo:hi]
    rng = np.random.default_rng(
        [seed, zlib.crc32(inp.code.encode()), zlib.crc32(model.encode()), start]
    )
    if model in ("random", "frequency"):
        return _uniform_or_freq_batch(rng, inp, count, model == "frequency")
    return _category_batch(rng, inp, count, model == "freq_cat")


def batch_plan(
    inputs: dict[str, RegionInputs], models: tuple[str, ...], n_rand: int
) -> list[tuple[str, str, int, int]]:
    """One (region, model, start, count) row per batch of ≤ ``BATCH_SIZE``.

    Each randomized model gets ``n_rand`` recipes per region; ``REAL``
    gets the region's own recipes.  Rows come in (region, model, start)
    order; :func:`repro.core.zscore.model_moments` deals them to its tasks.
    """
    unknown = set(models) - {REAL, *MODELS}
    if unknown:
        raise ValueError(f"unknown model {sorted(unknown)}; expected {REAL!r} or one of {MODELS}")
    return [
        (code, model, start, min(BATCH_SIZE, total - start))
        for code, inp in sorted(inputs.items())
        for model in models
        for total in [len(inp.sizes) if model == REAL else n_rand]
        for start in range(0, total, BATCH_SIZE)
    ]
