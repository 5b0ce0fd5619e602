"""Cuisine food-pairing Z-scores against the Random Cuisine (Fig. 4).

For each region the paper computes

    Z = sqrt(n_rand) · (N_s^C − N_s^rand) / σ_rand

with n_rand = 100,000 randomized recipes.  The same statistic is
computed for each of the other randomized models (frequency, category,
frequency+category) to ask which factors *reproduce* the real cuisine's
deviation: a model whose Z matches the real cuisine's Z explains the
pattern; one near 0 does not.  The real cuisines and all four models
are scored in one fused stage, :func:`model_moments`, from the model
inputs of :func:`repro.core.randomize.region_model_inputs`; no corpus
DataFrame is built, and every batch, real or random, reaches the kernel
in the corpus's flat (sizes, members) layout.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pairing import flat_overlap
from repro.core.randomize import (
    MODELS,
    REAL,
    RegionInputs,
    batch_plan,
    model_batch,
)

_MOMENTS_SCHEMA = "region string, model string, start int, count int, mean double, m2 double"


def _deal(plan: list[tuple], slots: int) -> list[list[tuple]]:
    """``plan`` dealt round-robin to ``slots`` lists."""
    return [plan[k::slots] for k in range(slots)]


def model_moments(
    spark: SparkSession,
    plan: list[tuple],
    inputs: dict[str, RegionInputs],
    matrix: np.ndarray,
    seed: int,
) -> pd.DataFrame:
    """(region, model, ns, sigma, n_recipes) of the planned cuisines.

    ``plan`` is a :func:`repro.core.randomize.batch_plan`, dealt
    round-robin to one slot per core.  One ``mapInPandas`` over a
    ``range`` of one row per slot (one wave of tasks, no shuffle) takes
    each batch from :func:`repro.core.randomize.model_batch`, scores it
    with :func:`repro.core.pairing.flat_overlap` (so sizes that do not sum
    to the members fail its checks), sums T per recipe and emits only its
    (count, mean, M2).  :func:`merge_moments`
    combines the batches on the driver; the broadcasts are destroyed.
    """
    dealt = _deal(plan, spark.sparkContext.defaultParallelism)
    bc_inputs = spark.sparkContext.broadcast(inputs)
    bc_matrix = spark.sparkContext.broadcast(matrix)

    def moments(slots: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        inps, s = bc_inputs.value, bc_matrix.value
        rows = []
        for code, model, start, count in (b for pdf in slots for k in pdf["id"] for b in dealt[k]):
            sizes, members = model_batch(inps[code], model, start, count, seed)
            t = flat_overlap(
                members, sizes, lambda row: f"region {code}, model {model}, recipe {start + row}", s
            )
            score = np.add.reduceat(t, np.cumsum(sizes) - sizes) / (sizes * (sizes - 1.0))
            mean = score.mean()
            rows.append((code, model, start, count, mean, ((score - mean) ** 2).sum()))
        yield pd.DataFrame(rows, columns=["region", "model", "start", "count", "mean", "m2"])

    try:
        wave = spark.range(0, len(dealt), 1, len(dealt)).mapInPandas(moments, _MOMENTS_SCHEMA)
        return merge_moments(wave.toPandas())
    finally:
        bc_inputs.destroy()
        bc_matrix.destroy()


def merge_moments(batches: pd.DataFrame) -> pd.DataFrame:
    """Merge per-batch (count, mean, m2) rows into (region, model, ns, sigma, n_recipes).

    Each (region, model) folds its batches in ``start`` order with the
    pairwise update of Chan, Golub & LeVeque (1979), so the result does
    not depend on the order of the rows.  All groups fold at once, one
    batch position at a time.  ``sigma`` is the population standard
    deviation, sqrt(M2 / count).
    """
    b = batches.sort_values(["region", "model", "start"])
    first = ~b.duplicated(["region", "model"]).to_numpy()
    group = np.cumsum(first) - 1
    position = np.arange(len(b)) - np.flatnonzero(first)[group]
    count, batch_mean, batch_m2 = (b[c].to_numpy(np.float64) for c in ("count", "mean", "m2"))
    n, mean, m2 = np.zeros((3, first.sum()))
    for p in range(position.max(initial=-1) + 1):
        at = position == p
        g, c = group[at], count[at]
        total = n[g] + c
        delta = batch_mean[at] - mean[g]
        mean[g] += delta * c / total
        m2[g] += batch_m2[at] + delta * delta * n[g] * c / total
        n[g] = total
    out = b.loc[first, ["region", "model"]].reset_index(drop=True)
    out["ns"], out["sigma"], out["n_recipes"] = mean, np.sqrt(m2 / n), n.astype(np.int64)
    return out


def food_pairing_table(
    spark: SparkSession,
    inputs: dict[str, RegionInputs],
    matrix: np.ndarray,
    *,
    n_rand: int = 100_000,
    seed: int = 17,
) -> pd.DataFrame:
    """The Fig. 4 experiment as a table.

    Columns: region, ns_real, sigma_real, n_recipes_real, ns_random,
    sigma_random, z_real, then ns_<model> / z_<model> for every
    non-random model, and ``pairing`` ('uniform' for Z > 0,
    'contrasting' for Z < 0).

    ``inputs`` are :func:`repro.core.randomize.region_model_inputs`, one
    row of the table per region; ``matrix`` is the broadcast overlap
    matrix from :func:`repro.core.pairing.shared_matrix`.  The real
    cuisines and all models' random recipes are scored in one
    :func:`model_moments` pass, the real recipes as the plan's ``REAL``
    batches.
    """
    plan = batch_plan(inputs, (REAL, *MODELS), n_rand)
    wide = model_moments(spark, plan, inputs, matrix, seed).pivot(index="region", columns="model")
    ns, sigma = wide["ns"], wide["sigma"]

    def z(model: str) -> pd.Series:
        return np.sqrt(n_rand) * (ns[model] - ns["random"]) / sigma["random"]

    out = pd.DataFrame({
        "ns_real": ns[REAL],
        "sigma_real": sigma[REAL],
        "n_recipes_real": wide["n_recipes"][REAL],
        "ns_random": ns["random"],
        "sigma_random": sigma["random"],
        "z_real": z(REAL),
    })
    for model in MODELS[1:]:
        out[f"ns_{model}"] = ns[model]
        out[f"z_{model}"] = z(model)
    out["pairing"] = np.where(out["z_real"] > 0, "uniform", "contrasting")
    return out.reset_index()
