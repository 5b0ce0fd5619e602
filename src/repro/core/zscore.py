"""Cuisine food-pairing Z-scores against the Random Cuisine (Fig. 4).

For each region the paper computes

    Z = sqrt(n_rand) · (N_s^C − N_s^rand) / σ_rand

with n_rand = 100,000 randomized recipes.  The same statistic is
computed for each of the other randomized models (frequency, category,
frequency+category) to ask which factors *reproduce* the real cuisine's
deviation: a model whose Z matches the real cuisine's Z explains the
pattern; one near 0 does not.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.pairing import cuisine_scores, padded_overlap, recipe_scores_fast
from repro.core.randomize import (
    MODELS,
    RegionInputs,
    batch_plan,
    model_batch,
    region_model_inputs,
)

_MOMENTS_SCHEMA = "region string, model string, start int, count int, mean double, m2 double"


def model_moments(
    plan: DataFrame,
    inputs: dict[str, RegionInputs],
    matrix: np.ndarray,
    seed: int,
) -> pd.DataFrame:
    """(region, model, ns, sigma, n_recipes) of the randomized cuisines.

    ``plan`` is a :func:`repro.core.randomize.batch_plan`.  One
    ``mapInPandas`` pass draws each batch with
    :func:`repro.core.randomize.model_batch`, scores it with
    :func:`repro.core.pairing.padded_overlap` (which checks every recipe)
    and emits only its (count, mean, M2); no random recipe leaves the
    Python worker.  :func:`merge_moments` combines the batches on the
    driver.
    """
    spark = plan.sparkSession
    bc_inputs = spark.sparkContext.broadcast(inputs)
    bc_matrix = spark.sparkContext.broadcast(matrix)

    def moments(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        inps, s = bc_inputs.value, bc_matrix.value
        for pdf in batches:
            rows = []
            for code, model, start, count in pdf.itertuples(index=False):
                sizes, ids = model_batch(inps[code], model, start, count, seed)
                t = padded_overlap(
                    ids, sizes, sizes,
                    lambda row: f"region {code}, model {model}, recipe {start + row}", s,
                )
                score = t.sum(axis=1) / (sizes * (sizes - 1.0))
                mean = score.mean()
                rows.append((code, model, start, count, mean, ((score - mean) ** 2).sum()))
            yield pd.DataFrame(rows, columns=["region", "model", "start", "count", "mean", "m2"])

    return merge_moments(plan.mapInPandas(moments, _MOMENTS_SCHEMA).toPandas())


def merge_moments(batches: pd.DataFrame) -> pd.DataFrame:
    """Merge per-batch (count, mean, m2) rows into (region, model, ns, sigma, n_recipes).

    Each (region, model) folds its batches in ``start`` order with the
    pairwise update of Chan, Golub & LeVeque (1979), so the result does
    not depend on the order of the rows.  ``sigma`` is the population
    standard deviation, sqrt(M2 / count).
    """
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


def food_pairing_table(
    spark: SparkSession,
    corpus: DataFrame,
    matrix: np.ndarray,
    *,
    n_rand: int = 100_000,
    seed: int = 17,
    models: tuple[str, ...] = MODELS,
    inputs: dict[str, RegionInputs] | None = None,
) -> pd.DataFrame:
    """The Fig. 4 experiment as a table.

    Columns: region, ns_real, ns_random, sigma_random, z_real, then
    ns_<model> / z_<model> for every non-random model, and ``pairing``
    ('uniform' for Z > 0, 'contrasting' for Z < 0).

    ``matrix`` is the broadcast overlap matrix from
    :func:`repro.core.pairing.shared_matrix`.  The real cuisines are
    scored recipe by recipe; all models' random recipes go through one
    :func:`model_moments` pass.
    """
    if "random" not in models:
        raise ValueError("the Random Cuisine baseline is required")
    if inputs is None:
        inputs = region_model_inputs(spark, corpus)

    real = cuisine_scores(recipe_scores_fast(corpus, matrix)).toPandas().rename(
        columns={"ns": "ns_real", "sigma": "sigma_real", "n_recipes": "n_recipes_real"}
    )
    moments = model_moments(batch_plan(spark, inputs, models, n_rand), inputs, matrix, seed)
    model_stats = {model: g for model, g in moments.groupby("model")}

    rand = model_stats["random"].rename(
        columns={"ns": "ns_random", "sigma": "sigma_random"}
    )[["region", "ns_random", "sigma_random"]]
    out = real.merge(rand, on="region")
    out["z_real"] = (
        np.sqrt(n_rand) * (out["ns_real"] - out["ns_random"]) / out["sigma_random"]
    )
    for model in models:
        if model == "random":
            continue
        ms = model_stats[model].rename(columns={"ns": f"ns_{model}"})[
            ["region", f"ns_{model}"]
        ]
        out = out.merge(ms, on="region")
        out[f"z_{model}"] = (
            np.sqrt(n_rand)
            * (out[f"ns_{model}"] - out["ns_random"])
            / out["sigma_random"]
        )
    out["pairing"] = np.where(out["z_real"] > 0, "uniform", "contrasting")
    return out.sort_values("region").reset_index(drop=True)
