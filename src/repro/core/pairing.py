"""Food-pairing scores (paper Methodology §B).

For a recipe R with n ingredients,

    N_s^R = 2 / (n (n-1)) · Σ_{i<j ∈ R} |F_i ∩ F_j|

i.e. the mean shared-flavor-molecule count over unordered ingredient
pairs; the cuisine score N_s^C is the mean of N_s^R over recipes.

One overlap matrix and one gather kernel serve every score:
:func:`shared_matrix` builds the dense (N+1)² int32 |F_i ∩ F_j| matrix
(≈3.6 MB) as B·Bᵀ of the ingredient × molecule incidence matrix, and
:func:`padded_overlap` checks a padded (recipes × max size) matrix of
member ids and gathers each member's overlap T_{R,i} from a broadcast
copy.  N_s^R here and χ in :mod:`repro.core.contribution` reach it
through :func:`member_overlap`, which pads a batch of ``ingredients``
arrays; the randomized cuisines of :mod:`repro.core.zscore` hand it the
generator's own padded matrix.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.flavordb.ingredients import N_INGREDIENTS
from repro.flavordb.profiles import shared_matrix_numpy

#: Padding slot used by the vectorized scorer; row/column is all zeros.
PAD_ID = N_INGREDIENTS


def shared_matrix(spark: SparkSession, profiles: DataFrame) -> np.ndarray:
    """Dense symmetric overlap matrix of the long-format ``profiles``.

    Shape (N_INGREDIENTS+1, N_INGREDIENTS+1); index ``PAD_ID`` is an
    all-zero padding slot and the diagonal is zero.
    """
    return shared_matrix_numpy(profiles.toPandas())


def member_overlap(pdf: pd.DataFrame, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded member ids and each member's overlap with the rest of its recipe.

    ``pdf`` has ``recipe_id``, ``n`` and ``ingredients`` per recipe.  Returns
    ``(ids, t)``, (recipes × max size) each: members padded with ``PAD_ID``,
    and T_{R,i} from :func:`padded_overlap`, which checks the recipes and
    names a bad one by its ``recipe_id``.
    """
    lengths = pdf["ingredients"].map(len).to_numpy()
    ids = np.full((len(pdf), lengths.max()), PAD_ID, dtype=np.int64)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.concatenate(pdf["ingredients"].to_list())
    recipe_ids = pdf["recipe_id"].to_numpy()
    return ids, padded_overlap(
        ids, lengths, pdf["n"].to_numpy(), lambda row: f"recipe {recipe_ids[row]}", matrix
    )


def padded_overlap(
    ids: np.ndarray,
    lengths: np.ndarray,
    n: np.ndarray,
    labels: Callable[[int], str],
    matrix: np.ndarray,
) -> np.ndarray:
    """T_{R,i} = Σ_{j ∈ R} |F_i ∩ F_j| for a padded member matrix (0 in the padding).

    Row r of ``ids`` holds recipe r's ``lengths[r]`` members, then ``PAD_ID``;
    ``n`` is each recipe's stated size.  Raises ``ValueError`` naming the
    recipe (``labels(r)``) whose ``n`` is not its member count, or with an
    id outside [0, N_INGREDIENTS), a repeated member or n < 2.
    """
    real = np.arange(ids.shape[1]) < lengths[:, None]
    out_of_range = (real & ((ids < 0) | (ids >= PAD_ID))).any(axis=1)
    ordered = np.sort(ids, axis=1)
    repeated = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != PAD_ID)).any(axis=1)
    for bad, what in (
        (n != lengths, "n differs from the number of ingredients"),
        (out_of_range, f"ingredient id outside [0, {PAD_ID})"),
        (repeated, "duplicate ingredient"),
        (n < 2, "fewer than 2 ingredients"),
    ):
        if bad.any():
            raise ValueError(f"{labels(int(bad.argmax()))}: {what}")
    # The diagonal and the padding row/column are zero, so padding and a
    # member's pair with itself add nothing.
    return matrix[ids[:, :, None], ids[:, None, :]].sum(axis=2)


def recipe_scores_fast(recipes: DataFrame, matrix: np.ndarray) -> DataFrame:
    """N_s^R per recipe via the broadcast overlap matrix.

    ``recipes`` must carry ``recipe_id``, ``n`` and ``ingredients``; output is
    the input schema plus a ``score`` column.  The matrix is shipped with
    ``SparkContext.broadcast`` (one copy per executor, not per task).
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
            _, t = member_overlap(pdf, s)
            sizes = pdf["n"].to_numpy()
            yield pdf.assign(score=t.sum(axis=1) / (sizes * (sizes - 1.0)))

    return recipes.mapInPandas(run, out_schema)


def cuisine_scores(recipe_scores: DataFrame) -> DataFrame:
    """Per-region N_s^C, recipe-score standard deviation and recipe count."""
    return recipe_scores.groupBy("region").agg(
        F.avg("score").alias("ns"),
        F.stddev_pop("score").alias("sigma"),
        F.count("*").alias("n_recipes"),
    )
