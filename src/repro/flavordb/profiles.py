"""Flavor profiles: per-ingredient sets of flavor molecules.

A basic ingredient's profile is drawn mostly (80%) from its home flavor
community's molecule pool and the rest from the shared pool, giving the
high-within / low-across overlap structure food pairing depends on.
Profile sizes are log-normal (clipped to [5, 150]), matching FlavorDB's
heavy spread of empirically-reported molecule counts per ingredient.

Compound-ingredient profiles are **pooled from constituents via a Spark
aggregation** (explode constituents → join basic profiles → distinct),
exactly the pooling rule the paper describes in Materials §C.

The four profile-less additives (Materials §B) produce no rows here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.flavordb.ingredients import N_INGREDIENTS, ingredient_master
from repro.flavordb.molecules import community_molecules, shared_pool_molecules

#: Fraction of a profile drawn from the ingredient's home community.
_COMMUNITY_FRACTION = 0.8

_MIN_PROFILE, _MAX_PROFILE = 5, 150

#: Molecule columns, and ingredient rows, per BLAS product in the overlap matrix.
_CHUNK = 256


@lru_cache(maxsize=4)
def basic_profiles(seed: int = 7) -> pd.DataFrame:
    """Long-format (ingredient_id, molecule_id) profiles for basic ingredients.

    Deterministic in ``seed``; compound ingredients and profile-less
    additives are excluded (compounds are pooled in :func:`profiles_df`).
    """
    master = ingredient_master(seed)
    basics = master[(~master["is_compound"]) & master["has_profile"]]
    rng = np.random.default_rng(seed + 1)
    shared = shared_pool_molecules()

    ids: list[np.ndarray] = []
    mols: list[np.ndarray] = []
    for ing_id, comm in zip(basics["ingredient_id"], basics["community"]):
        size = int(np.clip(rng.lognormal(np.log(35), 0.5), _MIN_PROFILE, _MAX_PROFILE))
        pool = community_molecules(int(comm))
        n_comm = min(int(round(size * _COMMUNITY_FRACTION)), len(pool))
        n_shared = min(size - n_comm, len(shared))
        chosen = np.concatenate(
            [
                rng.choice(pool, size=n_comm, replace=False),
                rng.choice(shared, size=n_shared, replace=False),
            ]
        )
        ids.append(np.full(len(chosen), ing_id))
        mols.append(chosen)

    return pd.DataFrame(
        {
            "ingredient_id": np.concatenate(ids).astype(np.int64),
            "molecule_id": np.concatenate(mols).astype(np.int64),
        }
    )


def profiles_df(spark: SparkSession, seed: int = 7) -> DataFrame:
    """All ingredient flavor profiles as a Spark DataFrame.

    Basic profiles come from :func:`basic_profiles`; compound-ingredient
    profiles are pooled distributively: explode the constituent list,
    join to the basic profiles, and de-duplicate molecules per compound.
    """
    master = ingredient_master(seed)
    basic = spark.createDataFrame(basic_profiles(seed))

    compounds = master[master["is_compound"]][["ingredient_id", "constituents"]].copy()
    compounds["constituents"] = compounds["constituents"].map(list)
    compound_map = spark.createDataFrame(compounds).select(
        F.col("ingredient_id"),
        F.explode("constituents").alias("constituent_id"),
    )
    pooled = (
        compound_map.join(
            basic.withColumnRenamed("ingredient_id", "constituent_id"),
            on="constituent_id",
        )
        .select("ingredient_id", "molecule_id")
        .distinct()
    )
    return basic.unionByName(pooled)


def shared_matrix_numpy(profiles: pd.DataFrame) -> np.ndarray:
    """Dense |F_i ∩ F_j| matrix from long-format profiles: B·Bᵀ.

    B is the ingredient × molecule incidence matrix (Ahn et al., Sci. Rep.
    2011), built ``_CHUNK`` molecules at a time; each chunk's product is
    taken ``_CHUNK`` rows at a time in float32 BLAS and added into the int32
    result.  float32 is exact: no overlap exceeds the molecule count, far
    below 2^24.  Shape (N_INGREDIENTS + 1)², zero diagonal; the last
    row/column is the all-zero ``PAD_ID`` padding slot.
    """
    ing = profiles["ingredient_id"].to_numpy()
    mol = profiles["molecule_id"].to_numpy()
    chunk_of = mol // _CHUNK
    s = np.zeros((N_INGREDIENTS + 1, N_INGREDIENTS + 1), dtype=np.int32)
    b = np.empty((N_INGREDIENTS + 1, _CHUNK), dtype=np.float32)
    for c in np.unique(chunk_of):
        sel = chunk_of == c
        b[:] = 0.0
        b[ing[sel], mol[sel] - c * _CHUNK] = 1.0
        for lo in range(0, len(b), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            np.add(s[rows], b[rows] @ b.T, out=s[rows], casting="unsafe")
    np.fill_diagonal(s, 0)
    return s
