"""Flavor profiles: per-ingredient sets of flavor molecules.

A basic ingredient's profile is drawn mostly (80%) from its home flavor
community's molecule pool and the rest from the shared pool, giving the
high-within / low-across overlap structure food pairing depends on.
Profile sizes are log-normal (clipped to [5, 150]), matching FlavorDB's
heavy spread of empirically-reported molecule counts per ingredient.

A compound ingredient's profile is the union of its constituents'
profiles, the pooling rule of the paper's Materials §C; :func:`profiles`
applies it in pandas (explode constituents → merge basic profiles →
drop duplicates).

The four profile-less additives (Materials §B) produce no rows here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd

from repro.flavordb.ingredients import N_INGREDIENTS, ingredient_master
from repro.flavordb.molecules import community_molecules, shared_pool_molecules

#: Fraction of a profile drawn from the ingredient's home community.
_COMMUNITY_FRACTION = 0.8

_MIN_PROFILE, _MAX_PROFILE = 5, 150


@lru_cache(maxsize=4)
def basic_profiles(seed: int = 7) -> pd.DataFrame:
    """Long-format (ingredient_id, molecule_id) profiles for basic ingredients.

    Deterministic in ``seed``; compound ingredients and profile-less
    additives are excluded (compounds are pooled in :func:`profiles`).
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


def profiles() -> pd.DataFrame:
    """Long-format (ingredient_id, molecule_id) profiles of every profiled ingredient.

    The :func:`basic_profiles`, plus each compound ingredient's pooled
    profile: its constituents' molecules, each once.
    """
    master, basic = ingredient_master(), basic_profiles()
    parts = master.loc[master["is_compound"], ["ingredient_id", "constituents"]]
    parts = parts.explode("constituents").astype({"constituents": np.int64})
    pooled = parts.merge(basic.rename(columns={"ingredient_id": "constituents"}), on="constituents")
    return pd.concat([basic, pooled[["ingredient_id", "molecule_id"]]]).drop_duplicates(ignore_index=True)


def shared_matrix_numpy(profiles: pd.DataFrame) -> np.ndarray:
    """Dense |F_i ∩ F_j| matrix from long-format profiles (Ahn et al., Sci. Rep. 2011).

    Sorted by molecule, the distinct (molecule, ingredient) rows ``lag``
    apart that hold the same molecule are one shared molecule of a pair;
    the pairs of lag = 1, 2, … are counted into the int32 result in both
    orders.  Repeated rows count once.  Shape (N_INGREDIENTS + 1)², zero
    diagonal; the last row/column is the all-zero ``PAD_ID`` padding slot.
    """
    n = N_INGREDIENTS + 1
    keys = np.unique(profiles["molecule_id"].to_numpy() * n + profiles["ingredient_id"].to_numpy())
    mol, ing = np.divmod(keys, n)
    s = np.zeros((n, n), dtype=np.int32)
    lag = 1
    while (same := mol[lag:] == mol[:-lag]).any():
        pairs, count = np.unique(ing[:-lag][same] * n + ing[lag:][same], return_counts=True)
        i, j = np.divmod(pairs, n)
        s[i, j] += count
        s[j, i] += count
        lag += 1
    return s
