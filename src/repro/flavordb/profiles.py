"""Flavor profiles: per-ingredient sets of flavor molecules.

A basic ingredient's profile is drawn mostly (80%) from its home flavor
community's molecule pool and the rest from the shared pool, giving the
high-within / low-across overlap structure food pairing depends on.
Profile sizes are log-normal (clipped to [5, 150]), matching FlavorDB's
heavy spread of empirically-reported molecule counts per ingredient.

A compound ingredient's profile is the union of its constituents'
profiles, the pooling rule of the paper's Materials §C; :func:`profiles`
applies it in NumPy: each constituent's basic rows are one
``searchsorted`` slice, and each (ingredient, molecule) is kept at its
first row.  :func:`shared_matrix_numpy` counts the molecules each
ingredient pair shares with one ``np.bincount``.

The four profile-less additives (Materials §B) produce no rows here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd

from repro.flavordb.ingredients import MASTER_SEED, N_INGREDIENTS, ingredient_master
from repro.flavordb.molecules import community_molecules, shared_pool_molecules

#: Fraction of a profile drawn from the ingredient's home community.
_COMMUNITY_FRACTION = 0.8

_MIN_PROFILE, _MAX_PROFILE = 5, 150


@lru_cache(maxsize=1)
def basic_profiles() -> pd.DataFrame:
    """Long-format (ingredient_id, molecule_id) profiles for basic ingredients.

    Deterministic (seed ``MASTER_SEED + 1``); compound ingredients and
    profile-less additives are excluded (compounds are pooled in
    :func:`profiles`).
    """
    master = ingredient_master()
    basics = master[(~master["is_compound"]) & master["has_profile"]]
    rng = np.random.default_rng(MASTER_SEED + 1)
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

    The :func:`basic_profiles`, then each compound ingredient's pooled
    profile in master order: its constituents' molecules, constituent by
    constituent, each molecule once (its first occurrence).
    """
    master, basic = ingredient_master(), basic_profiles()
    compounds = master.loc[master["is_compound"]]
    owner = np.repeat(compounds["ingredient_id"].to_numpy(), compounds["constituents"].map(len).to_numpy())
    parts = np.concatenate(compounds["constituents"].to_list()).astype(np.int64)
    ing, mol = basic["ingredient_id"].to_numpy(), basic["molecule_id"].to_numpy()
    by_ing = np.argsort(ing, kind="stable")
    # A constituent's rows are one slice of the basic rows sorted by ingredient.
    lo, hi = (np.searchsorted(ing[by_ing], parts, side) for side in ("left", "right"))
    count = hi - lo
    rows = by_ing[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
    ing = np.concatenate([ing, np.repeat(owner, count)])
    mol = np.concatenate([mol, mol[rows]])
    # Each (ingredient, molecule) once, at its first row.
    _, first = np.unique(ing * (mol.max() + 1) + mol, return_index=True)
    keep = np.sort(first)
    return pd.DataFrame({"ingredient_id": ing[keep], "molecule_id": mol[keep]})


def _upper_pairs(ing: np.ndarray, starts: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """Upper-triangle index ``i·n − i(i+1)/2 + j − i − 1`` of every
    ingredient pair i < j sharing a molecule, once per shared molecule.

    Molecule m's ingredients are ``ing[starts[m]:starts[m] + sizes[m]]``,
    ascending.  The molecules of one frequency c are enumerated together,
    through ``np.triu_indices(c, 1)``, into one preallocated array.
    """
    row = ing * n - ing * (ing + 1) // 2 - ing - 1  # index of (i, j) = row[i] + j
    out = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=np.int64)
    pos = 0
    for c in np.unique(sizes[sizes >= 2]):
        members = starts[sizes == c][:, None] + np.arange(c)
        i, j = np.triu_indices(c, 1)
        block = out[pos:pos + len(members) * len(i)].reshape(len(members), len(i))
        np.add(row[members][:, i], ing[members][:, j], out=block)
        pos += block.size
    return out


def shared_matrix_numpy(profiles: pd.DataFrame) -> np.ndarray:
    """Dense |F_i ∩ F_j| matrix from long-format profiles (Ahn et al., Sci. Rep. 2011).

    The distinct (molecule, ingredient) rows, sorted, group each
    molecule's ingredients; every pair of them shares that molecule.
    One ``np.bincount`` over the pairs' upper-triangle indices counts the
    shared molecules of every pair i < j, written to both triangles of
    the int32 result.  Repeated rows count once.  Shape
    (N_INGREDIENTS + 1)², zero diagonal; the last row/column is the
    all-zero ``PAD_ID`` padding slot.
    """
    n = N_INGREDIENTS + 1
    keys = np.unique(profiles["molecule_id"].to_numpy() * n + profiles["ingredient_id"].to_numpy())
    mol, ing = np.divmod(keys, n)
    starts = np.flatnonzero(np.r_[True, mol[1:] != mol[:-1]])
    # The pair array (≈3.3 MiB) is freed before the matrix is allocated.
    tri = np.bincount(_upper_pairs(ing, starts, np.diff(np.r_[starts, len(mol)]), n), minlength=n * (n - 1) // 2)
    upper = np.arange(n)[:, None] < np.arange(n)
    s = np.zeros((n, n), dtype=np.int32)
    s[upper] = tri
    s.T[upper] = tri
    return s
