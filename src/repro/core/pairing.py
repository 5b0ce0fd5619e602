"""Food-pairing scores (paper Methodology §B).

For a recipe R with n ingredients,

    N_s^R = 2 / (n (n-1)) · Σ_{i<j ∈ R} |F_i ∩ F_j|

i.e. the mean shared-flavor-molecule count over unordered ingredient
pairs; the cuisine score N_s^C is the mean of N_s^R over recipes.

One overlap matrix and one gather kernel serve every score:
:func:`shared_matrix` builds the dense (N+1)² int32 |F_i ∩ F_j| matrix
(≈3.6 MB) from the pooled profiles with no Spark stage: one
``np.bincount`` counts the molecules each ingredient pair shares.
:func:`padded_overlap` checks a padded (recipes × max size) matrix of
member ids and gathers each member's overlap T_{R,i}, one recipe size at
a time, so it reads only real member pairs.  :func:`pad_flat` pads the
generator's flat member array: χ in :mod:`repro.core.contribution` pads
the whole corpus, and Fig. 4's model inputs (:mod:`repro.core.randomize`)
each region's recipes.  The Fig. 4 stage of :mod:`repro.core.zscore`
hands the kernel those padded real recipes and the generators' own
padded matrices, so N_s^R, N_s^C, σ and χ all come from this kernel.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.flavordb.ingredients import N_INGREDIENTS
from repro.flavordb.profiles import profiles, shared_matrix_numpy

#: Padding slot used by the vectorized scorer; row/column is all zeros.
PAD_ID = N_INGREDIENTS


@lru_cache(maxsize=1)
def shared_matrix() -> np.ndarray:
    """Dense symmetric overlap matrix of every ingredient's flavor profile.

    Shape (N_INGREDIENTS+1, N_INGREDIENTS+1); index ``PAD_ID`` is an
    all-zero padding slot and the diagonal is zero.  Built once per
    process and read-only, since every caller shares the one array.
    """
    matrix = shared_matrix_numpy(profiles())
    matrix.setflags(write=False)
    return matrix


def pad_flat(members: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(recipes × max length) member ids: row r holds the next ``lengths[r]``
    of the flat ``members``, then ``PAD_ID``."""
    ids = np.full((len(lengths), lengths.max()), PAD_ID, dtype=np.int64)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = members
    return ids


def padded_overlap(
    ids: np.ndarray,
    lengths: np.ndarray,
    n: np.ndarray,
    labels: Callable[[int], str],
    matrix: np.ndarray,
) -> np.ndarray:
    """T_{R,i} = Σ_{j ∈ R} |F_i ∩ F_j| for a padded member matrix, as int64
    (0 in the padding).

    Row r of ``ids`` holds recipe r's ``lengths[r]`` members, then ``PAD_ID``;
    ``n`` is each recipe's stated size.  Raises ``ValueError`` naming the
    recipe (``labels(r)``) whose ``n`` is not its member count, or with an
    id outside [0, N_INGREDIENTS), a repeated member or n < 2.  The rows
    are gathered by member count, each size L reading only its L × L
    blocks, so no padding slot is read.
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
    # One gather per recipe size reads only the L × L block of real
    # members; the zero diagonal drops each member's pair with itself.
    t = np.zeros(ids.shape, dtype=np.int64)
    for size in np.unique(lengths):
        rows = np.flatnonzero(lengths == size)
        sub = ids[rows, :size]
        t[rows, :size] = matrix[sub[:, :, None], sub[:, None, :]].sum(axis=2)
    return t
