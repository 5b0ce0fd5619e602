"""Food-pairing scores (paper Methodology §B).

For a recipe R with n ingredients,

    N_s^R = 2 / (n (n-1)) · Σ_{i<j ∈ R} |F_i ∩ F_j|

i.e. the mean shared-flavor-molecule count over unordered ingredient
pairs; the cuisine score N_s^C is the mean of N_s^R over recipes.

One overlap matrix and one gather kernel serve every score:
:func:`shared_matrix` builds the dense (N+1)² int32 |F_i ∩ F_j| matrix
(≈3.6 MB) from the pooled profiles with no Spark stage: one
``np.bincount`` counts the molecules each ingredient pair shares.
:func:`flat_overlap` checks recipes in the corpus's flat layout (sizes,
and every recipe's members concatenated) and gathers each member's
overlap T_{R,i}, one recipe size at a time.  χ in
:mod:`repro.core.contribution` hands it the whole corpus, and the Fig. 4
stage of :mod:`repro.core.zscore` the real recipes and the randomized
models' batches (:mod:`repro.core.randomize`), all in that layout, so
N_s^R, N_s^C, σ and χ all come from this kernel.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.flavordb.ingredients import N_INGREDIENTS
from repro.flavordb.profiles import profiles, shared_matrix_numpy

#: One past the last ingredient id: the matrix's all-zero padding row and
#: column, for padded layouts such as the benchmark's oracle.
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


def flat_overlap(
    members: np.ndarray,
    n: np.ndarray,
    labels: Callable[[int], str],
    matrix: np.ndarray,
) -> np.ndarray:
    """T_{R,i} = Σ_{j ∈ R} |F_i ∩ F_j| for every member, as int64 aligned
    with ``members``.

    ``members`` holds every recipe's members concatenated, recipe r's
    ``n[r]`` of them from the offset Σ_{q<r} n[q].  Raises ``ValueError``
    naming the recipe (``labels(r)``) where the sizes stop summing to the
    members' count, or with an id outside [0, N_INGREDIENTS), a repeated
    member or n < 2.  The recipes are gathered by size, each size L
    reading only its recipes' L × L blocks.
    """
    ends = np.cumsum(n)
    if len(members) != n.sum():
        r = min(int(np.searchsorted(ends, len(members), side="right")), len(n) - 1)
        raise ValueError(f"{labels(r)}: {len(members)} members for recipe sizes summing to {n.sum()}")
    out_of_range = (members < 0) | (members >= N_INGREDIENTS)
    if out_of_range.any():
        r = int(np.searchsorted(ends, out_of_range.argmax(), side="right"))
        raise ValueError(f"{labels(r)}: ingredient id outside [0, {N_INGREDIENTS})")
    # One gather per recipe size reads the L × L block of each recipe's
    # members; the zero diagonal drops each member's pair with itself.
    t = np.empty(len(members), dtype=np.int64)
    repeated = np.zeros(len(n), dtype=bool)
    for size in np.unique(n):
        rows = np.flatnonzero(n == size)
        at = (ends[rows] - size)[:, None] + np.arange(size)
        block = members[at]
        ordered = np.sort(block, axis=1)
        repeated[rows] = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        t[at] = matrix[block[:, :, None], block[:, None, :]].sum(axis=2)
    for bad, what in ((repeated, "duplicate ingredient"), (n < 2, "fewer than 2 ingredients")):
        if bad.any():
            raise ValueError(f"{labels(int(bad.argmax()))}: {what}")
    return t
