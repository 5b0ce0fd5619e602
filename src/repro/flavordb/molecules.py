"""Synthetic flavor-molecule universe with latent flavor communities.

FlavorDB catalogues ~25k molecules; the reproduction uses a smaller
universe (2,500) because only the *overlap structure* between ingredient
flavor profiles matters for food-pairing analysis, not molecule count.

Molecules are organized into ``N_COMMUNITIES`` latent communities plus a
shared pool.  An ingredient's profile draws mostly from its home
community's molecules (see :mod:`repro.flavordb.profiles`), so

* two ingredients of the same community share many molecules
  (high ``|F_i ∩ F_j|``), and
* two ingredients of different communities share few (only via the
  shared pool).

This gives the synthetic corpus the two flavor-overlap regimes that the
paper's uniform/contrasting pairing patterns are built from.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: Total molecules in the synthetic universe.
N_MOLECULES = 2500

#: Number of latent flavor communities.
N_COMMUNITIES = 12

#: Molecules per community; community k owns ids [k*150, (k+1)*150).
COMMUNITY_SIZE = 150

#: First molecule id of the shared pool (ids >= this belong to no community).
SHARED_POOL_START = N_COMMUNITIES * COMMUNITY_SIZE

#: Sentinel community for shared-pool molecules.
SHARED_COMMUNITY = -1


def molecule_community(molecule_id: int | np.ndarray) -> int | np.ndarray:
    """Community of a molecule id; ``SHARED_COMMUNITY`` for the shared pool."""
    mid = np.asarray(molecule_id)
    comm = np.where(mid < SHARED_POOL_START, mid // COMMUNITY_SIZE, SHARED_COMMUNITY)
    return comm if comm.shape else int(comm)


def community_molecules(community: int) -> np.ndarray:
    """Molecule ids owned by ``community`` (0 <= community < N_COMMUNITIES)."""
    if not 0 <= community < N_COMMUNITIES:
        raise ValueError(f"community must be in [0, {N_COMMUNITIES}), got {community}")
    start = community * COMMUNITY_SIZE
    return np.arange(start, start + COMMUNITY_SIZE)


def shared_pool_molecules() -> np.ndarray:
    """Molecule ids of the community-free shared pool."""
    return np.arange(SHARED_POOL_START, N_MOLECULES)


def molecules_pdf() -> pd.DataFrame:
    """The molecule universe as a pandas frame (molecule_id, community, name)."""
    mid = np.arange(N_MOLECULES)
    comm = np.asarray(molecule_community(mid))
    return pd.DataFrame(
        {
            "molecule_id": mid,
            "community": comm,
            "molecule_name": [f"mol_{i:04d}" for i in mid],
        }
    )
