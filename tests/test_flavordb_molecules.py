"""Molecule universe and community structure."""
import numpy as np
import pytest

from repro.flavordb.molecules import (
    COMMUNITY_SIZE,
    N_COMMUNITIES,
    N_MOLECULES,
    SHARED_COMMUNITY,
    SHARED_POOL_START,
    community_molecules,
    molecule_community,
    molecules_pdf,
    shared_pool_molecules,
)


def test_universe_partitions_exactly():
    community_ids = np.concatenate(
        [community_molecules(c) for c in range(N_COMMUNITIES)]
    )
    shared = shared_pool_molecules()
    all_ids = np.sort(np.concatenate([community_ids, shared]))
    assert np.array_equal(all_ids, np.arange(N_MOLECULES))


@pytest.mark.parametrize("c", range(N_COMMUNITIES))
def test_community_sizes(c):
    assert len(community_molecules(c)) == COMMUNITY_SIZE


def test_community_of_first_and_last():
    assert molecule_community(0) == 0
    assert molecule_community(SHARED_POOL_START - 1) == N_COMMUNITIES - 1
    assert molecule_community(SHARED_POOL_START) == SHARED_COMMUNITY
    assert molecule_community(N_MOLECULES - 1) == SHARED_COMMUNITY


def test_molecule_community_vectorized():
    mid = np.array([0, COMMUNITY_SIZE, SHARED_POOL_START])
    assert list(molecule_community(mid)) == [0, 1, SHARED_COMMUNITY]


def test_community_bounds_checked():
    with pytest.raises(ValueError):
        community_molecules(N_COMMUNITIES)
    with pytest.raises(ValueError):
        community_molecules(-1)


def test_molecules_pdf_shape_and_names():
    pdf = molecules_pdf()
    assert len(pdf) == N_MOLECULES
    assert pdf["molecule_id"].is_unique
    assert pdf["molecule_name"].str.startswith("mol_").all()
