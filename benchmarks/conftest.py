"""Benchmark fixtures: SF≈0.1 corpus (~4.6k recipes) shared per session,
as Fig. 4's model inputs (T4) and as the driver's flat arrays (T1–T3, T5)."""
import numpy as np
import pytest

from repro.core.pairing import shared_matrix
from repro.core.randomize import RegionInputs, region_model_inputs
from repro.culinarydb.corpus import FlatCorpus, flat_corpus

BENCH_SCALE = 0.1
SEED = 11


@pytest.fixture(scope="session")
def bench_matrix() -> np.ndarray:
    return shared_matrix()


@pytest.fixture(scope="session")
def bench_inputs(spark) -> dict[str, RegionInputs]:
    return region_model_inputs(spark, scale=BENCH_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def bench_flat() -> FlatCorpus:
    return flat_corpus(BENCH_SCALE, SEED)
