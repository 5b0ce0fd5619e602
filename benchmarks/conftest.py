"""Benchmark fixtures: SF≈0.1 corpus (~4.6k recipes) shared per session,
as a Spark DataFrame (T4) and as the driver's flat arrays (T1–T3, T5)."""
import numpy as np
import pytest

from repro.core.pairing import shared_matrix
from repro.culinarydb.corpus import FlatCorpus, build_corpus, flat_corpus

BENCH_SCALE = 0.1
SEED = 11


@pytest.fixture(scope="session")
def bench_matrix() -> np.ndarray:
    return shared_matrix()


@pytest.fixture(scope="session")
def bench_corpus(spark):
    df = build_corpus(spark, scale=BENCH_SCALE, seed=SEED).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def bench_flat() -> FlatCorpus:
    return flat_corpus(BENCH_SCALE, SEED)
