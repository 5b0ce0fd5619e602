"""Benchmark fixtures: SF≈0.1 corpus (~4.6k recipes) shared per session."""
import numpy as np
import pytest

from repro.core.pairing import shared_matrix
from repro.culinarydb.corpus import build_corpus
from repro.flavordb.profiles import profiles_df

BENCH_SCALE = 0.1
SEED = 11


@pytest.fixture(scope="session")
def bench_profiles(spark):
    df = profiles_df(spark).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def bench_matrix(spark, bench_profiles) -> np.ndarray:
    return shared_matrix(spark, bench_profiles)


@pytest.fixture(scope="session")
def bench_corpus(spark):
    df = build_corpus(spark, scale=BENCH_SCALE, seed=SEED).persist()
    df.count()
    yield df
    df.unpersist()

