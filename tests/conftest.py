"""Shared fixtures: small corpora, profiles and overlap structures.

Everything session-scoped and deterministic so the whole suite pays the
Spark build cost once.  ``corpus_small`` (scale 0.02, ~1k recipes) backs
unit/oracle tests; ``corpus_mid`` (scale 0.1) backs the statistical
shape tests that need more data.
"""
import numpy as np
import pytest

from repro.culinarydb.corpus import build_corpus, explode_corpus
from repro.flavordb.profiles import profiles
from repro.core.pairing import shared_matrix
from tests.reference import shared_pairs

SEED = 11


@pytest.fixture(scope="session", name="profiles")
def spark_profiles(spark):
    """The profiles as a Spark DataFrame, for the Catalyst join references."""
    return spark.createDataFrame(profiles())


@pytest.fixture(scope="session")
def pairs_df(spark, profiles):
    df = shared_pairs(profiles).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def overlap_matrix() -> np.ndarray:
    return shared_matrix()


@pytest.fixture(scope="session")
def corpus_small(spark):
    df = build_corpus(spark, scale=0.02, seed=SEED).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def exploded_small(corpus_small):
    df = explode_corpus(corpus_small).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def corpus_mid(spark):
    df = build_corpus(spark, scale=0.1, seed=SEED).persist()
    df.count()
    yield df
    df.unpersist()
