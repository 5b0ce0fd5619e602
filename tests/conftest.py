"""Shared fixtures: small corpora, profiles and overlap structures.

Everything session-scoped and deterministic so the whole suite pays the
Spark build cost once.  ``corpus_small`` (scale 0.02, ~1k recipes) backs
unit/oracle tests.  ``inputs_small`` and ``inputs_mid`` are Fig. 4's
model inputs at scales 0.02 and 0.1.  ``flat_small`` and ``flat_full`` are
the same corpus at scale 0.02 and at the paper's size as the driver's
flat arrays, generated with no Spark job; ``recipes_small`` is
``flat_small`` as a pandas frame, one array per recipe, and
``members_small`` and ``aliased_small`` are it one row per member,
before and after the phrase → id round trip.
"""
import numpy as np
import pandas as pd
import pytest

from repro.aliasing.mapper import alias_phrases
from repro.culinarydb.corpus import FlatCorpus, build_corpus, flat_corpus
from repro.culinarydb.phrases import phrases_df
from repro.flavordb.profiles import profiles
from repro.core.pairing import shared_matrix
from repro.core.randomize import RegionInputs, region_model_inputs
from tests.reference import explode_corpus, nested_corpus, shared_pairs

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
def inputs_small(spark) -> dict[str, RegionInputs]:
    return region_model_inputs(spark, scale=0.02, seed=SEED)


@pytest.fixture(scope="session")
def inputs_mid(spark) -> dict[str, RegionInputs]:
    return region_model_inputs(spark, scale=0.1, seed=SEED)


@pytest.fixture(scope="session")
def flat_small() -> FlatCorpus:
    return flat_corpus(0.02, SEED)


@pytest.fixture(scope="session")
def flat_full() -> FlatCorpus:
    """The paper-size corpus (45,772 recipes) the paper's claims are checked on."""
    return flat_corpus(1.0, SEED)


@pytest.fixture(scope="session")
def recipes_small(flat_small) -> pd.DataFrame:
    return nested_corpus(flat_small)


@pytest.fixture(scope="session")
def members_small(recipes_small) -> pd.DataFrame:
    """``recipes_small`` in long format: one (recipe_id, region, n,
    ingredient_id) row per member."""
    out = recipes_small.explode("ingredients").rename(columns={"ingredients": "ingredient_id"})
    return out.astype({"ingredient_id": np.int64})


@pytest.fixture(scope="session")
def aliased_small(members_small) -> pd.DataFrame:
    """``members_small`` with a synthesized ``phrase`` per member, aliased
    back to ``mapped_id`` and ``status``."""
    return alias_phrases(phrases_df(members_small, seed=23))
