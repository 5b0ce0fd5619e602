"""Assemble the synthetic recipe corpus on the driver, and hand it to Spark.

Generation is sharded into batches of ``BATCH_SIZE`` recipes; each
batch's random stream is keyed on (region, batch start, seed).

A *coverage plan* guarantees the Table 1 unique-ingredient counts.
``_generate_region`` generates a region's batches once on the driver as
one flat member array in local recipe order, counts ingredient usage
with NumPy, and deals the pool ingredients that sampling never used
round-robin over the region's recipes. Each one replaces, in place
through the recipe's slice of that array, the recipe's most-used member
among those used at least twice region-wide (whose other occurrences
make the distortion negligible).

``flat_corpus`` concatenates the regions into one :class:`FlatCorpus`
(per-recipe ``recipe_id``, ``region`` and ``n``, and every member in
recipe order; recipe r's members start at ``offsets[r]``, the cumulative
sum of ``n``) with no Spark job and no per-recipe object.  It is the
driver's only form of the corpus: Table 1 and Figs. 2–5 read it.  It is
cached per ``(scale, seed)``, so every caller in a process gets the same
read-only arrays; :meth:`FlatCorpus.take` returns fresh arrays that may
be modified.  The cache saves only where a key repeats: a one-shot job
generates its corpus once either way.

``corpus_frame`` is the only way the corpus reaches Spark.  It lays the
(region, start, count) batch plan out over the Spark partitions, and
each batch row emits its recipes as slices of a broadcast of the flat
corpus, so the executors generate nothing.  Fig. 4's usage count
(:func:`repro.core.randomize.region_model_inputs`) and ``build_corpus``,
the corpus as a Spark DataFrame for the benchmark's references and the
tests' Spark oracles, both run over it.

Schema of ``corpus_frame``'s rows (``FlatCorpus`` flattens ``ingredients``)::

    recipe_id   long      globally unique
    region      string    region code (Table 1) or 'OTHER'
    n           int       recipe size (number of ingredients)
    ingredients array<long>  distinct ingredient ids
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np
import pyarrow as pa
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.culinarydb.generator import RegionSpec, generate_batch, region_specs

CORPUS_SCHEMA = StructType(
    [
        StructField("recipe_id", LongType()),
        StructField("region", StringType()),
        StructField("n", IntegerType()),
        StructField("ingredients", ArrayType(LongType())),
    ]
)

#: Recipes per generation batch.  Each batch's RNG stream is keyed on its
#: start, so changing this changes the corpus.
BATCH_SIZE = 2000

_PLAN_SCHEMA = StructType(
    [
        StructField("code", StringType()),
        StructField("start", IntegerType()),
        StructField("count", IntegerType()),
    ]
)


def _batches(spec: RegionSpec) -> list[tuple[int, int]]:
    """(start, count) of each generation batch of a region."""
    return [
        (start, min(BATCH_SIZE, spec.n_recipes - start))
        for start in range(0, spec.n_recipes, BATCH_SIZE)
    ]


def _generate_region(spec: RegionSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Generate a region's batches once and bring every unused pool ingredient in.

    Returns the sizes and the members of every recipe concatenated in
    local recipe order, with the coverage swaps applied.  Raises
    ``ValueError`` naming the region, the recipe and the ingredient when
    no member of the recipe can make way for it, rather than leave the
    ingredient out of the region's Table 1 count.
    """
    batches = [generate_batch(spec, start, count, seed) for start, count in _batches(spec)]
    sizes = np.concatenate([b[0] for b in batches])
    members = np.concatenate([b[1] for b in batches])
    offsets = np.cumsum(sizes) - sizes
    used, counts = np.unique(members, return_counts=True)
    inserts: dict[int, list[int]] = {}
    for k, ing in enumerate(spec.pool[~np.isin(spec.pool, used)].tolist()):
        inserts.setdefault(k % spec.n_recipes, []).append(ing)
    for local, new in inserts.items():
        # A view: the swaps land in ``members``.
        recipe = members[offsets[local]:offsets[local] + sizes[local]]
        # A victim must be used at least twice region-wide, so removing
        # one occurrence leaves another; an inserted member counts 0.
        member_counts = counts[np.searchsorted(used, recipe)]
        for ing in new:
            eligible = np.flatnonzero(member_counts >= 2)
            if not eligible.size:
                raise ValueError(
                    f"region {spec.code}, recipe {spec.recipe_offset + local}: "
                    f"no member can make way for ingredient {ing}"
                )
            # The most-used member; ties go to the larger id.
            victim = eligible[np.lexsort((recipe[eligible], member_counts[eligible]))[-1]]
            recipe[victim], member_counts[victim] = ing, 0
    return sizes, members


class FlatCorpus(NamedTuple):
    """The corpus as flat arrays: one entry per recipe, and every recipe's
    members concatenated in recipe order."""

    recipe_id: np.ndarray  # int64
    region: np.ndarray  # region code per recipe
    n: np.ndarray  # recipe size, int64
    members: np.ndarray  # int64 ingredient ids; recipe r's are members[offsets[r]:offsets[r + 1]]

    @property
    def offsets(self) -> np.ndarray:
        """Start of each recipe's members, then their total: ``len + 1`` entries."""
        return np.r_[0, np.cumsum(self.n)]

    def take(self, rows: np.ndarray) -> FlatCorpus:
        """The recipes selected by ``rows`` (a boolean mask or indices), in
        that order, as fresh arrays.  Raises ``ValueError`` when the members
        are not as many as the sizes sum to."""
        if len(self.members) != self.n.sum():
            raise ValueError(f"{len(self.members)} members for recipe sizes summing to {self.n.sum()}")
        n = self.n[rows]
        start = self.offsets[:-1][rows]
        members = self.members[np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum())]
        return FlatCorpus(self.recipe_id[rows], self.region[rows], n, members)


@lru_cache(maxsize=8)
def flat_corpus(scale: float = 1.0, seed: int = 11) -> FlatCorpus:
    """The corpus at ``scale`` (1.0 → the paper's 45,772 recipes) as a
    :class:`FlatCorpus`, in ``recipe_id`` order, generated on the driver
    with no Spark job.  The coverage plan makes the per-region
    unique-ingredient counts hit the Table 1 targets exactly.

    Generated once per ``(scale, seed)`` and process, and shared: every
    call returns the same object, whose four arrays are read-only, so a
    write into them raises instead of changing the corpus that later
    callers get.  Use :meth:`FlatCorpus.take` for arrays to modify.
    """
    specs = region_specs(scale, seed)
    sizes, members = zip(*(_generate_region(spec, seed) for spec in specs))
    counts = [len(s) for s in sizes]
    corpus = FlatCorpus(
        recipe_id=np.concatenate([s.recipe_offset + np.arange(c) for s, c in zip(specs, counts)]),
        region=np.repeat([s.code for s in specs], counts),
        n=np.concatenate(sizes),
        members=np.concatenate(members),
    )
    for array in corpus:
        array.setflags(write=False)
    return corpus


def corpus_frame(spark: SparkSession, specs: tuple[RegionSpec, ...], flat: Broadcast) -> DataFrame:
    """The corpus of ``specs`` as a lazy Spark DataFrame, read from ``flat``,
    a broadcast of the flat corpus's ``(n, members)``.

    The (code, start, count) generation batches are laid out one row
    each, round-robin over ``min(batches, defaultParallelism)``
    partitions, and one ``mapInArrow`` emits each batch's recipes as
    slices of the broadcast arrays, with no per-recipe object.  The layout
    fixes which task reads which batches, and in what order, so an
    aggregation over the frame sees the same row sequence every time.
    """
    rows = [(s.code, start, count) for s in specs for start, count in _batches(s)]
    first = {s.code: s.recipe_offset for s in specs}

    def emit(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        n, members = flat.value
        offsets = np.r_[0, np.cumsum(n)]
        for batch in batches:
            for code, start, count in zip(*batch.to_pydict().values()):
                lo = first[code] + start
                ends = offsets[lo:lo + count + 1]
                yield pa.RecordBatch.from_arrays(
                    [
                        pa.array(np.arange(lo, lo + count)),
                        pa.repeat(code, count),
                        pa.array(n[lo:lo + count].astype(np.int32)),
                        pa.ListArray.from_arrays(
                            pa.array((ends - ends[0]).astype(np.int32)), pa.array(members[ends[0]:ends[-1]])
                        ),
                    ],
                    names=CORPUS_SCHEMA.names,
                )

    return (
        spark.createDataFrame(rows, _PLAN_SCHEMA)
        .repartition(max(1, min(len(rows), spark.sparkContext.defaultParallelism)))
        .mapInArrow(emit, CORPUS_SCHEMA)
    )


def build_corpus(spark: SparkSession, *, scale: float = 1.0, seed: int = 11) -> DataFrame:
    """:func:`flat_corpus` as a Spark DataFrame (:func:`corpus_frame`).

    For the benchmark's references and the tests' Spark oracles only; no
    job calls it.  It starts no Spark job, and its broadcast lives as long
    as the session, since the frame may be read at any time after.
    """
    corpus = flat_corpus(scale, seed)
    flat = spark.sparkContext.broadcast((corpus.n, corpus.members))
    return corpus_frame(spark, region_specs(scale, seed), flat)
