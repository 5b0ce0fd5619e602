"""Materialize the synthetic corpus and flavor profiles to parquet.

Usage: spark-submit jobs/build_corpus.py --out /tmp/culinarydb [--scale 1.0]
Other jobs rebuild the corpus on the fly (it is deterministic); this
entrypoint exists for inspection and for reuse outside this repo.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.culinarydb.corpus import build_corpus
from repro.flavordb.profiles import profiles


def run(spark: SparkSession, out: str, scale: float = 1.0, seed: int = 11) -> None:
    """Write the corpus to ``out/recipes`` and the profiles to ``out/profiles``."""
    build_corpus(spark, scale=scale, seed=seed).write.mode("overwrite").parquet(f"{out}/recipes")
    spark.createDataFrame(profiles()).write.mode("overwrite").parquet(f"{out}/profiles")


def main() -> None:
    from common import base_parser, get_spark

    p = base_parser(__doc__)
    p.add_argument("--out", required=True, help="output directory")
    args = p.parse_args()
    spark = get_spark("build_corpus")
    run(spark, args.out, args.scale, args.seed)
    print(f"corpus and profiles written under {args.out}")
    spark.stop()


if __name__ == "__main__":
    main()
