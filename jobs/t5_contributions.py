"""T5 (paper Fig. 5): top-3 contributing ingredients per cuisine.

Usage: spark-submit jobs/t5_contributions.py [--scale 1.0]
Computes χ_i (percentage change of N_s^C on removing ingredient i) for
every (region, ingredient) and prints the top 3 per region: largest χ
for positive-pairing cuisines, smallest for negative ones.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.contribution import ingredient_contributions, top_contributors
from repro.core.pairing import shared_matrix
from repro.culinarydb.corpus import build_corpus
from repro.flavordb.profiles import profiles_df
from repro.regions import REGIONS


def run(spark: SparkSession, scale: float = 1.0, seed: int = 11) -> pd.DataFrame:
    corpus = build_corpus(spark, scale=scale, seed=seed)
    matrix = shared_matrix(spark, profiles_df(spark))
    contrib = ingredient_contributions(
        corpus.where("region != 'OTHER'"), matrix
    )
    return top_contributors(contrib, k=3)


def main() -> None:
    from common import base_parser, get_spark

    args = base_parser(__doc__).parse_args()
    spark = get_spark("t5_contributions")
    top = run(spark, args.scale, args.seed)
    signs = {r.code: r.pairing_sign for r in REGIONS}
    top["pairing"] = top["region"].map(
        lambda c: "positive" if signs.get(c, 1) > 0 else "negative"
    )
    for label in ("positive", "negative"):
        print(f"\n=== {label} food-pairing cuisines (Fig. 5{'a' if label=='positive' else 'b'}) ===")
        sub = top[top["pairing"] == label]
        print(sub[["region", "rank", "ingredient", "chi"]].round(3).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
