"""T5 (paper Fig. 5): top-3 contributing ingredients per cuisine.

Usage: python jobs/t5_contributions.py [--scale 1.0]
Computes χ_i (percentage change of N_s^C on removing ingredient i) for
every (region, ingredient) and prints the top 3 per region: largest χ
for positive-pairing cuisines, smallest for negative ones.  Runs on the
driver, from the flat corpus arrays, and starts no Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.contribution import ingredient_contributions, top_contributors
from repro.core.pairing import shared_matrix
from repro.culinarydb.corpus import flat_corpus
from repro.regions import PAPER_SIGNS


def run(spark: SparkSession | None, scale: float = 1.0, seed: int = 11) -> pd.DataFrame:
    """Top-3 χ per region.  ``spark`` is unused; it keeps the ``run(spark,
    scale, seed)`` shape of the other jobs."""
    corpus = flat_corpus(scale, seed)
    contrib = ingredient_contributions(corpus.take(corpus.region != "OTHER"), shared_matrix())
    return top_contributors(contrib, k=3)


def main() -> None:
    from common import base_parser

    args = base_parser(__doc__).parse_args()
    top = run(None, args.scale, args.seed)
    top["pairing"] = top["region"].map(
        lambda c: "positive" if PAPER_SIGNS.get(c, 1) > 0 else "negative"
    )
    for label in ("positive", "negative"):
        print(f"\n=== {label} food-pairing cuisines (Fig. 5{'a' if label=='positive' else 'b'}) ===")
        sub = top[top["pairing"] == label]
        print(sub[["region", "rank", "ingredient", "chi"]].round(3).to_string(index=False))


if __name__ == "__main__":
    main()
