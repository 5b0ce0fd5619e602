"""T2 (paper Fig. 2): ingredient-category usage share per region.

Usage: python jobs/t2_category_heatmap.py [--scale 1.0]
Prints the region × category share matrix (the heatmap's data) and
checks the paper's reported regional deviations.  Runs on the driver,
from the flat corpus, and starts no Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.stats import category_shares, world_category_shares
from repro.culinarydb.corpus import flat_corpus


def run(spark: SparkSession | None, scale: float = 1.0, seed: int = 11) -> pd.DataFrame:
    """Per-region and WORLD category shares.  ``spark`` is unused; it
    keeps the ``run(spark, scale, seed)`` shape of the other jobs."""
    corpus = flat_corpus(scale, seed)
    per_region = category_shares(corpus)
    world = world_category_shares(per_region)
    world["region"] = "WORLD"
    return pd.concat([per_region, world[["region", "category", "count", "share"]]])


def main() -> None:
    from common import base_parser

    args = base_parser(__doc__).parse_args()
    pdf = run(None, args.scale, args.seed)
    pivot = pdf.pivot_table(index="region", columns="category", values="share").round(3)
    print(pivot.to_string())
    print("\npaper claims:")
    for code in ("FRA", "BRI", "SCND"):
        g = pivot.loc[code]
        print(f"  {code}: dairy({g['Dairy']:.3f}) > vegetable({g['Vegetable']:.3f}): "
              f"{g['Dairy'] > g['Vegetable']}")
    for code in ("INSC", "AFR", "ME", "CBN"):
        g = pivot.loc[code]
        print(f"  {code}: spice is top category: {g.idxmax() == 'Spice'} "
              f"(spice={g['Spice']:.3f})")


if __name__ == "__main__":
    main()
