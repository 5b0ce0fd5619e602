"""T3 (paper Fig. 3): recipe-size distribution and ingredient popularity.

Usage: python jobs/t3_size_popularity.py [--scale 1.0]
Prints per-region size statistics (Fig. 3a) and the normalized
rank–frequency curve sampled at fixed relative ranks (Fig. 3b).  Runs on
the driver, from the flat corpus, and starts no Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.stats import rank_frequency, recipe_size_summary
from repro.culinarydb.corpus import flat_corpus


def run(
    spark: SparkSession | None, scale: float = 1.0, seed: int = 11
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Size summary and sampled rank–frequency curve.  ``spark`` is
    unused; it keeps the ``run(spark, scale, seed)`` shape of the other
    jobs."""
    corpus = flat_corpus(scale, seed)
    sizes = recipe_size_summary(corpus).sort_values("region")
    ranks = rank_frequency(corpus)
    grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8]
    rows = []
    for region, g in ranks.groupby("region"):
        g = g.sort_values("rel_rank")
        row = {"region": region}
        for q in grid:
            idx = (g["rel_rank"] - q).abs().idxmin()
            row[f"rf@{q}"] = g.loc[idx, "rel_freq"]
        rows.append(row)
    return sizes, pd.DataFrame(rows).sort_values("region")


def main() -> None:
    from common import base_parser

    args = base_parser(__doc__).parse_args()
    sizes, curve = run(None, args.scale, args.seed)
    print("recipe sizes (Fig. 3a):")
    print(sizes.round(2).to_string(index=False))
    print(f"\nglobal mean size: {np.average(sizes['mean_n'], weights=sizes['recipes']):.2f}"
          " (paper: ~9)")
    print("\nnormalized rank–frequency at relative ranks (Fig. 3b):")
    print(curve.round(3).to_string(index=False))
    cv = curve.drop(columns='region').std() / curve.drop(columns='region').mean()
    print("\ncross-region coefficient of variation per grid point "
          "(low = consistent scaling):")
    print(cv.round(3).to_string())


if __name__ == "__main__":
    main()
