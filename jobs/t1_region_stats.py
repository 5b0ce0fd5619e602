"""T1 (paper Table 1): recipes and unique ingredients per region.

Usage: python jobs/t1_region_stats.py [--scale 1.0] [--seed 11]
Prints the measured corpus statistics next to the paper's values.  Runs
on the driver, from the flat corpus, and starts no Spark job.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.stats import region_table_vs_paper
from repro.culinarydb.corpus import flat_corpus


def run(spark: SparkSession | None, scale: float = 1.0, seed: int = 11) -> pd.DataFrame:
    """Table 1 against the paper.  ``spark`` is unused; it keeps the
    ``run(spark, scale, seed)`` shape of the other jobs."""
    return region_table_vs_paper(flat_corpus(scale, seed))


def main() -> None:
    from common import base_parser

    args = base_parser(__doc__).parse_args()
    out = run(None, args.scale, args.seed)
    print(out.to_string(index=False))
    print(
        f"\nrecipes match: {out['recipes_match'].sum()}/22, "
        f"ingredients match: {out['ingredients_match'].sum()}/22, "
        f"total recipes (regions): {int(out['recipes'].sum())}"
    )


if __name__ == "__main__":
    main()
