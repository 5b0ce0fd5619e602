"""T4 (paper Fig. 4): food-pairing Z-scores vs the Random Cuisine.

Usage: spark-submit jobs/t4_food_pairing.py [--scale 1.0] [--n-rand 100000]
Computes, per region, the real cuisine's Z-score against 100,000 random
recipes plus the frequency / category / frequency+category models, and
compares the signs with the paper's 16-positive / 6-negative split.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pairing import shared_matrix
from repro.core.randomize import region_model_inputs
from repro.core.zscore import food_pairing_table
from repro.regions import PAPER_SIGNS


def run(
    spark: SparkSession,
    scale: float = 1.0,
    seed: int = 11,
    n_rand: int = 100_000,
) -> pd.DataFrame:
    inputs = region_model_inputs(spark, scale=scale, seed=seed)
    table = food_pairing_table(spark, inputs, shared_matrix(), n_rand=n_rand, seed=seed + 6)
    table["paper_sign"] = table["region"].map(PAPER_SIGNS)
    table["sign_ok"] = np.sign(table["z_real"]) == table["paper_sign"]
    return table


def main() -> None:
    from common import base_parser, get_spark

    p = base_parser(__doc__)
    p.add_argument("--n-rand", type=int, default=100_000,
                   help="randomized recipes per model per region (paper: 100000)")
    args = p.parse_args()
    spark = get_spark("t4_food_pairing")
    t = run(spark, args.scale, args.seed, args.n_rand)
    cols = ["region", "ns_real", "ns_random", "sigma_random", "z_real",
            "z_frequency", "z_category", "z_freq_cat", "pairing",
            "paper_sign", "sign_ok"]
    print(t[cols].round(2).to_string(index=False))
    scored = t.dropna(subset=["paper_sign"])
    pos = (scored["z_real"] > 0) & (scored["paper_sign"] > 0)
    neg = (scored["z_real"] < 0) & (scored["paper_sign"] < 0)
    print(f"\nsigns matching paper: {int(scored['sign_ok'].sum())}/22 "
          f"(positive {int(pos.sum())}/16, negative {int(neg.sum())}/6)")
    print(f"frequency model reproduces sign: "
          f"{int((np.sign(scored['z_frequency']) == scored['paper_sign']).sum())}/22")
    print(f"category model |Z| below 25% of real |Z|: "
          f"{int((scored['z_category'].abs() < 0.25 * scored['z_real'].abs()).sum())}/22")
    spark.stop()


if __name__ == "__main__":
    main()
