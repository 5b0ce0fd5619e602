"""T4 benchmark: Fig. 4 food-pairing Z-scores (all 4 models).

The heavy experiment: generates and scores n_rand randomized recipes per
model per region.  Benchmarked at n_rand=5000 (the job default is the
paper's 100,000; Z scales as sqrt(n_rand), signs are invariant).
"""
import numpy as np

from repro.core.zscore import food_pairing_table
from repro.regions import REGIONS

N_RAND = 5000


def test_bench_t4_food_pairing(benchmark, spark, bench_corpus, bench_matrix):
    def work():
        return food_pairing_table(
            spark, bench_corpus, bench_matrix, n_rand=N_RAND, seed=17
        )

    table = benchmark.pedantic(work, rounds=2, iterations=1, warmup_rounds=0)
    signs = {r.code: r.pairing_sign for r in REGIONS}
    scored = table[table["region"] != "OTHER"]
    ok = (np.sign(scored["z_real"]) == scored["region"].map(signs)).sum()
    assert ok >= 20  # sign reproduction even at bench scale


def test_bench_t4_scoring_only(benchmark, spark, bench_corpus, bench_matrix):
    """Just the recipe-scoring kernel over the real corpus."""
    from repro.core.pairing import cuisine_scores, recipe_scores_fast

    def work():
        return cuisine_scores(
            recipe_scores_fast(bench_corpus, bench_matrix)
        ).collect()

    result = benchmark(work)
    assert len(result) == 23
