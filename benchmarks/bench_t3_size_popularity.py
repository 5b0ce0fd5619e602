"""T3 benchmark: Fig. 3 recipe-size and rank–frequency statistics."""
from repro.core.stats import rank_frequency, recipe_size_summary


def test_bench_t3_size_summary(benchmark, bench_recipes):
    result = benchmark(recipe_size_summary, bench_recipes)
    assert all(8.0 < m < 10.0 for m in result["mean_n"])


def test_bench_t3_rank_frequency(benchmark, bench_recipes):
    result = benchmark(rank_frequency, bench_recipes)
    assert len(result) > 500
