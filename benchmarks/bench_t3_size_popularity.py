"""T3 benchmark: Fig. 3 recipe-size and rank–frequency statistics."""
from repro.core.stats import rank_frequency, recipe_size_summary


def test_bench_t3_size_summary(benchmark, bench_flat):
    result = benchmark(recipe_size_summary, bench_flat)
    assert all(8.0 < m < 10.0 for m in result["mean_n"])


def test_bench_t3_rank_frequency(benchmark, bench_flat):
    result = benchmark(rank_frequency, bench_flat)
    assert len(result) > 500
