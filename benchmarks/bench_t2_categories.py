"""T2 benchmark: Fig. 2 category-share heatmap data."""
from repro.core.stats import category_shares


def test_bench_t2_category_shares(benchmark, bench_flat):
    result = benchmark(category_shares, bench_flat)
    assert len(result) > 22  # region × category rows
