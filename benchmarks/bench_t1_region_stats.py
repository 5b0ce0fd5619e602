"""T1 benchmark: Table 1 region statistics over the SF=0.1 corpus."""
from repro.core.stats import region_table


def test_bench_t1_region_table(benchmark, bench_flat):
    result = benchmark(region_table, bench_flat)
    assert len(result) == 23  # 22 regions + OTHER
