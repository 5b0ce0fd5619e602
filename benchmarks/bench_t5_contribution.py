"""T5 benchmark: Fig. 5 ingredient contributions χ_i (all regions)."""
from repro.core.contribution import ingredient_contributions, top_contributors


def test_bench_t5_contributions(benchmark, spark, bench_corpus, bench_matrix):
    def work():
        contrib = ingredient_contributions(bench_corpus, bench_matrix)
        return top_contributors(contrib, k=3)

    top = benchmark.pedantic(work, rounds=2, iterations=1, warmup_rounds=0)
    assert set(top["rank"]) == {1, 2, 3}
    assert top["region"].nunique() >= 22
