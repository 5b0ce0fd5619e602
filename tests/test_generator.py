"""Region specs and batch recipe generation (driver-side logic)."""
import numpy as np
import pytest

from repro.culinarydb.generator import (
    OTHER_REGION,
    RegionSpec,
    ZIPF_ALPHA,
    _head_size,
    _scaled_counts,
    generate_batch,
    region_specs,
    sample_sizes,
    topk_rows,
)
from repro.flavordb.ingredients import ingredient_master
from repro.regions import REGIONS, by_code
from tests.reference import gumbel_topk_rows


@pytest.fixture(scope="module")
def specs():
    return region_specs(0.05, 11)


def test_one_spec_per_region_plus_other(specs):
    assert len(specs) == 23
    assert {s.code for s in specs} == {r.code for r in REGIONS} | {"OTHER"}


def test_full_scale_counts_match_table1():
    for r in REGIONS:
        n, p = _scaled_counts(r, 1.0)
        assert n == r.recipes and p == r.ingredients


def test_scaled_counts_floor():
    kor = by_code("KOR")
    n, p = _scaled_counts(kor, 0.01)
    assert n == 30  # floor so every region stays analyzable
    assert 20 <= p < kor.ingredients


def test_offsets_contiguous(specs):
    offset = 0
    for s in specs:
        assert s.recipe_offset == offset
        offset += s.n_recipes


def test_pools_unique_and_sized(specs):
    for s in specs:
        assert len(s.pool) == len(np.unique(s.pool))
        assert len(s.weights) == len(s.pool)
        assert (s.weights > 0).all()


def test_positive_region_head_concentrated(specs):
    """Positive cuisines: popular ingredients share few communities."""
    master = ingredient_master()
    comm = master.set_index("ingredient_id")["community"]
    for s in specs:
        if s.code == "OTHER" or by_code(s.code).pairing_sign < 0:
            continue
        head = s.pool[: _head_size(len(s.pool))]
        assert comm.loc[head].nunique() <= 2


def test_negative_region_head_spread(specs):
    """Negative cuisines: popular ingredients spread across communities."""
    master = ingredient_master()
    comm = master.set_index("ingredient_id")["community"]
    for s in specs:
        if s.code == "OTHER" or by_code(s.code).pairing_sign > 0:
            continue
        head = s.pool[: _head_size(len(s.pool))]
        counts = comm.loc[head].value_counts()
        assert comm.loc[head].nunique() >= 8
        assert counts.max() <= int(np.ceil(len(head) / 8))


def test_weights_decreasing_along_ranks_modulo_boosts(specs):
    # After dividing out the region's category boosts, the remaining
    # Zipf component must be strictly decreasing in rank.
    master = ingredient_master()
    cat_of = master.set_index("ingredient_id")["category"]
    for s in specs:
        region = OTHER_REGION if s.code == "OTHER" else by_code(s.code)
        boosts = np.array(
            [region.category_boosts.get(cat_of.loc[i], 1.0) for i in s.pool]
        )
        zipf = s.weights / boosts
        assert (np.diff(zipf) < 0).all()


def test_sample_sizes_bounds():
    rng = np.random.default_rng(0)
    sizes = sample_sizes(rng, 20_000, 400)
    assert sizes.min() >= 2 and sizes.max() <= 25
    assert abs(sizes.mean() - 9.0) < 0.1


def _topk_rows(rng, weights, sizes):
    """:func:`topk_rows` as one array per row of ``sizes[i]`` indices."""
    order = topk_rows(rng, weights, len(sizes), len(weights), sizes.max())
    return [row[:size] for row, size in zip(order, sizes)]


def test_topk_rows_distinct_and_sized():
    rng = np.random.default_rng(1)
    w = np.arange(1, 51)[::-1].astype(float)
    sizes = np.array([3, 10, 50])
    rows = _topk_rows(rng, w, sizes)
    for idx, row in zip(sizes, rows):
        assert len(row) == idx
        assert len(np.unique(row)) == idx


def test_topk_rows_respects_weights():
    rng = np.random.default_rng(2)
    w = np.array([100.0, 1.0, 1.0, 1.0])
    picks = _topk_rows(rng, w, np.ones(2000, dtype=int))
    first = np.array([p[0] for p in picks])
    assert (first == 0).mean() > 0.9


@pytest.mark.parametrize("seed", [0, 11, 12345])
def test_topk_rows_draws_the_gumbel_orders(seed):
    """The same stream gives the Gumbel form's full orders, weighted and uniform."""
    for spec in region_specs(1.0, 11):
        p = len(spec.weights)
        for weights, log_w in ((spec.weights, np.log(spec.weights)), (None, np.zeros(p))):
            got = topk_rows(np.random.default_rng([seed, p]), weights, 40, p, p)
            ref = gumbel_topk_rows(np.random.default_rng([seed, p]), log_w, np.full(40, p))
            assert np.array_equal(got, np.array(ref)), (spec.code, weights is None)


#: χ²₀.₉₉₉ with 19 degrees of freedom: the 20 ordered pairs of 5 candidates.
_CHI2_19_ALPHA_0001 = 43.82


@pytest.mark.parametrize("weights", [np.array([5.0, 3.0, 2.0, 1.0, 0.5]), None])
def test_topk_rows_ordered_pairs_are_exact(weights):
    """First-two draws match successive sampling w_i/W · w_j/(W − w_i), χ² at α = 0.001."""
    w = np.ones(5) if weights is None else weights
    rows = 200_000
    order = topk_rows(np.random.default_rng(2006), weights, rows, 5, 2)
    observed = np.bincount(order[:, 0] * 5 + order[:, 1], minlength=25).reshape(5, 5)
    total = w.sum()
    exact = w[:, None] / total * w[None, :] / (total - w[:, None])
    off = ~np.eye(5, dtype=bool)
    assert observed[~off].sum() == 0
    expected = rows * exact[off]
    chi2 = ((observed[off] - expected) ** 2 / expected).sum()
    assert chi2 < _CHI2_19_ALPHA_0001, chi2


def test_generate_batch_deterministic(specs):
    s = specs[0]
    a_sizes, a_members = generate_batch(s, 0, 50, 11)
    b_sizes, b_members = generate_batch(s, 0, 50, 11)
    assert np.array_equal(a_sizes, b_sizes)
    assert np.array_equal(a_members, b_members)


def test_generate_batch_varies_with_start(specs):
    s = specs[0]
    _, a = generate_batch(s, 0, 10, 11)
    _, b = generate_batch(s, 10, 10, 11)
    assert not np.array_equal(a[: min(len(a), len(b))], b[: min(len(a), len(b))])


def test_generate_batch_recipes_from_pool(specs):
    for s in specs[:5]:
        sizes, members = generate_batch(s, 0, 30, 11)
        assert members.dtype == np.int64 and len(members) == sizes.sum()
        recs = np.split(members, np.cumsum(sizes)[:-1])
        pool = set(s.pool.tolist())
        for size, rec in zip(sizes, recs):
            assert len(rec) == size
            assert len(set(rec.tolist())) == size  # no duplicate ingredients
            assert set(rec.tolist()) <= pool


def test_other_region_constants():
    assert OTHER_REGION.recipes == 207
    assert OTHER_REGION.code == "OTHER"


def test_zipf_alpha_sane():
    assert 0.5 <= ZIPF_ALPHA <= 1.5


def test_specs_cached_and_typed(specs):
    assert isinstance(specs[0], RegionSpec)
    assert region_specs(0.05, 11) is specs
