"""Per-region recipe corpus generation.

Each region gets a :class:`RegionSpec`: an ingredient *pool* (sized to
Table 1's unique-ingredient count), a popularity *ranking* over the pool
(Zipf weights, Fig. 3b), and a recipe-size distribution (shifted Poisson,
mean ≈ 9, Fig. 3a).  Recipes are sampled without replacement with
probability ∝ zipf(rank) × category_boost by :func:`topk_rows`, which
:mod:`repro.core.randomize` shares: it ranks ``-log1p(-u) / w`` ascending,
an Exp(1)/w key per uniform ``u`` (Efraimidis & Spirakis, IPL 2006).
NumPy's ``gumbel`` takes the same one draw per element and returns
``-log(-log(1 - u))``, so ``log w + gumbel`` ranks descending in the same
order: these are the Gumbel top-k draws of the same stream.  A batch is
a pure function of ``(scale, seed, region, start)``.  Only the driver
generates recipes (``culinarydb.corpus.flat_corpus``, which also
applies the coverage swaps); Spark reads them from a broadcast.

Pairing-sign mechanism (Fig. 4, encoded per DESIGN.md §2):

* **positive** regions — pool drawn from all flavor communities (low
  average pairwise overlap), but the popularity *head* is concentrated
  in 1–2 signature communities (high mutual overlap).  Frequency-biased
  real recipes therefore overshoot the uniform-random baseline.
* **negative** regions — pool *bulk* concentrated in 2 signature
  communities (high average overlap), but the head is spread one-per-
  community outside them (low mutual overlap).  Real recipes undershoot
  the baseline.

Because the sign is carried entirely by the popularity ranking, the
paper's model findings follow: the Ingredient Frequency model reproduces
the pairing pattern, the Ingredient Category model does not.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.flavordb.ingredients import ingredient_master
from repro.flavordb.molecules import N_COMMUNITIES
from repro.regions import REGIONS, Region

#: Zipf exponent for ingredient popularity (rank weight ∝ 1/(rank+1)^α).
ZIPF_ALPHA = 0.9

#: Recipe size = 2 + Poisson(7), clipped to [2, 25] → mean ≈ 9, thin tail.
SIZE_SHIFT, SIZE_LAMBDA, SIZE_MAX = 2, 7.0, 25

#: Pseudo-region for the 207 recipes used only in the WORLD aggregate
#: (Portugal, Belgium, Central America, Netherlands — Materials §A).
OTHER_REGION = Region("OTHER", "Other (WORLD only)", 207, 150, +1)


@dataclass(frozen=True)
class RegionSpec:
    """Resolved generation parameters for one region at a given scale.

    ``pool`` is ordered by popularity rank (rank 0 = most popular);
    ``weights`` are the unnormalized sampling weights aligned to it.
    """

    code: str
    n_recipes: int
    pool: np.ndarray  # ingredient ids, popularity-rank order
    weights: np.ndarray  # sampling weight per pool position
    pairing_sign: int
    recipe_offset: int  # global index of the region's first recipe


def _scaled_counts(region: Region, scale: float) -> tuple[int, int]:
    """(n_recipes, pool_size) at ``scale``; scale=1.0 → exact Table 1."""
    n_recipes = max(30, round(region.recipes * scale))
    if scale >= 1.0:
        pool_size = region.ingredients
    else:
        # Unique-ingredient targets shrink sublinearly so the coverage
        # pass stays feasible (pool must fit in n_recipes × avg size slots).
        pool_size = min(region.ingredients, max(20, round(region.ingredients * scale**0.4)))
    return n_recipes, pool_size


def _signature_communities(region_idx: int) -> np.ndarray:
    """Two deterministic signature communities for a region."""
    return np.array([region_idx % N_COMMUNITIES, (region_idx * 5 + 3) % N_COMMUNITIES])


def _head_size(pool_size: int) -> int:
    return min(50, max(12, pool_size // 5))


def _weighted_pick(
    rng: np.random.Generator, candidates: np.ndarray, weights: np.ndarray, k: int
) -> np.ndarray:
    """k distinct picks from candidates with probability ∝ weights."""
    k = min(k, len(candidates))
    p = weights / weights.sum()
    return rng.choice(candidates, size=k, replace=False, p=p)


def _category_weights(region: Region, categories: np.ndarray) -> np.ndarray:
    """Per-ingredient multiplicative weight from the region's Fig. 2 boosts."""
    w = np.ones(len(categories))
    for cat, boost in region.category_boosts.items():
        w[categories == cat] = boost
    return w


def _build_pool(region: Region, region_idx: int, pool_size: int, seed: int) -> np.ndarray:
    """Popularity-ranked ingredient pool implementing the sign mechanism."""
    master = ingredient_master()
    rng = np.random.default_rng([seed, region_idx, 0xA0])
    ids = master["ingredient_id"].to_numpy()
    comm = master["community"].to_numpy()
    cats = master["category"].to_numpy()
    catw = _category_weights(region, cats)
    sig = _signature_communities(region_idx)
    in_sig = np.isin(comm, sig)
    head = _head_size(pool_size)

    if region.pairing_sign > 0:
        # Head: signature-community ingredients (mutually similar).
        head_ids = _weighted_pick(rng, ids[in_sig], catw[in_sig], head)
        # Tail: anything else, all communities (low average overlap).
        rest_mask = ~np.isin(ids, head_ids)
        tail_ids = _weighted_pick(rng, ids[rest_mask], catw[rest_mask], pool_size - head)
        rng.shuffle(tail_ids)
    else:
        # Head: round-robin across non-signature communities (mutually
        # dissimilar): at most one ingredient per community per lap.
        non_sig_comms = np.setdiff1d(np.arange(N_COMMUNITIES), sig)
        head_list: list[int] = []
        lap = 0
        chosen: set[int] = set()
        while len(head_list) < head and lap < 10:
            for c in non_sig_comms:
                if len(head_list) >= head:
                    break
                cand_mask = (comm == c) & ~np.isin(ids, list(chosen))
                if cand_mask.any():
                    pick = _weighted_pick(rng, ids[cand_mask], catw[cand_mask], 1)[0]
                    head_list.append(int(pick))
                    chosen.add(int(pick))
            lap += 1
        head_ids = np.array(head_list)
        # Bulk: 55% from the two signature communities (high average
        # overlap), 45% from anywhere else.
        n_tail = pool_size - len(head_ids)
        n_sig_bulk = round(0.55 * n_tail)
        sig_mask = in_sig & ~np.isin(ids, head_ids)
        sig_bulk = _weighted_pick(rng, ids[sig_mask], catw[sig_mask], n_sig_bulk)
        rest_mask = ~np.isin(ids, np.concatenate([head_ids, sig_bulk]))
        rest_bulk = _weighted_pick(
            rng, ids[rest_mask], catw[rest_mask], n_tail - len(sig_bulk)
        )
        tail_ids = np.concatenate([sig_bulk, rest_bulk])
        rng.shuffle(tail_ids)

    pool = np.concatenate([head_ids, tail_ids])
    assert len(pool) == len(np.unique(pool)) == pool_size
    return pool


@lru_cache(maxsize=8)
def region_specs(scale: float = 1.0, seed: int = 11) -> tuple[RegionSpec, ...]:
    """Resolved :class:`RegionSpec` for every region at ``scale``, then ``OTHER``.

    Sampling weight of pool position r is ``zipf(r) × category_boost``,
    so popular ranks dominate usage (Fig. 3b) while regional category
    preferences (Fig. 2) shift the marginal category shares.
    """
    master = ingredient_master()
    cat_by_id = master.set_index("ingredient_id")["category"]
    regions = [*REGIONS, OTHER_REGION]
    specs: list[RegionSpec] = []
    offset = 0
    for idx, region in enumerate(regions):
        n_recipes, pool_size = _scaled_counts(region, scale)
        pool = _build_pool(region, idx, pool_size, seed)
        zipf = 1.0 / (np.arange(pool_size) + 1.0) ** ZIPF_ALPHA
        catw = _category_weights(region, cat_by_id.loc[pool].to_numpy())
        specs.append(
            RegionSpec(
                code=region.code,
                n_recipes=n_recipes,
                pool=pool,
                weights=zipf * catw,
                pairing_sign=region.pairing_sign,
                recipe_offset=offset,
            )
        )
        offset += n_recipes
    return tuple(specs)


def sample_sizes(rng: np.random.Generator, n: int, max_size: int) -> np.ndarray:
    """Recipe sizes: 2 + Poisson(7), clipped to [2, min(25, max_size)]."""
    return np.clip(SIZE_SHIFT + rng.poisson(SIZE_LAMBDA, n), 2, min(SIZE_MAX, max_size))


def topk_rows(
    rng: np.random.Generator, weights: np.ndarray | None, rows: int, n: int, k: int
) -> np.ndarray:
    """(rows × k) indices into ``n`` candidates: each row the first k of a
    random order without replacement ∝ ``weights`` (uniform if ``None``:
    the draws ``u`` rank as they are).  The Gumbel form differs only where
    ``gumbel`` redraws an exact ``u = 0`` (probability 2⁻⁵³ per draw) and
    where rounding flips two keys within an ulp of each other.
    """
    keys = rng.random((rows, n))
    if weights is not None:
        np.log1p(np.negative(keys, out=keys), out=keys)
        np.divide(keys, -weights, out=keys)
    return np.argsort(keys, axis=1)[:, :k]


def generate_batch(
    spec: RegionSpec, start: int, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` recipes for a region, local indices [start, start+count).

    Returns (sizes, members): each recipe's size, and the recipes'
    ingredient ids concatenated in recipe order, ``sizes[r]`` of them for
    recipe r.  Deterministic in (spec.code, start, seed).
    """
    # zlib.crc32, not hash(): str hash is salted per Python process, so
    # crc32 keeps the corpus the same in every process that generates it.
    rng = np.random.default_rng([seed, zlib.crc32(spec.code.encode()), start])
    sizes = sample_sizes(rng, count, len(spec.pool))
    top = topk_rows(rng, spec.weights, count, len(spec.pool), sizes.max())
    return sizes, spec.pool[top[np.arange(top.shape[1]) < sizes[:, None]]]
