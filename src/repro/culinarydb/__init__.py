"""Synthetic CulinaryDB substrate.

The paper's corpus (45,772 recipes scraped from AllRecipes, Food Network,
Epicurious and TarlaDalal, grouped into 22 regions) is proprietary and
offline-unavailable, so this package generates the closest synthetic
equivalent, targeting the paper's published corpus properties *by
construction*:

* exact Table 1 recipe counts per region and (via the coverage plan)
  unique-ingredient counts;
* thin-tailed recipe-size distribution with mean ≈ 9 (Fig. 3a);
* Zipf ingredient popularity, the consistent rank–frequency scaling of
  Fig. 3b;
* per-region category preferences matching Fig. 2's reported deviations;
* per-region flavor-pairing bias matching Fig. 4's signs, implemented
  through the popularity *ranking* (popular ingredients mutually similar
  for positive regions, mutually dissimilar for negative ones) — i.e.
  through the mechanism the paper itself identifies as the driver.
"""
from repro.culinarydb.corpus import FlatCorpus, build_corpus, flat_corpus
from repro.culinarydb.generator import RegionSpec, region_specs

__all__ = ["FlatCorpus", "RegionSpec", "build_corpus", "flat_corpus", "region_specs"]
