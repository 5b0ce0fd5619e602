"""Raw ingredient phrase → ingredient id, in pandas on the driver.

For each phrase: normalize (``textnorm``), generate n-grams longest-first
(``ngrams``) and look them up in the normalized lexicon of ingredient
names + synonyms.  Match statuses, mirroring the paper's protocol of
explicitly labeling partial and unrecognized entries for curation:

* ``exact``     — a lexicon n-gram consumed every content token;
* ``partial``   — a lexicon n-gram matched but tokens were left over;
* ``unmatched`` — no n-gram hit; ``ingredient_id`` is null.
"""
from __future__ import annotations

import pandas as pd

from repro.aliasing.ngrams import ngrams
from repro.aliasing.textnorm import normalize, normalize_name, pluralize
from repro.flavordb.ingredients import ingredient_master


def build_lexicon() -> dict[str, int]:
    """Normalized name/synonym → ingredient_id lookup table.

    Raises if two distinct ingredients normalize to the same key — a
    lexicon collision would silently mis-map phrases.
    """
    master = ingredient_master()
    out: dict[str, int] = {}
    for ing_id, name, synonyms in zip(master["ingredient_id"].tolist(), master["name"], master["synonyms"]):
        for raw_name in (name, *synonyms):
            # Register both the singular-derived and the plural-derived key:
            # rule-based singularization is not a perfect inverse of
            # pluralization ("cheeses" → "chees" but "cheese" → "cheese"),
            # so both surface forms must resolve to the ingredient.
            for key in {normalize_name(raw_name), normalize_name(pluralize(raw_name))}:
                if key in out and out[key] != ing_id:
                    raise ValueError(
                        f"lexicon collision: {raw_name!r} → {key!r} maps to both "
                        f"{out[key]} and {ing_id}"
                    )
                out[key] = ing_id
    return out


def alias_one(phrase: str, lex: dict[str, int]) -> tuple[int | None, str]:
    """Map a single phrase; returns (ingredient_id or None, status)."""
    tokens = normalize(phrase)
    if not tokens:
        return None, "unmatched"
    for _start, length, gram in ngrams(tokens):
        ing_id = lex.get(gram)
        if ing_id is not None:
            return ing_id, "exact" if length == len(tokens) else "partial"
    return None, "unmatched"


def alias_phrases(phrases: pd.DataFrame) -> pd.DataFrame:
    """``phrases`` plus ``mapped_id`` (``Int64``, null when unmatched) and
    ``status``, one :func:`alias_one` per row of its ``phrase`` column."""
    lex = build_lexicon()
    hits = [alias_one(phrase, lex) for phrase in phrases["phrase"]]
    return phrases.assign(
        mapped_id=pd.array([ing_id for ing_id, _ in hits], dtype="Int64"),
        status=[status for _, status in hits],
    )
