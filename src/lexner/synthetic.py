"""Synthetic corpora for end-to-end exercises.

Sentences are built from two disjoint alphabets: entity surfaces use a-l,
filler runs use contiguous slices of "tuvwxyz". The lexicon is constructed so
that every gold entity has an exact-match lexicon word, some words sit
strictly inside entities, and filler or boundary-crossing words disturb.
"""

from __future__ import annotations

import numpy as np

from .data import Corpus, Sentence, spans_to_tags

FILLER = "tuvwxyz"

# surface -> entity type; constant across every generated corpus
ENTITY_TYPES = {
    "abc": "PER", "ad": "PER",
    "efg": "LOC", "eh": "LOC",
    "ijk": "ORG", "il": "ORG",
}

COVER_WORDS = ["ab", "bc", "ef", "fg", "ij", "jk"]
FILLER_WORDS = ["tu", "uv", "vw", "wx", "xy", "yz", "tuv", "wxy", "uvw", "xyz"]
# filler char + entity head, or entity tail + filler char
CROSSING_WORDS = ["za", "ze", "zi", "ct", "dt", "gt", "ht", "kt"]

OVERFIT_LEXICON = list(ENTITY_TYPES) + COVER_WORDS + FILLER_WORDS + CROSSING_WORDS


def _filler(rng: np.random.Generator) -> str:
    """A run of 2 to 4 consecutive filler characters."""
    length = int(rng.integers(2, 5))
    start = int(rng.integers(0, len(FILLER) - length + 1))
    return FILLER[start : start + length]


def make_overfit_corpus(seed: int = 7) -> tuple[Corpus, list[str]]:
    """50 sentences an expressive-enough model can memorize perfectly.

    Every entity surface is in the lexicon (a Match word per entity), cover
    and crossing/filler words are present, and at least five distinct
    surfaces match only as disturbances. Both hold by construction: each
    entity is a lexicon word, and every third sentence, the first included,
    wraps its entities in "xyz" ... "tuv", whose six filler words only
    disturb. The corpus is not re-matched here; the tests check it.
    """
    rng = np.random.default_rng(seed)
    surfaces = list(ENTITY_TYPES)
    sents: list[Sentence] = []
    for k in range(50):
        parts: list[str] = []
        spans: list[tuple[int, int, str]] = []
        n_entities = 1 + int(rng.integers(0, 2))
        for e in range(n_entities):
            surface = surfaces[int(rng.integers(0, len(surfaces)))]
            # every few sentences, pin the neighboring filler so that a
            # boundary-crossing lexicon word actually occurs
            if k % 3 == 0:
                before, after = "xyz", "tuv"
            else:
                before, after = _filler(rng), _filler(rng)
            start = sum(len(p) for p in parts) + len(before)
            parts.extend([before, surface])
            spans.append((start, start + len(surface) - 1, ENTITY_TYPES[surface]))
            if e == n_entities - 1:
                parts.append(after)
        chars = list("".join(parts))
        sents.append(Sentence(chars, spans_to_tags(spans, len(chars))))
    return Corpus(sents), list(OVERFIT_LEXICON)

