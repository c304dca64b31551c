"""Seeded input generator for the benchmark workloads.

A sentence alternates filler runs (contiguous slices of lexner's synthetic
filler alphabet) with entity surfaces, and ends with one filler slice that
brings it to exactly the target length. Every entity surface, many filler
runs and the entity/filler boundaries are words of the synthetic lexicon, so
the lattice is dense (about 0.93 matched words per character). The seed is
the generator's only input; lexner receives the characters, the gold spans
and the lexicon.
"""

from __future__ import annotations

import numpy as np

from lexner import synthetic

LEXICON = list(synthetic.OVERFIT_LEXICON)
_WORDS = sorted({w for w in LEXICON if len(w) >= 2})  # the trie skips 1-char entries
ENTITY_TYPES = sorted(set(synthetic.ENTITY_TYPES.values()))
ALPHABET = sorted(set("".join(synthetic.ENTITY_TYPES)) | set(synthetic.FILLER))

Span = tuple[int, int, str]


def make_sentences(
    seed: int, count: int, length: int, words: int
) -> list[tuple[list[str], list[Span]]]:
    """`count` sentences of exactly `length` characters and `words` lexicon
    word occurrences, each with its inclusive gold entity spans."""
    if length < 1:
        raise ValueError("sentence length must be positive")
    rng = np.random.default_rng(seed)
    out: list[tuple[list[str], list[Span]]] = []
    for _ in range(1000 * count):
        chars, spans = _sentence(rng, length)
        if matched_words(chars) == words:
            out.append((chars, spans))
            if len(out) == count:
                return out
    raise ValueError(f"no {length}-character sentences with {words} words in {1000 * count} draws")


def matched_words(chars: list[str]) -> int:
    """Occurrences of lexicon words in the sentence, overlapping ones included."""
    text = "".join(chars)
    return sum(text.startswith(w, i) for i in range(len(text)) for w in _WORDS)


def _sentence(rng: np.random.Generator, length: int) -> tuple[list[str], list[Span]]:
    filler = synthetic.FILLER
    surfaces = list(synthetic.ENTITY_TYPES)
    chars: list[str] = []
    spans: list[Span] = []
    while True:
        left = length - len(chars)
        # a filler run of 2-4 leaves at least 4 characters, room for any entity
        last = left <= len(filler)
        run = left if last else int(rng.integers(2, 5))
        start = int(rng.integers(0, len(filler) - run + 1))
        chars.extend(filler[start : start + run])
        if last:
            return chars, spans
        surface = surfaces[int(rng.integers(0, len(surfaces)))]
        spans.append((len(chars), len(chars) + len(surface) - 1, synthetic.ENTITY_TYPES[surface]))
        chars.extend(surface)
