"""A fixed synthetic corpus whose entities are positionally ambiguous, for the
graph-variant ablation in `test_acceptance.py`."""

import numpy as np

from lexner.data import Corpus, Sentence, spans_to_tags
from lexner.synthetic import FILLER_WORDS, _filler

# ambiguous families: the short surface alone is a PER entity, but inside the
# extended surface it is merely covered by a LOC entity
AMBIGUOUS_FAMILIES = [("gh", "ghi"), ("mn", "mno")]
ANCHOR_ENTITY = ("pq", "ORG")

AMBIGUOUS_LEXICON = (
    [short for short, _ in AMBIGUOUS_FAMILIES]
    + [long for _, long in AMBIGUOUS_FAMILIES]
    + [ANCHOR_ENTITY[0]]
    + FILLER_WORDS
)


def make_ambiguous_corpus() -> tuple[Corpus, Corpus, list[str]]:
    """Train/held-out corpora whose entities are positionally ambiguous.

    The same surface is a gold entity in stand-alone contexts and a
    non-entity (covered by a longer entity) elsewhere, so resolving it needs
    the lattice context. Returns (train, heldout, lexicon): nine sentences
    per case, drawn with seed 11 and split 2:1; contexts differ between the
    two splits only by filler choice and position.
    """
    rng = np.random.default_rng(11)
    cases: list[tuple[str, str, str]] = []  # (surface, type, kind)
    for short, long in AMBIGUOUS_FAMILIES:
        cases.append((short, "PER", "standalone"))
        cases.append((long, "LOC", "extended"))
    cases.append((ANCHOR_ENTITY[0], ANCHOR_ENTITY[1], "anchor"))

    sents: list[Sentence] = []
    for surface, etype, _ in cases:
        for _ in range(9):
            before, mid, after = _filler(rng), _filler(rng), _filler(rng)
            # one extra filler word region keeps several disturb words per sentence
            head = len(before)
            chars = list(before + surface + mid + after)
            spans = [(head, head + len(surface) - 1, etype)]
            sents.append(Sentence(chars, spans_to_tags(spans, len(chars))))
    order = rng.permutation(len(sents))
    split = (2 * len(sents)) // 3
    train = Corpus([sents[i] for i in order[:split]])
    heldout = Corpus([sents[i] for i in order[split:]])
    return train, heldout, list(AMBIGUOUS_LEXICON)
