"""Lexicon trie and multi-pattern matching of lexicon words inside sentences.

A sentence is a sequence of characters; every lexicon word that occurs as a
contiguous slice of it becomes a matched word with an inclusive (head, tail)
character span. Matched words are later classified by their relation to the
gold entity spans (Match / Cover / Disturb).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Word property labels: exact entity span / strictly inside an entity / neither.
MATCH, COVER, DISTURB = 0, 1, 2
LEC_LABEL_NAMES = ("Match", "Cover", "Disturb")


class LexiconTrie:
    """Prefix tree over multi-character lexicon words, as nested dicts keyed
    by character; the key ``None`` marks the end of a word.

    Immutable after :func:`build_trie`; matching only reads it, so one trie
    may serve many sentences concurrently.
    """

    def __init__(self) -> None:
        self.root: dict = {}
        self.words: list[str] = []
        self.max_word_len = 0


@dataclass(frozen=True)
class MatchedWord:
    """A lexicon word occurring at a specific position of a sentence.

    head/tail are 0-based inclusive character indices; the sentence slice
    [head..tail] equals ``surface``.
    """

    surface: str
    head: int
    tail: int


def build_trie(lexicon: Iterable[str], max_word_len: int = 0) -> LexiconTrie:
    """Build a trie from lexicon words, de-duplicating entries.

    Single-character entries are skipped: they would only duplicate the
    character nodes of the lattice. Empty entries are rejected. A positive
    ``max_word_len`` skips longer entries as well, bounding the per-position
    matching cost; 0 caps nothing, as in ``ModelDims``.
    """
    trie = LexiconTrie()
    for word in lexicon:
        if word == "":
            raise ValueError("lexicon contains an empty entry")
        if len(word) < 2:
            continue
        if max_word_len and len(word) > max_word_len:
            continue
        node = trie.root
        for ch in word:
            node = node.setdefault(ch, {})
        if None not in node:
            node[None] = True
            trie.words.append(word)
            trie.max_word_len = max(trie.max_word_len, len(word))
    return trie


def match_sentence(
    trie: LexiconTrie, sentence: Sequence[str]
) -> tuple[list[MatchedWord], list[list[int]]]:
    """Find every lexicon word occurring in the sentence.

    Returns the full word set as a list of :class:`MatchedWord` sorted by
    (head, tail) -- a word's id is its index in that list -- and the
    per-character word subset index: for character i, the sorted ids of all
    words whose span contains i. The same surface at different positions
    yields distinct matched words.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("sentence is empty")
    words: list[MatchedWord] = []
    for head in range(n):
        node = trie.root
        limit = min(n, head + trie.max_word_len)
        for tail in range(head, limit):
            node = node.get(sentence[tail])
            if node is None:
                break
            if None in node:
                surface = "".join(sentence[head : tail + 1])
                words.append(MatchedWord(surface, head, tail))
    subsets: list[list[int]] = [[] for _ in range(n)]
    for j, w in enumerate(words):
        for i in range(w.head, w.tail + 1):
            subsets[i].append(j)
    return words, subsets


def label_lec(
    words: Sequence[MatchedWord],
    gold_entities: Sequence[tuple[int, int, str]],
) -> list[int]:
    """Assign each matched word its entity property label.

    Match: the word span equals some gold span. Cover: strictly contained
    inside a gold span. Disturb: everything else (crosses a gold boundary or
    lies entirely outside). Gold spans must not overlap each other.
    """
    spans = sorted((h, t) for h, t, _ in gold_entities)
    for (h1, t1), (h2, t2) in zip(spans, spans[1:]):
        if h2 <= t1:
            raise ValueError(f"gold entity spans overlap: ({h1},{t1}) and ({h2},{t2})")
    exact = set(spans)
    labels = []
    for w in words:
        if (w.head, w.tail) in exact:
            labels.append(MATCH)
        elif any(h <= w.head and w.tail <= t for h, t in spans):
            labels.append(COVER)
        else:
            labels.append(DISTURB)
    return labels
