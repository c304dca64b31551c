"""Unified multi-source lattice graph: character nodes, word nodes, and edges.

Characters form a fully connected source, so they need no edge list; words
are connected to each other when their spans overlap (they are assigned to a
common character), and every character is connected to each word whose span
contains it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import MatchedWord

GRAPH_VARIANTS = ("standard", "wo_word_edge", "fc_intra", "fc_inter")


@dataclass
class LatticeGraph:
    """Immutable node/edge structure of one sentence's lattice.

    Each edge list is a (2, E) integer array of (receiver, sender) columns,
    sorted by receiver and then by sender, built once per sentence. char_word
    holds the character-word edges as (char, word); read as char_word[::-1],
    the same columns are (word, char) edges, each word's chars in index order.
    word_word holds the word-word edges, self-loops included.
    """

    n: int
    m: int
    words: list[MatchedWord]
    char_word: np.ndarray
    word_word: np.ndarray


def build_graph(n: int, words: list[MatchedWord]) -> LatticeGraph:
    """Assemble the graph for a sentence of n characters and its matched words."""
    if n <= 0:
        raise ValueError("sentence length must be positive")
    for w in words:
        if not (0 <= w.head <= w.tail < n):
            raise ValueError(f"word span ({w.head},{w.tail}) out of range for n={n}")
    m = len(words)
    heads = np.array([w.head for w in words], dtype=np.int64)
    tails = np.array([w.tail for w in words], dtype=np.int64)
    lengths = tails - heads + 1
    # word j covers characters heads[j]..tails[j]; a stable sort puts them by char
    word = np.repeat(np.arange(m), lengths)
    char = np.arange(len(word)) + np.repeat(heads - (np.cumsum(lengths) - lengths), lengths)
    by_char = np.argsort(char, kind="stable")
    # spans overlap iff neither ends before the other starts
    overlap = (heads[:, None] <= tails) & (heads <= tails[:, None])
    word_word = np.stack(np.divmod(np.flatnonzero(overlap), m))
    return LatticeGraph(n, m, list(words), np.stack([char[by_char], word[by_char]]), word_word)


def graph_variant(graph: LatticeGraph, variant: str) -> LatticeGraph:
    """Derive an edge-construction ablation of the graph.

    standard: a new graph sharing the (never written) edge arrays.
    wo_word_edge: word-word edges removed (only self-loops stay). fc_intra:
    all word pairs connected. fc_inter: every character adjacent to every word.
    """
    if variant not in GRAPH_VARIANTS:
        raise ValueError(f"unknown graph variant {variant!r}; expected one of {GRAPH_VARIANTS}")
    n, m = graph.n, graph.m
    char_word, word_word = graph.char_word, graph.word_word
    if variant == "wo_word_edge":
        word_word = np.tile(np.arange(m), (2, 1))
    elif variant == "fc_intra":
        word_word = np.indices((m, m)).reshape(2, -1)
    elif variant == "fc_inter":
        char_word = np.indices((n, m)).reshape(2, -1)
    return LatticeGraph(n, m, list(graph.words), char_word, word_word)


def serialize_graph(graph: LatticeGraph) -> str:
    """Render the graph as a line-oriented text document (debugging, fixtures)."""
    lines = [f"n {graph.n}", f"m {graph.m}"]
    for j, w in enumerate(graph.words):
        lines.append(f"word {j} {w.head} {w.tail} {w.surface}")
    for j, k in graph.word_word.T:
        if j < k:
            lines.append(f"word_edge {j} {k}")
    chars, words = graph.char_word
    for i, row in enumerate(np.split(words, np.searchsorted(chars, np.arange(1, graph.n)))):
        lines.append("char_words " + " ".join(str(x) for x in [i, *row]))
    return "\n".join(lines) + "\n"
