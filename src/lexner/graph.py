"""Unified multi-source lattice graph: character nodes, word nodes, and masks.

Characters form a fully connected source, so they need no mask; words are
connected to each other when their spans overlap (they are assigned to a
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

    word_mask is the m x m intra-source mask (ones where spans overlap, ones
    on the diagonal). inter_mask is the n x m character-word adjacency: row i
    marks the words adjacent to character i, column j the characters adjacent
    to word j.
    """

    n: int
    m: int
    words: list[MatchedWord]
    word_mask: np.ndarray
    inter_mask: np.ndarray


def build_graph(n: int, words: list[MatchedWord]) -> LatticeGraph:
    """Assemble the graph for a sentence of n characters and its matched words."""
    if n <= 0:
        raise ValueError("sentence length must be positive")
    for w in words:
        if not (0 <= w.head <= w.tail < n):
            raise ValueError(f"word span ({w.head},{w.tail}) out of range for n={n}")
    m = len(words)
    heads = np.array([w.head for w in words], dtype=np.int64).reshape(1, m)
    tails = np.array([w.tail for w in words], dtype=np.int64).reshape(1, m)
    # spans overlap iff neither ends before the other starts
    word_mask = ((heads.T <= tails) & (heads <= tails.T)).astype(np.uint8)
    chars = np.arange(n).reshape(n, 1)
    inter_mask = ((heads <= chars) & (chars <= tails)).astype(np.uint8)
    return LatticeGraph(n, m, list(words), word_mask, inter_mask)


def graph_variant(graph: LatticeGraph, variant: str) -> LatticeGraph:
    """Derive an edge-construction ablation of the graph.

    standard: unchanged copy. wo_word_edge: word-word edges removed (mask is
    the identity). fc_intra: all word pairs connected. fc_inter: every
    character adjacent to every word.
    """
    if variant not in GRAPH_VARIANTS:
        raise ValueError(f"unknown graph variant {variant!r}; expected one of {GRAPH_VARIANTS}")
    n, m = graph.n, graph.m
    word_mask = graph.word_mask.copy()
    inter_mask = graph.inter_mask.copy()
    if variant == "wo_word_edge":
        word_mask = np.eye(m, dtype=np.uint8)
    elif variant == "fc_intra":
        word_mask = np.ones((m, m), dtype=np.uint8)
    elif variant == "fc_inter":
        inter_mask = np.ones((n, m), dtype=np.uint8)
    return LatticeGraph(n, m, list(graph.words), word_mask, inter_mask)


def serialize_graph(graph: LatticeGraph) -> str:
    """Render the graph as a line-oriented text document (debugging, fixtures)."""
    lines = [f"n {graph.n}", f"m {graph.m}"]
    for j, w in enumerate(graph.words):
        lines.append(f"word {j} {w.head} {w.tail} {w.surface}")
    for j in range(graph.m):
        for k in range(j + 1, graph.m):
            if graph.word_mask[j, k]:
                lines.append(f"word_edge {j} {k}")
    for i, row in enumerate(graph.inter_mask):
        lines.append("char_words " + " ".join(str(x) for x in [i, *np.flatnonzero(row)]))
    return "\n".join(lines) + "\n"
