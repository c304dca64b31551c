"""Lattice graph construction, masks, adjacency, and edge variants."""

import numpy as np
import pytest

from lexner.graph import GRAPH_VARIANTS, build_graph, graph_variant, serialize_graph
from lexner.matching import MatchedWord


def words_from_spans(spans):
    return [
        MatchedWord(j, "w" * (t - h + 1), h, t) for j, (h, t) in enumerate(spans)
    ]


# the three overlapping words attached to the shared character at index 2
HALL_WORDS = [
    MatchedWord(0, "北京人", 0, 2),
    MatchedWord(1, "人民", 2, 3),
    MatchedWord(2, "人民大会堂", 2, 6),
]


class TestBuildGraph:
    def test_no_words(self):
        g = build_graph(3, [])
        assert g.m == 0
        assert g.word_mask.shape == (0, 0)
        assert g.inter_mask.shape == (3, 0)

    def test_all_pairwise_overlapping(self):
        g = build_graph(7, HALL_WORDS)
        assert np.array_equal(g.word_mask, np.ones((3, 3), dtype=np.uint8))

    def test_disjoint_spans(self):
        g = build_graph(5, words_from_spans([(0, 1), (3, 4)]))
        assert np.array_equal(g.word_mask, np.eye(2, dtype=np.uint8))

    def test_word_mask_matches_overlap_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            spans = []
            for _ in range(int(rng.integers(0, 8))):
                h = int(rng.integers(0, n - 1))
                t = min(n - 1, h + int(rng.integers(1, 5)))
                spans.append((h, t))
            g = build_graph(n, words_from_spans(spans))
            for j, (hj, tj) in enumerate(spans):
                for k, (hk, tk) in enumerate(spans):
                    overlap = len(set(range(hj, tj + 1)) & set(range(hk, tk + 1))) > 0
                    assert bool(g.word_mask[j, k]) == overlap
            assert np.array_equal(g.word_mask, g.word_mask.T)
            assert np.all(np.diag(g.word_mask) == 1) or g.m == 0

    def test_inter_mask_matches_span_oracle(self):
        g = build_graph(7, HALL_WORDS)
        assert g.inter_mask.shape == (7, 3)
        assert g.inter_mask.dtype == np.uint8
        for i in range(7):
            for j, w in enumerate(HALL_WORDS):
                assert g.inter_mask[i, j] == (w.head <= i <= w.tail)
        assert g.inter_mask.sum() == sum(w.length for w in HALL_WORDS)

    def test_out_of_range_span_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [MatchedWord(0, "xyz", 1, 3)])
        with pytest.raises(ValueError):
            build_graph(0, [])

    def test_pure_function_of_inputs(self):
        a = build_graph(7, HALL_WORDS)
        b = build_graph(7, HALL_WORDS)
        assert np.array_equal(a.word_mask, b.word_mask)
        assert np.array_equal(a.inter_mask, b.inter_mask)


class TestGraphVariant:
    def test_standard_is_deep_equal(self):
        g = build_graph(7, HALL_WORDS)
        v = graph_variant(g, "standard")
        assert v is not g
        assert np.array_equal(v.word_mask, g.word_mask)
        assert np.array_equal(v.inter_mask, g.inter_mask)
        assert v.inter_mask is not g.inter_mask

    def test_wo_word_edge_gives_identity_mask(self):
        v = graph_variant(build_graph(7, HALL_WORDS), "wo_word_edge")
        assert np.array_equal(v.word_mask, np.eye(3, dtype=np.uint8))

    def test_fc_intra_gives_full_mask(self):
        g = build_graph(5, words_from_spans([(0, 1), (3, 4)]))
        v = graph_variant(g, "fc_intra")
        assert np.array_equal(v.word_mask, np.ones((2, 2), dtype=np.uint8))

    def test_fc_inter_connects_every_pair(self):
        g = build_graph(3, words_from_spans([(0, 1), (1, 2)]))
        v = graph_variant(g, "fc_inter")
        assert np.array_equal(v.inter_mask, np.ones((3, 2), dtype=np.uint8))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            graph_variant(build_graph(3, []), "nonsense")

    def test_variant_does_not_mutate_base(self):
        g = build_graph(7, HALL_WORDS)
        before = g.word_mask.copy()
        inter_before = g.inter_mask.copy()
        for variant in GRAPH_VARIANTS:
            graph_variant(g, variant)
        assert np.array_equal(g.word_mask, before)
        assert np.array_equal(g.inter_mask, inter_before)


def test_serialize_graph_lists_nodes_and_edges():
    g = build_graph(7, HALL_WORDS)
    text = serialize_graph(g)
    assert "n 7" in text and "m 3" in text
    assert "word 0 0 2 北京人" in text
    assert "word_edge 0 1" in text and "word_edge 1 2" in text
    assert "char_words 2 0 1 2" in text
