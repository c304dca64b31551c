"""Lattice graph construction: the edge lists, their order, and the edge variants."""

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


def pairs(edges):
    """The columns of a (2, E) edge list as a list of (receiver, sender) tuples."""
    return [tuple(int(x) for x in col) for col in edges.T]


def assert_edges_equal(a, b):
    for name in ("char_word", "word_word"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestBuildGraph:
    def test_no_words(self):
        g = build_graph(3, [])
        assert g.m == 0
        for edges in (g.char_word, g.word_word):
            assert edges.shape == (2, 0) and edges.dtype.kind == "i"

    def test_all_pairwise_overlapping(self):
        g = build_graph(7, HALL_WORDS)
        assert pairs(g.word_word) == [(j, k) for j in range(3) for k in range(3)]

    def test_disjoint_spans(self):
        g = build_graph(5, words_from_spans([(0, 1), (3, 4)]))
        assert pairs(g.word_word) == [(0, 0), (1, 1)]

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
            expect = [
                (j, k)
                for j, (hj, tj) in enumerate(spans)
                for k, (hk, tk) in enumerate(spans)
                if set(range(hj, tj + 1)) & set(range(hk, tk + 1))
            ]
            # sorted by destination, then source: the order the edge softmax needs
            assert pairs(g.word_word) == expect
            assert set(expect) == {(k, j) for j, k in expect}
            assert all((j, j) in expect for j in range(g.m))

    def test_inter_mask_matches_span_oracle(self):
        g = build_graph(7, HALL_WORDS)
        expect = [
            (i, j) for i in range(7) for j, w in enumerate(HALL_WORDS) if w.head <= i <= w.tail
        ]
        assert pairs(g.char_word) == expect
        assert g.char_word.shape[1] == sum(w.length for w in HALL_WORDS)

    def test_out_of_range_span_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [MatchedWord(0, "xyz", 1, 3)])
        with pytest.raises(ValueError):
            build_graph(0, [])

    def test_pure_function_of_inputs(self):
        assert_edges_equal(build_graph(7, HALL_WORDS), build_graph(7, HALL_WORDS))


class TestGraphVariant:
    def test_standard_is_deep_equal(self):
        g = build_graph(7, HALL_WORDS)
        v = graph_variant(g, "standard")
        assert v is not g
        assert_edges_equal(v, g)

    def test_wo_word_edge_gives_identity_mask(self):
        v = graph_variant(build_graph(7, HALL_WORDS), "wo_word_edge")
        assert pairs(v.word_word) == [(0, 0), (1, 1), (2, 2)]

    def test_fc_intra_gives_full_mask(self):
        g = build_graph(5, words_from_spans([(0, 1), (3, 4)]))
        v = graph_variant(g, "fc_intra")
        assert pairs(v.word_word) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_fc_inter_connects_every_pair(self):
        g = build_graph(3, words_from_spans([(0, 1), (1, 2)]))
        v = graph_variant(g, "fc_inter")
        assert pairs(v.char_word) == [(i, j) for i in range(3) for j in range(2)]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            graph_variant(build_graph(3, []), "nonsense")

    def test_variant_does_not_mutate_base(self):
        g = build_graph(7, HALL_WORDS)
        before = build_graph(7, HALL_WORDS)
        for variant in GRAPH_VARIANTS:
            graph_variant(g, variant)
        assert_edges_equal(g, before)


def test_serialize_graph_lists_nodes_and_edges():
    g = build_graph(7, HALL_WORDS)
    text = serialize_graph(g)
    assert "n 7" in text and "m 3" in text
    assert "word 0 0 2 北京人" in text
    assert "word_edge 0 1" in text and "word_edge 1 2" in text
    assert "char_words 2 0 1 2" in text


@pytest.mark.parametrize("variant", GRAPH_VARIANTS)
def test_serialize_graph_pins_every_variant(variant):
    words = HALL_WORDS + [MatchedWord(3, "堂", 6, 6)]
    text = serialize_graph(graph_variant(build_graph(8, words), variant))
    header = ["n 8", "m 4", "word 0 0 2 北京人", "word 1 2 3 人民", "word 2 2 6 人民大会堂",
              "word 3 6 6 堂"]
    word_edges = {
        "standard": ["word_edge 0 1", "word_edge 0 2", "word_edge 1 2", "word_edge 2 3"],
        "wo_word_edge": [],
        "fc_intra": [f"word_edge {j} {k}" for j in range(4) for k in range(j + 1, 4)],
        "fc_inter": ["word_edge 0 1", "word_edge 0 2", "word_edge 1 2", "word_edge 2 3"],
    }[variant]
    if variant == "fc_inter":
        char_words = [f"char_words {i} 0 1 2 3" for i in range(8)]
    else:
        char_words = ["char_words 0 0", "char_words 1 0", "char_words 2 0 1 2",
                      "char_words 3 1 2", "char_words 4 2", "char_words 5 2",
                      "char_words 6 2 3", "char_words 7"]
    assert text == "\n".join(header + word_edges + char_words) + "\n"
