"""Fusion layers against independent scalar reference implementations."""

import numpy as np
import pytest

from lexner.autograd import Tensor
from lexner.fusion import (
    FusionLayerParams,
    encode,
    fusion_layer,
    inter_source_fusion,
    intra_source_attention,
)
from lexner.graph import build_graph, graph_variant
from lexner.matching import MatchedWord


def make_params(d_c, d_ff, heads, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return FusionLayerParams.init(d_c, d_ff, heads, rng, dtype=dtype)


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_attention(h, mask, p, heads, scale_dim):
    """Per-element masked multi-head attention, loops only."""
    n, d = h.shape
    d_z = d // heads
    q, k, v = h @ p.wq.data, h @ p.wk.data, h @ p.wv.data
    pieces = []
    for i in range(heads):
        qs = q[:, i * d_z : (i + 1) * d_z]
        ks = k[:, i * d_z : (i + 1) * d_z]
        vs = v[:, i * d_z : (i + 1) * d_z]
        out = np.zeros((n, d_z))
        for a in range(n):
            scores = []
            idxs = []
            for b in range(n):
                if mask[a, b]:
                    scores.append(float(qs[a] @ ks[b]) / np.sqrt(scale_dim))
                    idxs.append(b)
            scores = np.array(scores)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            for wt, b in zip(w, idxs):
                out[a] += wt * vs[b]
        pieces.append(out)
    o = np.concatenate(pieces, axis=1) @ p.wt.data
    return ref_layer_norm(h + o, p.ln_gain.data, p.ln_bias.data)


def ref_gating(t_c, t_w, words, p):
    """Gated aggregation over the lattice edges, read off the word spans."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    s_c = t_c.copy()
    s_w = t_w.copy()
    for j, w in enumerate(words):
        for i in range(w.head, w.tail + 1):
            alpha = sigmoid(t_c[i] @ p.w_c1.data + t_w[j] @ p.w_c2.data)
            s_c[i] = s_c[i] + alpha * t_w[j]
            beta = sigmoid(t_w[j] @ p.w_w1.data + t_c[i] @ p.w_w2.data)
            s_w[j] = s_w[j] + beta * t_c[i]
    return s_c, s_w


def ref_dense_gating(t_c, t_w, graph, p):
    """The gate as dense tape ops over every (char, word) pair, masked by the
    lattice adjacency and summed over the neighbor axis."""
    n, d = t_c.data.shape
    m = t_w.data.shape[0]
    adj = graph.inter_mask.astype(t_c.data.dtype)
    alpha = ((t_c @ p.w_c1).reshape(n, 1, d) + (t_w @ p.w_c2).reshape(1, m, d)).sigmoid()
    s_c = t_c + (alpha * t_w.reshape(1, m, d) * adj.reshape(n, m, 1)).sum(axis=1)
    beta = ((t_w @ p.w_w1).reshape(m, 1, d) + (t_c @ p.w_w2).reshape(1, n, d)).sigmoid()
    s_w = t_w + (beta * t_c.reshape(1, n, d) * adj.T.reshape(m, n, 1)).sum(axis=1)
    return s_c, s_w


def ref_ffn(x, p):
    inner = np.maximum(x @ p.w1.data + p.b1.data, 0.0) @ p.w2.data + p.b2.data
    return ref_layer_norm(x + inner, p.ln_gain.data, p.ln_bias.data)


HALL_WORDS = [
    MatchedWord(0, "aaa", 0, 2),
    MatchedWord(1, "bb", 2, 3),
    MatchedWord(2, "ccccc", 2, 6),
]


class TestIntraSourceAttention:
    def test_single_node_full_formula(self):
        d = 4
        p = make_params(d, 8, 2, seed=1)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((1, d))
        got = intra_source_attention(Tensor(h), np.ones((1, 1), np.uint8), p.char_att, 2, d)
        # one-element softmax weight is 1, so output is LN(h + (h V) W_t)
        expect = ref_layer_norm(
            h + (h @ p.char_att.wv.data) @ p.char_att.wt.data,
            p.char_att.ln_gain.data,
            p.char_att.ln_bias.data,
        )
        np.testing.assert_allclose(got.data, expect, atol=1e-12)

    def test_identity_mask_attends_only_to_self(self):
        d, n = 6, 4
        p = make_params(d, 8, 2, seed=3)
        rng = np.random.default_rng(4)
        h = rng.standard_normal((n, d))
        got = intra_source_attention(Tensor(h), np.eye(n, dtype=np.uint8), p.char_att, 2, d)
        expect = ref_layer_norm(
            h + (h @ p.char_att.wv.data) @ p.char_att.wt.data,
            p.char_att.ln_gain.data,
            p.char_att.ln_bias.data,
        )
        np.testing.assert_allclose(got.data, expect, atol=1e-12)

    def test_matches_scalar_reference_full_mask(self):
        d, n = 8, 5
        p = make_params(d, 8, 2, seed=5)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((n, d))
        got = intra_source_attention(Tensor(h), np.ones((n, n), np.uint8), p.char_att, 2, d)
        np.testing.assert_allclose(
            got.data, ref_attention(h, np.ones((n, n)), p.char_att, 2, d), atol=1e-10
        )
        # mask=None admits every pair, with or without the multiplicative form
        for multiplicative in (False, True):
            unmasked = intra_source_attention(
                Tensor(h), None, p.char_att, 2, d, multiplicative_mask=multiplicative
            )
            np.testing.assert_array_equal(unmasked.data, got.data)

    def test_matches_scalar_reference_sparse_mask(self):
        d, n = 8, 6
        p = make_params(d, 16, 4, seed=7)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((n, d))
        mask = (rng.random((n, n)) < 0.5).astype(np.uint8)
        mask = np.maximum(mask, mask.T)
        np.fill_diagonal(mask, 1)
        got = intra_source_attention(Tensor(h), mask, p.char_att, 4, d)
        np.testing.assert_allclose(got.data, ref_attention(h, mask, p.char_att, 4, d), atol=1e-10)

    def test_masked_pairs_get_exactly_zero_weight(self):
        d, n = 8, 5
        p = make_params(d, 8, 2, seed=9)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((n, d))
        mask = np.eye(n, dtype=np.uint8)
        mask[0, 1] = mask[1, 0] = 1
        weights = []
        intra_source_attention(Tensor(h), mask, p.char_att, 2, d, weights_out=weights)
        for att in weights:
            assert np.all(att[mask == 0] == 0.0)
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-12)

    def test_output_independent_of_masked_neighbors(self):
        """Perturbing node k leaves row j bit-identical when mask[j,k] == 0."""
        d, n = 8, 5
        p = make_params(d, 8, 2, seed=11)
        rng = np.random.default_rng(12)
        h = rng.standard_normal((n, d))
        mask = np.eye(n, dtype=np.uint8)
        mask[0, 1] = mask[1, 0] = 1
        base = intra_source_attention(Tensor(h), mask, p.char_att, 2, d).data
        h2 = h.copy()
        h2[4] += 10.0
        bumped = intra_source_attention(Tensor(h2), mask, p.char_att, 2, d).data
        for j in range(n):
            if mask[j, 4] == 0:
                np.testing.assert_array_equal(base[j], bumped[j])

    def test_rejects_bad_masks(self):
        d = 4
        p = make_params(d, 8, 2)
        h = Tensor(np.zeros((3, d)))
        with pytest.raises(ValueError):
            intra_source_attention(h, np.zeros((3, 3), np.uint8), p.char_att, 2, d)
        with pytest.raises(ValueError):
            intra_source_attention(h, np.ones((2, 2), np.uint8), p.char_att, 2, d)

    def test_multiplicative_mask_differs_from_exclusion(self):
        d, n = 4, 3
        p = make_params(d, 8, 2, seed=13)
        rng = np.random.default_rng(14)
        h = rng.standard_normal((n, d))
        mask = np.eye(n, dtype=np.uint8)
        mask[0, 1] = mask[1, 0] = 1
        hard = intra_source_attention(Tensor(h), mask, p.char_att, 2, d)
        soft = intra_source_attention(
            Tensor(h), mask, p.char_att, 2, d, multiplicative_mask=True
        )
        assert not np.allclose(hard.data, soft.data)


class TestInterSourceFusion:
    def test_characters_without_words_pass_through(self):
        graph = build_graph(5, [MatchedWord(0, "ab", 0, 1)])
        p = make_params(6, 8, 2, seed=15)
        rng = np.random.default_rng(16)
        t_c = Tensor(rng.standard_normal((5, 6)))
        t_w = Tensor(rng.standard_normal((1, 6)))
        s_c, _ = inter_source_fusion(t_c, t_w, graph, p)
        for i in range(2, 5):  # outside the word span
            np.testing.assert_array_equal(s_c.data[i], t_c.data[i])

    def test_empty_word_set_is_identity(self):
        graph = build_graph(4, [])
        p = make_params(6, 8, 2)
        t_c = Tensor(np.random.default_rng(17).standard_normal((4, 6)))
        t_w = Tensor(np.zeros((0, 6)))
        s_c, s_w = inter_source_fusion(t_c, t_w, graph, p)
        assert s_c is t_c and s_w is t_w
        dense_c, dense_w = ref_dense_gating(t_c, t_w, graph, p)
        assert dense_c.data.tobytes() == t_c.data.tobytes() and dense_w.data.shape == (0, 6)

    def test_zero_gates_give_half_weight(self):
        graph = build_graph(3, [MatchedWord(0, "ab", 0, 1), MatchedWord(1, "bc", 1, 2)])
        p = make_params(4, 8, 2, seed=18)
        p.w_c1.data[:] = 0.0
        p.w_c2.data[:] = 0.0
        rng = np.random.default_rng(19)
        t_c = Tensor(rng.standard_normal((3, 4)))
        t_w = Tensor(rng.standard_normal((2, 4)))
        s_c, _ = inter_source_fusion(t_c, t_w, graph, p)
        # sigmoid(0) = 1/2, so each character adds half the sum of its words
        for i in range(3):
            expect = t_c.data[i] + 0.5 * sum(
                t_w.data[j] for j, w in enumerate(graph.words) if w.head <= i <= w.tail
            )
            np.testing.assert_allclose(s_c.data[i], expect, atol=1e-12)

    def test_matches_scalar_reference(self):
        graph = build_graph(7, HALL_WORDS)
        p = make_params(6, 8, 2, seed=20)
        rng = np.random.default_rng(21)
        t_c = Tensor(rng.standard_normal((7, 6)))
        t_w = Tensor(rng.standard_normal((3, 6)))
        s_c, s_w = inter_source_fusion(t_c, t_w, graph, p)
        expect_c, expect_w = ref_gating(t_c.data, t_w.data, HALL_WORDS, p)
        np.testing.assert_allclose(s_c.data, expect_c, atol=1e-10)
        np.testing.assert_allclose(s_w.data, expect_w, atol=1e-10)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["standard", "wo_word_edge", "fc_inter"])
    def test_bit_equal_to_the_dense_gate(self, dtype, variant):
        """Outputs and every input gradient equal the dense formula's bytes."""
        rng = np.random.default_rng(60)
        n, d = 30, 8
        heads = rng.integers(0, n - 8, 12)
        # characters n-5.. lie in no word, so standard rows there have no edges
        words = [
            MatchedWord(j, "w", int(h), int(h + rng.integers(0, 4))) for j, h in enumerate(heads)
        ]
        graph = graph_variant(build_graph(n, words), variant)
        c = rng.standard_normal((n, d)).astype(dtype)
        w = rng.standard_normal((len(words), d)).astype(dtype)
        weights = [rng.standard_normal(shape).astype(dtype) for shape in (c.shape, w.shape)]

        def run(gate):
            p = make_params(d, 16, 2, seed=61, dtype=dtype)
            t_c, t_w = Tensor(c.copy()), Tensor(w.copy())
            s_c, s_w = gate(t_c, t_w, graph, p)
            ((s_c * weights[0]).sum() + (s_w * weights[1]).sum()).backward()
            gate_params = (p.w_c1, p.w_c2, p.w_w1, p.w_w2)
            return [s_c.data, s_w.data, t_c.grad, t_w.grad] + [t.grad for t in gate_params]

        got, want = run(inter_source_fusion), run(ref_dense_gating)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == dtype, k
            assert a.tobytes() == b.tobytes(), k
        if variant == "standard":
            np.testing.assert_array_equal(got[0][n - 5 :], c[n - 5 :])


class TestFusionLayer:
    def test_empty_stack_is_identity(self):
        graph = build_graph(3, [])
        h_c = Tensor(np.random.default_rng(22).standard_normal((3, 4)))
        h_w = Tensor(np.zeros((0, 4)))
        out_c, out_w = encode(graph, h_c, h_w, [], heads=2)
        assert out_c is h_c and out_w is h_w

    def test_zero_word_sentence_reduces_to_char_self_attention(self):
        graph = build_graph(4, [])
        p = make_params(8, 16, 2, seed=23)
        rng = np.random.default_rng(24)
        h_c = rng.standard_normal((4, 8))
        out_c, out_w = fusion_layer(Tensor(h_c), Tensor(np.zeros((0, 8))), graph, p, heads=2)
        t_c = ref_attention(h_c, np.ones((4, 4)), p.char_att, 2, 8)
        expect = ref_ffn(t_c, p.char_ffn)
        np.testing.assert_allclose(out_c.data, expect, atol=1e-10)
        assert out_w.data.shape == (0, 8)

    def test_full_layer_matches_scalar_reference(self):
        graph = build_graph(7, HALL_WORDS)
        p = make_params(8, 16, 2, seed=25)
        rng = np.random.default_rng(26)
        h_c = rng.standard_normal((7, 8))
        h_w = rng.standard_normal((3, 8))
        out_c, out_w = fusion_layer(Tensor(h_c), Tensor(h_w), graph, p, heads=2)
        t_c = ref_attention(h_c, np.ones((7, 7)), p.char_att, 2, 8)
        t_w = ref_attention(h_w, graph.word_mask, p.word_att, 2, 8)
        s_c, s_w = ref_gating(t_c, t_w, HALL_WORDS, p)
        np.testing.assert_allclose(out_c.data, ref_ffn(s_c, p.char_ffn), atol=1e-9)
        np.testing.assert_allclose(out_w.data, ref_ffn(s_w, p.word_ffn), atol=1e-9)

    def test_stacking_composes(self):
        graph = build_graph(7, HALL_WORDS)
        layers = [make_params(8, 16, 2, seed=s) for s in (27, 28)]
        rng = np.random.default_rng(29)
        h_c = Tensor(rng.standard_normal((7, 8)))
        h_w = Tensor(rng.standard_normal((3, 8)))
        once = fusion_layer(h_c, h_w, graph, layers[0], heads=2)
        twice_c, twice_w = fusion_layer(*once, graph, layers[1], heads=2)
        enc_c, enc_w = encode(graph, h_c, h_w, layers, heads=2)
        np.testing.assert_array_equal(enc_c.data, twice_c.data)
        np.testing.assert_array_equal(enc_w.data, twice_w.data)

    def test_four_layer_stack_stays_finite(self):
        rng = np.random.default_rng(30)
        graph = build_graph(7, HALL_WORDS)
        layers = [make_params(8, 16, 2, seed=31 + s) for s in range(4)]
        h_c = Tensor(rng.uniform(-1, 1, size=(7, 8)))
        h_w = Tensor(rng.uniform(-1, 1, size=(3, 8)))
        enc_c, enc_w = encode(graph, h_c, h_w, layers, heads=2)
        assert np.all(np.isfinite(enc_c.data))
        assert np.all(np.isfinite(enc_w.data))

    def test_word_order_equivariance(self):
        """Permuting word nodes permutes word outputs and fixes char outputs."""
        p = make_params(8, 16, 2, seed=40)
        rng = np.random.default_rng(41)
        h_c = rng.standard_normal((7, 8))
        h_w = rng.standard_normal((3, 8))
        graph = build_graph(7, HALL_WORDS)
        base_c, base_w = fusion_layer(Tensor(h_c), Tensor(h_w), graph, p, heads=2)
        perm = [2, 0, 1]
        permuted_words = [HALL_WORDS[j] for j in perm]
        graph_p = build_graph(7, permuted_words)
        shuffled_c, shuffled_w = fusion_layer(
            Tensor(h_c), Tensor(h_w[perm]), graph_p, p, heads=2
        )
        np.testing.assert_allclose(shuffled_c.data, base_c.data, atol=1e-10)
        np.testing.assert_allclose(shuffled_w.data, base_w.data[perm], atol=1e-10)

    def test_char_branch_independent_of_word_attention_params(self):
        graph = build_graph(7, HALL_WORDS)
        p = make_params(8, 16, 2, seed=42)
        rng = np.random.default_rng(43)
        h_c = Tensor(rng.standard_normal((7, 8)))
        t_before = intra_source_attention(h_c, None, p.char_att, 2, 8).data
        p.word_att.wq.data += 5.0
        p.word_att.wv.data += 5.0
        t_after = intra_source_attention(h_c, None, p.char_att, 2, 8).data
        np.testing.assert_array_equal(t_before, t_after)
