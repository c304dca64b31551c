"""Fusion layers against independent scalar reference implementations."""

import math
import weakref

import numpy as np
import pytest

from lexner import fusion
from lexner.autograd import Tensor, layer_norm, no_grad
from lexner.encoding import initial_states
from lexner.fusion import (
    FusionLayerParams,
    fusion_layer,
    inter_source_fusion,
    intra_source_attention,
)
from lexner.graph import build_graph, graph_variant
from lexner.matching import MatchedWord
from lexner.model import EncodedSentence, ModelDims, ModelParams, forward_states
from test_autograd import check_op, concat, gc_off, masked_softmax


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


def edges_of(mask):
    """A 0/1 matrix as a (2, E) edge list of (destination, source) columns, by destination."""
    return np.stack(np.nonzero(mask))


def overlap_mask(words):
    """1 where two word spans share a character, read off the spans."""
    return np.array(
        [[int(a.head <= b.tail and b.head <= a.tail) for b in words] for a in words]
    ).reshape(len(words), len(words))


def ref_dense_attention(h, mask, p, heads, scale_dim, weights_out=None):
    """The dense m x m masked-softmax kernel word attention ran before the edge
    softmax: tape ops, one masked_softmax per head."""
    d = h.data.shape[1]
    d_z = d // heads
    q, k, v = h @ p.wq, h @ p.wk, h @ p.wv
    outputs = []
    for i in range(heads):
        cols = slice(i * d_z, (i + 1) * d_z)
        att = masked_softmax((q[:, cols] @ k[:, cols].T) * scale_dim**-0.5, mask)
        if weights_out is not None:
            weights_out.append(att.data)
        outputs.append(att @ v[:, cols])
    return layer_norm(h + concat(outputs, axis=1) @ p.wt, p.ln_gain, p.ln_bias)


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
    adj = np.zeros((n, m), dtype=t_c.data.dtype)
    adj[tuple(graph.char_word)] = 1
    alpha = ((t_c @ p.w_c1).reshape(n, 1, d) + (t_w @ p.w_c2).reshape(1, m, d)).sigmoid()
    s_c = t_c + (alpha * t_w.reshape(1, m, d) * adj.reshape(n, m, 1)).sum(axis=1)
    beta = ((t_w @ p.w_w1).reshape(m, 1, d) + (t_c @ p.w_w2).reshape(1, n, d)).sigmoid()
    s_w = t_w + (beta * t_c.reshape(1, n, d) * adj.T.reshape(m, n, 1)).sum(axis=1)
    return s_c, s_w


def ref_ffn(x, p):
    inner = np.maximum(x @ p.w1.data + p.b1.data, 0.0) @ p.w2.data + p.b2.data
    return ref_layer_norm(x + inner, p.ln_gain.data, p.ln_bias.data)


HALL_WORDS = [
    MatchedWord("aaa", 0, 2),
    MatchedWord("bb", 2, 3),
    MatchedWord("ccccc", 2, 6),
]


class TestIntraSourceAttention:
    def test_single_node_full_formula(self):
        d = 4
        p = make_params(d, 8, 2, seed=1)
        rng = np.random.default_rng(2)
        h = rng.standard_normal((1, d))
        got = intra_source_attention(Tensor(h), edges_of(np.ones((1, 1))), p.char_att, 2)
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
        got = intra_source_attention(Tensor(h), edges_of(np.eye(n)), p.char_att, 2)
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
        expect = ref_attention(h, np.ones((n, n)), p.char_att, 2, d)
        # edges=None admits every pair with the dense kernel, as all n^2 edges do
        for edges in (None, edges_of(np.ones((n, n)))):
            got = intra_source_attention(Tensor(h), edges, p.char_att, 2)
            np.testing.assert_allclose(got.data, expect, atol=1e-10)

    def test_matches_scalar_reference_sparse_mask(self):
        d, n = 8, 6
        p = make_params(d, 16, 4, seed=7)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((n, d))
        mask = (rng.random((n, n)) < 0.5).astype(np.uint8)
        mask = np.maximum(mask, mask.T)
        np.fill_diagonal(mask, 1)
        got = intra_source_attention(Tensor(h), edges_of(mask), p.char_att, 4)
        np.testing.assert_allclose(got.data, ref_attention(h, mask, p.char_att, 4, d), atol=1e-10)

    def test_masked_pairs_get_exactly_zero_weight(self):
        d, n = 8, 5
        p = make_params(d, 8, 2, seed=9)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((n, d))
        mask = np.eye(n, dtype=np.uint8)
        mask[0, 1] = mask[1, 0] = 1
        edges = edges_of(mask)
        weights, dense = [], []
        intra_source_attention(Tensor(h), edges, p.char_att, 2, weights_out=weights)
        ref_dense_attention(Tensor(h), mask, p.char_att, 2, d, weights_out=dense)
        assert len(weights) == 2
        for att, ref in zip(weights, dense):
            # one weight per edge: a pair without an edge has no weight to give
            assert att.shape == (edges.shape[1],)
            grid = np.zeros((n, n))
            grid[tuple(edges)] = att
            assert np.all(ref[mask == 0] == 0.0)
            np.testing.assert_allclose(grid, ref, atol=1e-12)
            np.testing.assert_allclose(np.bincount(edges[0], att), 1.0, atol=1e-12)

    def test_output_independent_of_masked_neighbors(self):
        """Perturbing node k leaves row j bit-identical when mask[j,k] == 0."""
        d, n = 8, 5
        p = make_params(d, 8, 2, seed=11)
        rng = np.random.default_rng(12)
        h = rng.standard_normal((n, d))
        mask = np.eye(n, dtype=np.uint8)
        mask[0, 1] = mask[1, 0] = 1
        base = intra_source_attention(Tensor(h), edges_of(mask), p.char_att, 2).data
        h2 = h.copy()
        h2[4] += 10.0
        bumped = intra_source_attention(Tensor(h2), edges_of(mask), p.char_att, 2).data
        for j in range(n):
            if mask[j, 4] == 0:
                np.testing.assert_array_equal(base[j], bumped[j])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, d, heads", [(7, 6, 2), (100, 304, 8)])
    def test_batched_heads_bit_equal_to_the_per_head_kernel(self, dtype, n, d, heads):
        """The dense kernel, all heads in one batched product, against the per-head loop."""
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, d)).astype(dtype)
        upstream = rng.standard_normal((n, d)).astype(dtype)
        # the oracle scales by scale_dim**-0.5; this scale_dim makes that factor
        # the kernel's 1 / sqrt(d) to the last bit
        scale_dim = math.sqrt(d) ** 2
        assert scale_dim**-0.5 == 1.0 / math.sqrt(d)

        def run(attend):
            p = make_params(d, 8, heads, seed=n, dtype=dtype)
            x = Tensor(h.copy())
            weights = []
            out = attend(x, p.char_att, weights)
            (out * upstream).sum().backward()
            att = p.char_att
            grads = [x.grad] + [t.grad for t in (att.wq, att.wk, att.wv, att.wt)]
            return [out.data] + weights + grads

        got = run(lambda x, p, w: intra_source_attention(x, None, p, heads, weights_out=w))
        want = run(lambda x, p, w: ref_dense_attention(
            x, np.ones((n, n)), p, heads, scale_dim, weights_out=w))
        assert len(got) == len(want) == 1 + heads + 5
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape, k
            assert a.tobytes() == b.tobytes(), k

    def test_rejects_bad_masks(self):
        d = 4
        p = make_params(d, 8, 2)
        h = Tensor(np.zeros((3, d)))
        # no edges at all; node 2 unreached; destinations out of order
        bad = [np.zeros((2, 0), np.int64), edges_of(np.ones((2, 2))), edges_of(np.eye(3))[:, ::-1]]
        for edges in bad:
            with pytest.raises(ValueError, match="edges must be sorted by destination and reach each of 3 nodes"):
                intra_source_attention(h, edges, p.char_att, 2)


class TestEdgeAttention:
    """Word attention over graph.word_word against the old dense masked softmax."""

    @pytest.mark.parametrize("variant", ["standard", "wo_word_edge", "fc_intra"])
    def test_equals_the_dense_masked_softmax(self, variant):
        rng = np.random.default_rng(70)
        n, d = 24, 8
        words = [
            MatchedWord("w", int(h), min(n - 1, int(h + rng.integers(1, 4))))
            for h in rng.integers(0, n - 1, 10)
        ]
        graph = graph_variant(build_graph(n, words), variant)
        mask = {
            "standard": overlap_mask(words),
            "wo_word_edge": np.eye(len(words)),
            "fc_intra": np.ones((len(words), len(words))),
        }[variant]
        h = rng.standard_normal((len(words), d))
        weights = rng.standard_normal((len(words), d))

        def run(attend):
            p = make_params(d, 16, 2, seed=71)
            x = Tensor(h.copy())
            out = attend(x, p.word_att)
            (out * weights).sum().backward()
            att = p.word_att
            return [out.data, x.grad] + [t.grad for t in (att.wq, att.wk, att.wv, att.wt)]

        got = run(lambda x, p: intra_source_attention(x, graph.word_word, p, 2))
        want = run(lambda x, p: ref_dense_attention(x, mask, p, 2, d))
        for k, (a, b) in enumerate(zip(got, want)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=str(k))

    def test_gradient(self):
        graph = build_graph(7, HALL_WORDS + [MatchedWord("d", 5, 6)])
        p = make_params(8, 16, 4, seed=72)
        check_op(lambda ts: intra_source_attention(ts[0], graph.word_word, p.word_att, 4), [(4, 8)])

        def through_params(ts):
            p.word_att.wq, p.word_att.wk = ts[1], ts[2]
            return intra_source_attention(ts[0], graph.word_word, p.word_att, 4)

        check_op(through_params, [(4, 8), (8, 8), (8, 8)], seed=73)

    def test_empty_word_set(self):
        p = make_params(8, 16, 2, seed=74)
        out = intra_source_attention(
            Tensor(np.zeros((0, 8))), build_graph(3, []).word_word, p.word_att, 2
        )
        assert out.data.shape == (0, 8)


class TestInterSourceFusion:
    def test_characters_without_words_pass_through(self):
        graph = build_graph(5, [MatchedWord("ab", 0, 1)])
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
        # the general path adds the empty sum: new tensors, equal bytes
        for s, t in ((s_c, t_c), (s_w, t_w)):
            assert s.data.dtype == t.data.dtype and s.data.shape == t.data.shape
            assert s.data.tobytes() == t.data.tobytes()
        dense_c, dense_w = ref_dense_gating(t_c, t_w, graph, p)
        assert dense_c.data.tobytes() == t_c.data.tobytes() and dense_w.data.shape == (0, 6)

    def test_zero_gates_give_half_weight(self):
        graph = build_graph(3, [MatchedWord("ab", 0, 1), MatchedWord("bc", 1, 2)])
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
        graph, c, got, want = run_against_the_dense_gate(dtype, variant)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == dtype, k
            assert a.tobytes() == b.tobytes(), k
        if variant == "standard":
            n = graph.n
            np.testing.assert_array_equal(got[0][n - 5 :], c[n - 5 :])

    @pytest.mark.parametrize("budget", [8, 64, 200])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["standard", "wo_word_edge", "fc_inter"])
    def test_row_blocks_bit_equal_to_the_dense_gate(self, monkeypatch, dtype, variant, budget):
        """A budget of a few rows cuts the gate into many blocks, and some lattice
        segments are longer than one block may be: every output and input
        gradient still equals the dense formula's bytes."""
        monkeypatch.setattr(fusion, "_GATE_BLOCK", budget)
        blocks = []
        sigmoid = Tensor.sigmoid

        def recording_sigmoid(x):
            blocks.append(x.data.shape)
            return sigmoid(x)

        monkeypatch.setattr(Tensor, "sigmoid", recording_sigmoid)
        graph, _, got, want = run_against_the_dense_gate(dtype, variant)
        gated = blocks[: len(blocks) - 2]  # the dense reference makes the last two
        n, m = graph.n, graph.m
        assert len(gated) > 4
        assert all(k <= max(1, budget // (cols * d)) for k, cols, d in gated)
        # some cut between character blocks falls inside a word's span of edges
        chars, words = graph.char_word
        first, last = np.full(m, n), np.full(m, -1)
        np.minimum.at(first, words, chars)
        np.maximum.at(last, words, chars)
        cuts = np.cumsum([k for k, cols, _ in gated if cols == m])[:-1]
        assert any(((first < r) & (r <= last)).any() for r in cuts)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype == dtype, k
            assert a.tobytes() == b.tobytes(), k

    @staticmethod
    @gc_off()
    def sigmoids_alive_at_each_call(monkeypatch, taped):
        """For each gate block sigmoid of one inter_source_fusion, with or without
        a tape, how many earlier block outputs were alive when it was called."""
        monkeypatch.setattr(fusion, "_GATE_BLOCK", 64)
        rng = np.random.default_rng(64)
        words = HALL_WORDS + [MatchedWord("dd", 9, 10), MatchedWord("e", 15, 15)]
        graph = build_graph(20, words)
        p = make_params(6, 8, 2, seed=65)
        t_c, t_w = Tensor(rng.standard_normal((20, 6))), Tensor(rng.standard_normal((5, 6)))
        outputs, alive_at_call = [], []
        sigmoid = Tensor.sigmoid

        def recording_sigmoid(x):
            alive_at_call.append(sum(ref() is not None for ref in outputs))
            out = sigmoid(x)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(Tensor, "sigmoid", recording_sigmoid)
        if taped:
            fused = inter_source_fusion(t_c, t_w, graph, p)
        else:
            with no_grad():
                fused = inter_source_fusion(t_c, t_w, graph, p)
        # the fused states, and their tape if there is one, hold no block output
        assert fused[0].shape == (20, 6) and all(ref() is None for ref in outputs)
        return alive_at_call

    def test_without_a_tape_each_block_sigmoid_dies_before_the_next(self, monkeypatch):
        """In prediction a block's (k, m, d) sigmoid output is freed once its
        edge rows are taken, so two such blocks are never alive at once."""
        alive_at_call = self.sigmoids_alive_at_each_call(monkeypatch, taped=False)
        assert len(alive_at_call) > 4
        assert alive_at_call == [0] * len(alive_at_call)

    def test_with_a_tape_each_block_sigmoid_dies_before_the_next(self, monkeypatch):
        """The tape keeps the gate at the edges only: in training too a block's
        (k, m, d) sigmoid output is freed once its edge rows are taken."""
        alive_at_call = self.sigmoids_alive_at_each_call(monkeypatch, taped=True)
        assert len(alive_at_call) > 4
        assert alive_at_call == [0] * len(alive_at_call)

    @pytest.mark.parametrize("budget", [1, 100, 1 << 18])
    def test_row_blocks_tile_the_pair_grid_once(self, monkeypatch, budget):
        """Each direction's sigmoid inputs, in call order, are the rows of its
        dense pre-activation grid, each row once."""
        monkeypatch.setattr(fusion, "_GATE_BLOCK", budget)
        rng = np.random.default_rng(62)
        words = HALL_WORDS + [MatchedWord("dd", 9, 10), MatchedWord("e", 15, 15)]
        graph = build_graph(20, words)
        n, m, d = graph.n, graph.m, 6
        p = make_params(d, 8, 2, seed=63)
        t_c, t_w = Tensor(rng.standard_normal((n, d))), Tensor(rng.standard_normal((m, d)))
        inputs, directions = [], []
        sigmoid, gated_sum = Tensor.sigmoid, fusion._gated_sum

        def recording_sigmoid(x):
            inputs.append(x.data)
            return sigmoid(x)

        def recording_gated_sum(*args):
            start = len(inputs)
            out = gated_sum(*args)
            directions.append(inputs[start:])
            return out

        monkeypatch.setattr(Tensor, "sigmoid", recording_sigmoid)
        monkeypatch.setattr(fusion, "_gated_sum", recording_gated_sum)
        inter_source_fusion(t_c, t_w, graph, p)
        grids = [
            (t_c @ p.w_c1).data.reshape(n, 1, d) + (t_w @ p.w_c2).data.reshape(1, m, d),
            (t_w @ p.w_w1).data.reshape(m, 1, d) + (t_c @ p.w_w2).data.reshape(1, n, d),
        ]
        assert len(directions) == 2
        for grid, blocks in zip(grids, directions):
            assert (len(blocks) == 1) if budget == 1 << 18 else (len(blocks) > 2)
            assert np.concatenate(blocks).tobytes() == grid.tobytes()


def run_against_the_dense_gate(dtype, variant):
    """(graph, char states, blocked, dense): the outputs, input gradients and
    gate-weight gradients of inter_source_fusion and of the dense formula on
    one seeded lattice."""
    rng = np.random.default_rng(60)
    n, d = 30, 8
    heads = rng.integers(0, n - 8, 12)
    # characters n-5.. lie in no word, so standard rows there have no edges
    words = [MatchedWord("w", int(h), int(h + rng.integers(0, 4))) for h in heads]
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

    return graph, c, run(inter_source_fusion), run(ref_dense_gating)


def hall_model(layers):
    """A float64 model with `layers` fusion layers over the HALL_WORDS lattice,
    and that 7-character sentence: the stack as `model.forward_states` runs it."""
    chars = list("abcdefg")
    dims = ModelDims(d_c=8, d_w=8, d_ff=16, heads=2, layers=layers)
    model = ModelParams.build(
        dims, chars, [w.surface for w in HALL_WORDS], ["T"], np.random.default_rng(27),
        dtype=np.float64,
    )
    sent = EncodedSentence(chars, build_graph(7, HALL_WORDS))
    h_c, h_w = initial_states(
        chars, HALL_WORDS, model.char_table, model.word_table, model.projection
    )
    return model, sent, h_c, h_w


class TestFusionLayer:
    def test_empty_stack_is_identity(self):
        model, sent, h_c, h_w = hall_model(layers=0)
        out_c, out_w = forward_states(model, sent)
        assert out_c.data.tobytes() == h_c.data.tobytes()
        assert out_w.data.tobytes() == h_w.data.tobytes()

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
        t_w = ref_attention(h_w, overlap_mask(HALL_WORDS), p.word_att, 2, 8)
        s_c, s_w = ref_gating(t_c, t_w, HALL_WORDS, p)
        np.testing.assert_allclose(out_c.data, ref_ffn(s_c, p.char_ffn), atol=1e-9)
        np.testing.assert_allclose(out_w.data, ref_ffn(s_w, p.word_ffn), atol=1e-9)

    def test_stacking_composes(self):
        model, sent, h_c, h_w = hall_model(layers=2)
        once = fusion_layer(h_c, h_w, sent.graph, model.layers[0], heads=2)
        twice_c, twice_w = fusion_layer(*once, sent.graph, model.layers[1], heads=2)
        enc_c, enc_w = forward_states(model, sent)
        np.testing.assert_array_equal(enc_c.data, twice_c.data)
        np.testing.assert_array_equal(enc_w.data, twice_w.data)

    def test_four_layer_stack_stays_finite(self):
        rng = np.random.default_rng(30)
        graph = build_graph(7, HALL_WORDS)
        layers = [make_params(8, 16, 2, seed=31 + s) for s in range(4)]
        h_c = Tensor(rng.uniform(-1, 1, size=(7, 8)))
        h_w = Tensor(rng.uniform(-1, 1, size=(3, 8)))
        for p in layers:
            h_c, h_w = fusion_layer(h_c, h_w, graph, p, heads=2)
        assert np.all(np.isfinite(h_c.data))
        assert np.all(np.isfinite(h_w.data))

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
        t_before = intra_source_attention(h_c, None, p.char_att, 2).data
        p.word_att.wq.data += 5.0
        p.word_att.wv.data += 5.0
        t_after = intra_source_attention(h_c, None, p.char_att, 2).data
        np.testing.assert_array_equal(t_before, t_after)
