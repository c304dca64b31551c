"""Graph-based multi-source fusion layers.

Each layer updates both node sources: multi-head self-attention within each
source, sigmoid-gated aggregation of cross-source neighbors, then a
position-wise feed-forward network. Attention and FFN sublayers are post-norm
(sublayer output added to its input, then layer-normalized); the cross-source
step carries its own additive residual. Character and word sources use the
same architecture with disjoint parameters.

Every lattice step reads the edge lists :func:`graph.build_graph` made once
per sentence: words attend by an edge softmax along ``graph.word_word``
(characters, fully connected, use a dense kernel), and the gate, still
evaluated for every (char, word) pair, is summed along ``graph.char_word``
both ways with :func:`segment_sum`. Every constant is a Python float, so a
float32 model computes in float32 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, concat, dropout, layer_norm, masked_softmax, segment_sum
from .graph import LatticeGraph


@dataclass
class AttentionParams:
    """One source's self-attention: per-head Q/K/V stored as column blocks."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wt: Tensor
    ln_gain: Tensor
    ln_bias: Tensor


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln_gain: Tensor
    ln_bias: Tensor


@dataclass
class FusionLayerParams:
    char_att: AttentionParams
    word_att: AttentionParams
    w_c1: Tensor
    w_c2: Tensor
    w_w1: Tensor
    w_w2: Tensor
    char_ffn: FfnParams
    word_ffn: FfnParams

    @classmethod
    def init(
        cls, d_c: int, d_ff: int, heads: int, rng: np.random.Generator, dtype=np.float64
    ) -> "FusionLayerParams":
        if d_c % heads != 0:
            raise ValueError(f"model dimension {d_c} not divisible by {heads} heads")

        def glorot(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))

        def att():
            return AttentionParams(
                wq=glorot(d_c, d_c),
                wk=glorot(d_c, d_c),
                wv=glorot(d_c, d_c),
                wt=glorot(d_c, d_c),
                ln_gain=Tensor(np.ones(d_c, dtype=dtype)),
                ln_bias=Tensor(np.zeros(d_c, dtype=dtype)),
            )

        def ffn():
            return FfnParams(
                w1=glorot(d_c, d_ff),
                b1=Tensor(np.zeros(d_ff, dtype=dtype)),
                w2=glorot(d_ff, d_c),
                b2=Tensor(np.zeros(d_c, dtype=dtype)),
                ln_gain=Tensor(np.ones(d_c, dtype=dtype)),
                ln_bias=Tensor(np.zeros(d_c, dtype=dtype)),
            )

        return cls(att(), att(), glorot(d_c, d_c), glorot(d_c, d_c), glorot(d_c, d_c),
                   glorot(d_c, d_c), ffn(), ffn())

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for src, att in (("char", self.char_att), ("word", self.word_att)):
            out[f"{prefix}.{src}.wq"] = att.wq
            out[f"{prefix}.{src}.wk"] = att.wk
            out[f"{prefix}.{src}.wv"] = att.wv
            out[f"{prefix}.{src}.wt"] = att.wt
            out[f"{prefix}.{src}.att_ln_gain"] = att.ln_gain
            out[f"{prefix}.{src}.att_ln_bias"] = att.ln_bias
        out[f"{prefix}.gate.w_c1"] = self.w_c1
        out[f"{prefix}.gate.w_c2"] = self.w_c2
        out[f"{prefix}.gate.w_w1"] = self.w_w1
        out[f"{prefix}.gate.w_w2"] = self.w_w2
        for src, ffn in (("char", self.char_ffn), ("word", self.word_ffn)):
            out[f"{prefix}.{src}.ffn_w1"] = ffn.w1
            out[f"{prefix}.{src}.ffn_b1"] = ffn.b1
            out[f"{prefix}.{src}.ffn_w2"] = ffn.w2
            out[f"{prefix}.{src}.ffn_b2"] = ffn.b2
            out[f"{prefix}.{src}.ffn_ln_gain"] = ffn.ln_gain
            out[f"{prefix}.{src}.ffn_ln_bias"] = ffn.ln_bias
        return out


def intra_source_attention(
    h: Tensor,
    edges: np.ndarray | None,
    params: AttentionParams,
    heads: int,
    scale_dim: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    weights_out: list | None = None,
) -> Tensor:
    """Multi-head self-attention over one source, with residual + norm.

    ``edges=None`` lets every node attend to every node (the characters).
    Otherwise ``edges`` is a (2, E) array of (destination, source) columns,
    sorted by destination, that reaches every node (the words, through their
    self-loops): each node's softmax then runs over its incoming edges only,
    graph attention, so a pair without an edge gets no weight at all.
    Scores are scaled by 1/sqrt(scale_dim) with scale_dim the full model
    dimension, not the per-head width. When ``weights_out`` is a list, each
    head's weights are appended: an (n, n) matrix, or one weight per edge.
    """
    n, d = h.data.shape
    d_z = d // heads
    # a Python float: a numpy float64 scalar would promote float32 scores (NEP 50)
    scale = 1.0 / math.sqrt(scale_dim)
    q = h @ params.wq
    k = h @ params.wk
    v = h @ params.wv
    if edges is None:
        outputs = []
        for i in range(heads):
            cols = slice(i * d_z, (i + 1) * d_z)
            att = masked_softmax((q[:, cols] @ k[:, cols].T) * scale, None)
            if weights_out is not None:
                weights_out.append(att.data)
            outputs.append(att @ v[:, cols])
        o = concat(outputs, axis=1)
    else:
        dst, src = edges
        fan_in = np.bincount(dst, minlength=n)
        if len(fan_in) != n or not fan_in.all() or np.any(dst[1:] < dst[:-1]):
            raise ValueError(f"edges must be sorted by destination and reach each of {n} nodes")
        e = len(dst)
        scores = (q[dst] * k[src]).reshape(e, heads, d_z).sum(axis=2) * scale
        # softmax is shift-invariant: the per-destination max only keeps exp() finite
        shift = np.maximum.reduceat(scores.data, np.cumsum(fan_in) - fan_in, axis=0)
        w = (scores - shift[dst]).exp()
        att = w / segment_sum(w, dst, n)[dst]
        if weights_out is not None:
            weights_out.extend(att.data.T)
        messages = att.reshape(e, heads, 1) * v[src].reshape(e, heads, d_z)
        o = segment_sum(messages.reshape(e, d), dst, n)
    o = dropout(o @ params.wt, dropout_rate, rng)
    return layer_norm(h + o, params.ln_gain, params.ln_bias)


def _gated_sum(gate: Tensor, t_dst: Tensor, t_src: Tensor, edges: np.ndarray) -> Tensor:
    """t_dst plus, for each node, its neighbors' states in t_src along ``edges``,
    each scaled elementwise by the (dst, src) entry of the dense gate."""
    dst, src = edges
    return t_dst + segment_sum(gate[dst, src] * t_src[src], dst, t_dst.data.shape[0])


def inter_source_fusion(
    t_c: Tensor, t_w: Tensor, graph: LatticeGraph, params: FusionLayerParams
) -> tuple[Tensor, Tensor]:
    """Cross-source gated aggregation.

    Each character adds the elementwise-gated states of its adjacent words,
    gate alpha_ij = sigmoid(T_ci @ W_c1 + T_wj @ W_c2); words aggregate their
    adjacent characters symmetrically with W_w1, W_w2. Nodes without
    cross-source neighbors pass through unchanged. The gated states are
    summed along the lattice edges, each node's neighbors in index order, so
    the result equals a sum over the dense (node, neighbor) grid bit for bit.
    """
    if graph.m == 0:
        return t_c, t_w
    n, d = t_c.data.shape
    m = t_w.data.shape[0]
    # alpha is held while beta is made: releasing it first measured ~10% slower on
    # 500-character sentences (the allocator gives the pages back, then faults them in)
    alpha = ((t_c @ params.w_c1).reshape(n, 1, d) + (t_w @ params.w_c2).reshape(1, m, d)).sigmoid()
    s_c = _gated_sum(alpha, t_c, t_w, graph.char_word)
    beta = ((t_w @ params.w_w1).reshape(m, 1, d) + (t_c @ params.w_w2).reshape(1, n, d)).sigmoid()
    # as (word, char) pairs each word's chars come in index order, so sums match a by-word list
    s_w = _gated_sum(beta, t_w, t_c, graph.char_word[::-1])
    return s_c, s_w


def _ffn_block(
    x: Tensor, params: FfnParams, dropout_rate: float, rng: np.random.Generator | None
) -> Tensor:
    inner = (x @ params.w1 + params.b1).relu() @ params.w2 + params.b2
    inner = dropout(inner, dropout_rate, rng)
    return layer_norm(x + inner, params.ln_gain, params.ln_bias)


def fusion_layer(
    h_c: Tensor,
    h_w: Tensor,
    graph: LatticeGraph,
    params: FusionLayerParams,
    heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """One full fusion layer: intra-source attention, gating, FFN per source."""
    d_c = h_c.data.shape[1]
    t_c = intra_source_attention(h_c, None, params.char_att, heads, d_c, dropout_rate, rng)
    t_w = intra_source_attention(
        h_w, graph.word_word, params.word_att, heads, d_c, dropout_rate, rng
    )
    s_c, s_w = inter_source_fusion(t_c, t_w, graph, params)
    h_c = _ffn_block(s_c, params.char_ffn, dropout_rate, rng)
    h_w = _ffn_block(s_w, params.word_ffn, dropout_rate, rng)
    return h_c, h_w


def encode(
    graph: LatticeGraph,
    h_c: Tensor,
    h_w: Tensor,
    layers: list[FusionLayerParams],
    heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Run the stacked fusion layers; returns the final (H_c, H_w)."""
    for params in layers:
        h_c, h_w = fusion_layer(h_c, h_w, graph, params, heads, dropout_rate, rng)
    return h_c, h_w
