"""Graph-based multi-source fusion layers.

Each layer updates both node sources: multi-head self-attention within each
source, sigmoid-gated aggregation of cross-source neighbors, then a
position-wise feed-forward network. Attention and FFN sublayers are post-norm
(sublayer output added to its input, then layer-normalized); the cross-source
step carries its own additive residual. Character and word sources use the
same architecture with disjoint parameters.

Every lattice step reads the edge lists :func:`graph.build_graph` made once
per sentence: words attend by an edge softmax along ``graph.word_word``
(characters, fully connected, use a dense kernel with the heads as one batch
axis), and the gate is summed along ``graph.char_word`` both ways, with one
:func:`segment_sum` per direction. Each direction's gate is one tape op
holding the (E, d) gate at the E edges, and its VJP reads those rows only;
its value is made densely, in row blocks outside the tape (see
:func:`_gated_sum`), and equals the dense gate's bit for bit. Every constant
is a Python float, so a float32 model computes in float32 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import (
    Tensor,
    _scatter_rows,
    _sigmoid_vjp,
    dropout,
    glorot,
    layer_norm,
    no_grad,
    segment_sum,
    softmax,
)
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
        cls, d_c: int, d_ff: int, heads: int, rng: np.random.Generator | None, dtype=np.float64
    ) -> "FusionLayerParams":
        if d_c % heads != 0:
            raise ValueError(f"model dimension {d_c} not divisible by {heads} heads")

        def att():
            return AttentionParams(
                wq=glorot(rng, d_c, d_c, dtype),
                wk=glorot(rng, d_c, d_c, dtype),
                wv=glorot(rng, d_c, d_c, dtype),
                wt=glorot(rng, d_c, d_c, dtype),
                ln_gain=Tensor(np.ones(d_c, dtype=dtype)),
                ln_bias=Tensor(np.zeros(d_c, dtype=dtype)),
            )

        def ffn():
            return FfnParams(
                w1=glorot(rng, d_c, d_ff, dtype),
                b1=Tensor(np.zeros(d_ff, dtype=dtype)),
                w2=glorot(rng, d_ff, d_c, dtype),
                b2=Tensor(np.zeros(d_c, dtype=dtype)),
                ln_gain=Tensor(np.ones(d_c, dtype=dtype)),
                ln_bias=Tensor(np.zeros(d_c, dtype=dtype)),
            )

        # arguments draw in order: attention, the four gate weights, then FFN
        return cls(att(), att(), *[glorot(rng, d_c, d_c, dtype) for _ in range(4)], ffn(), ffn())


def intra_source_attention(
    h: Tensor,
    edges: np.ndarray | None,
    params: AttentionParams,
    heads: int,
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
    Scores are scaled by 1/sqrt(d) with d the width of ``h``, the full model
    dimension, not the per-head width. When ``weights_out`` is a list, each
    head's weights are appended: an (n, n) matrix, or one weight per edge.
    """
    n, d = h.data.shape
    d_z = d // heads
    # a Python float: a numpy float64 scalar would promote float32 scores (NEP 50)
    scale = 1.0 / math.sqrt(d)
    q = h @ params.wq
    k = h @ params.wk
    v = h @ params.wv
    if edges is None:
        # heads as a batch axis: q and v as (heads, n, d_z), k as (heads, d_z, n)
        q, v = (x.reshape(n, heads, d_z).transpose(1, 0, 2) for x in (q, v))
        att = softmax((q @ k.reshape(n, heads, d_z).transpose(1, 2, 0)) * scale)
        if weights_out is not None:
            weights_out.extend(att.data)
        o = (att @ v).transpose(1, 0, 2).reshape(n, d)
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


# Elements in one block of the gate, the only cache blocking of its sigmoid: a
# block of k destination rows makes a (k, m, d) pre-activation and sigmoid. In
# process, 500-character sentences decoded fastest at 2**16 (49-52 ms median,
# against 55-57 at 2**15 and 51-56 at 2**17; 2-core Xeon, 4 MB L2, numpy 2.4).
_GATE_BLOCK = 1 << 16


def _gated_sum(
    t_dst: Tensor, t_src: Tensor, w_dst: Tensor, w_src: Tensor, edges: np.ndarray
) -> Tensor:
    """t_dst plus, for each node, its neighbors' states in t_src along ``edges``,
    each scaled elementwise by gate sigmoid(t_dst_i @ w_dst + t_src_j @ w_src).

    The gate is one tape op whose parents are a = t_dst @ w_dst and
    b = t_src @ w_src and whose value is the (E, d) gate at the edges, in
    edge order. Its VJP reads those E rows only: one sigmoid derivative, then
    a's gradient is summed by destination and b's by source. Each node
    receives its terms in the order a sum over the dense grid takes them, as
    do the product with the gathered neighbor states and the segment sum
    after it, so outputs and gradients equal the dense gate's bytes.

    The value is made densely and outside the tape, in fixed blocks of
    destination rows of at most ``_GATE_BLOCK`` elements that each write
    their edges' rows in place, so a cut may fall anywhere, even inside a
    lattice segment. It is dense because the benchmark harness's tests pin the
    pair count; once the program counts its own work (ROADMAP items 1 and 2),
    only this loop becomes a sigmoid of a[dst] + b[src].
    """
    n, d = t_dst.data.shape
    m = t_src.data.shape[0]
    dst, src = edges[:, np.argsort(edges[0], kind="stable")]
    a, b = t_dst @ w_dst, t_src @ w_src
    y = np.empty((len(dst), d), np.result_type(a.data, b.data))
    step = max(1, _GATE_BLOCK // max(m * d, 1))
    with no_grad():
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            e = slice(*np.searchsorted(dst, [lo, hi]))
            # one expression: the block's pre-activation and sigmoid output die here
            y[e] = (
                Tensor(a.data[lo:hi].reshape(hi - lo, 1, d) + b.data.reshape(1, m, d))
                .sigmoid()
                .data[dst[e] - lo, src[e]]
            )

    def vjp(g):
        d = _sigmoid_vjp(g, y)
        return _scatter_rows(d, dst, n), _scatter_rows(d, src, m)

    gate = Tensor(y, (a, b), vjp)
    return t_dst + segment_sum(gate * t_src[src], dst, n)


def inter_source_fusion(
    t_c: Tensor, t_w: Tensor, graph: LatticeGraph, params: FusionLayerParams
) -> tuple[Tensor, Tensor]:
    """Cross-source gated aggregation.

    Each character adds the elementwise-gated states of its adjacent words,
    gate alpha_ij = sigmoid(T_ci @ W_c1 + T_wj @ W_c2); words aggregate their
    adjacent characters symmetrically with W_w1, W_w2. A node without
    cross-source neighbors, such as every character of a sentence without
    words, adds the empty sum. The gated states are summed along the lattice
    edges, each node's neighbors in index order, so the result equals a sum
    over the dense (node, neighbor) grid bit for bit. Each direction's gate
    is one tape op over the lattice edges, so ``backward()`` reads no pair
    that is not an edge. Its value is still made densely, in row blocks (see
    :func:`_gated_sum`).
    """
    s_c = _gated_sum(t_c, t_w, params.w_c1, params.w_c2, graph.char_word)
    # as (word, char) pairs each word's chars come in index order, so sums match a by-word list
    s_w = _gated_sum(t_w, t_c, params.w_w1, params.w_w2, graph.char_word[::-1])
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
    t_c = intra_source_attention(h_c, None, params.char_att, heads, dropout_rate, rng)
    t_w = intra_source_attention(h_w, graph.word_word, params.word_att, heads, dropout_rate, rng)
    s_c, s_w = inter_source_fusion(t_c, t_w, graph, params)
    h_c = _ffn_block(s_c, params.char_ffn, dropout_rate, rng)
    h_w = _ffn_block(s_w, params.word_ffn, dropout_rate, rng)
    return h_c, h_w
