"""One fusion layer step by step: self-attention per source (graph attention
along the word-word edges), cross-source gating, and the feed-forward update."""

import numpy as np

from lexner.autograd import Tensor
from lexner.fusion import (
    FusionLayerParams,
    fusion_layer,
    inter_source_fusion,
    intra_source_attention,
)
from lexner.graph import build_graph
from lexner.matching import MatchedWord

rng = np.random.default_rng(1)
d_c, heads = 8, 2

words = [
    MatchedWord("北京人", 0, 2),
    MatchedWord("人民", 2, 3),
    MatchedWord("人民大会堂", 2, 6),
]
graph = build_graph(7, words)
params = FusionLayerParams.init(d_c, d_ff=32, heads=heads, rng=rng)

h_c = Tensor(rng.standard_normal((graph.n, d_c)))
h_w = Tensor(rng.standard_normal((graph.m, d_c)))

# words attend along their edges only: a softmax over each word's incoming
# edges, so a pair with no shared character has no weight at all
weights = []
t_w = intra_source_attention(h_w, graph.word_word, params.word_att, heads, weights_out=weights)
print("word-word attention of head 0, one weight per edge:")
for (dst, src), weight in zip(graph.word_word.T, weights[0]):
    print(f"  {words[dst].surface} <- {words[src].surface}: {weight:.3f}")
sums = np.bincount(graph.word_word[0], weights=weights[0])
print("weights into each word sum to 1:", np.allclose(sums, 1.0))

# characters are fully connected: edges=None attends every pair densely
t_c = intra_source_attention(h_c, None, params.char_att, heads)

# cross-source gating: each character absorbs its words through learned
# elementwise gates; characters without words pass through untouched
s_c, s_w = inter_source_fusion(t_c, t_w, graph, params)
delta = np.abs(s_c.data - t_c.data).max(axis=1)
print("\nper-character update magnitude from word fusion:")
print(np.round(delta, 3), "(all characters here belong to some word)")

# a full layer = attention + gating + FFN per source, then stack L of them
one_c, one_w = fusion_layer(h_c, h_w, graph, params, heads)
print(f"\nafter one layer: H_c {one_c.shape}, H_w {one_w.shape}")

layers = [FusionLayerParams.init(d_c, 32, heads, rng) for _ in range(3)]
out_c, out_w = h_c, h_w
for layer in layers:
    out_c, out_w = fusion_layer(out_c, out_w, graph, layer, heads)
print(f"after a 3-layer stack: H_c {out_c.shape}, finite: {np.isfinite(out_c.data).all()}")
