"""Verify the hand-written backward pass against central finite differences
for every parameter tensor of a small model."""

import numpy as np

from lexner import build_trie
from lexner.model import ModelDims, ModelParams, prepare_sentence
from lexner.synthetic import make_overfit_corpus
from lexner.trainer import grad_check

corpus, lexicon = make_overfit_corpus()
trie = build_trie(lexicon)
chars = sorted({c for s in corpus.sentences for c in s.chars})

dims = ModelDims(d_c=8, d_w=8, d_ff=32, heads=2, layers=2)
model = ModelParams.build(
    dims, chars, trie.words, corpus.entity_types(),
    np.random.default_rng(0), dtype=np.float64,  # double precision for the probe
)

sentence = list("zadxy")  # 5 characters, 3 matched words
tags = ["O", "B-PER", "I-PER", "O", "O"]
enc = prepare_sentence(sentence, trie, model.tagset, tags)
print(f"probe sentence {''.join(sentence)!r}: "
      f"{[w.surface for w in enc.graph.words]} matched")

report = grad_check(model, enc, lam=0.3, max_entries_per_tensor=8)
print(report.format())

print("\nworst relative error per tensor:")
for name, err in sorted(report.per_tensor.items(), key=lambda kv: -kv[1])[:8]:
    print(f"  {name:28s} {err:.3e}")
print(f"  ... ({len(report.per_tensor)} tensors checked in total)")
