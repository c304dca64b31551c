"""Initial node states: sinusoidal positions for characters, the
four-way relative position mix for words, and the shared projection."""

import numpy as np

from lexner import EmbeddingTable, WordProjection, encode_position
from lexner.encoding import char_states, word_states
from lexner.matching import MatchedWord

print("sinusoidal table, positions 0 and 1 at dimension 8:")
for row in np.round(encode_position(2, 8), 4):
    print(" ", row)

# a sentence builds one table of any length: characters read its first n
# rows, and words the (head, tail, tail-head, tail+head) rows of their spans
spans = np.array([[2, 3, 1, 5], [7, 8, 1, 15]])
rows = encode_position(spans.max() + 1, 8)
print(f"\nword spans {spans.shape} read {rows[spans].shape} from a {rows.shape} table")
assert np.array_equal(rows[5], encode_position(1000, 8)[5])

rng = np.random.default_rng(0)
chars = list("北京人民")
char_table = EmbeddingTable.random(chars, dim=8, rng=rng)
h_c = char_states(chars, char_table)
print(f"\ncharacter states: {h_c.shape} = embedding + absolute position")

# the same surface at two different spans encodes differently
word_table = EmbeddingTable.random(["人民"], dim=8, rng=rng)
proj = WordProjection.init(d_w=8, d_c=8, rng=rng)
occurrences = [MatchedWord("人民", 2, 3), MatchedWord("人民", 7, 8)]
h_w = word_states(occurrences, word_table, proj)
print(f"word states: {h_w.shape}, projected to the character dimension")
gap = np.abs(h_w.data[0] - h_w.data[1]).max()
print(f"same surface, spans (2,3) vs (7,8): max coordinate gap {gap:.4f}")

# unknown tokens fall back to the UNK row
print(f"\nUNK row id for characters: {char_table.lookup_index('unseen')}")
