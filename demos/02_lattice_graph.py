"""The unified lattice graph: character and word nodes, the word mask, the
character-word mask, and the edge-construction variants."""

from lexner import build_graph, build_trie, graph_variant, match_sentence
from lexner.graph import serialize_graph

sentence = "北京人民大会堂"
trie = build_trie(["北京", "北京人", "人民", "人民大会堂"])
words, _ = match_sentence(trie, sentence)

graph = build_graph(len(sentence), words)
print(f"graph: n={graph.n} characters, m={graph.m} words")

print("characters are fully connected, so they need no mask")

print("\nword mask M_w (1 where spans share a character):")
print(graph.word_mask)
for j, w in enumerate(graph.words):
    print(f"  word {j}: {w.surface} [{w.head},{w.tail}]")

print("\ninter-source mask (characters x words, 1 where the word covers the character):")
print(graph.inter_mask)

# ablation variants rewire the edges without touching the nodes
for variant in ("wo_word_edge", "fc_intra", "fc_inter"):
    v = graph_variant(graph, variant)
    print(f"\nvariant {variant}:")
    print("  M_w:")
    print("  " + str(v.word_mask).replace("\n", "\n  "))
    print("  inter-source mask:")
    print("  " + str(v.inter_mask).replace("\n", "\n  "))

print("\nserialized form (standard):")
print(serialize_graph(graph))
