"""The unified lattice graph: character and word nodes, the word-word edges,
the character-word edges, and the edge-construction variants."""

from lexner import build_graph, build_trie, graph_variant, match_sentence
from lexner.graph import serialize_graph

sentence = "北京人民大会堂"
trie = build_trie(["北京", "北京人", "人民", "人民大会堂"])
words, _ = match_sentence(trie, sentence)

graph = build_graph(len(sentence), words)
print(f"graph: n={graph.n} characters, m={graph.m} words")

print("characters are fully connected, so they need no edge list")
for j, w in enumerate(graph.words):
    print(f"  word {j}: {w.surface} [{w.head},{w.tail}]")


def show(edges, receiver, sender):
    return ", ".join(f"{receiver}{a}<-{sender}{b}" for a, b in edges.T)


# every edge list holds (receiver, sender) columns, sorted by receiver
print("\nword-word edges (spans share a character; self-loops included):")
print("  " + show(graph.word_word, "w", "w"))

print("\ncharacter-word edges (the word covers the character), by character:")
print("  " + show(graph.char_word, "c", "w"))
print("read bottom-up, the same columns are the words' side of the gate:")
print("  " + show(graph.char_word[::-1], "w", "c"))

# ablation variants rewire the edges without touching the nodes
for variant in ("wo_word_edge", "fc_intra", "fc_inter"):
    v = graph_variant(graph, variant)
    print(f"\nvariant {variant}: {v.word_word.shape[1]} word-word edges, "
          f"{v.char_word.shape[1]} character-word edges")
    print("  word-word: " + show(v.word_word, "w", "w"))

print("\nserialized form (standard):")
print(serialize_graph(graph))
