"""Lexicon matching: build a trie, find every word occurrence in a sentence,
and classify each matched word by its relation to the gold entities."""

from lexner import build_trie, label_lec, match_sentence
from lexner.matching import LEC_LABEL_NAMES

# "The Great Hall of the People in Beijing was opened to the public ..."
sentence = "北京人民大会堂于70年代末面向公众开放"
lexicon = ["北京", "北京人", "人民", "人民大会堂", "公众", "会堂", "年代"]

trie = build_trie(lexicon)
print(f"lexicon holds {len(trie.words)} words, longest {trie.max_word_len} chars")

words, subsets = match_sentence(trie, sentence)
print(f"\nsentence: {sentence}")
print(f"{len(words)} matched words:")
for w in words:
    print(f"  [{w.head:2d},{w.tail:2d}] {w.surface}")

# every character knows which words run through it
i = 2  # the character 人
print(f"\nword subset of character {i} ({sentence[i]}):")
for j in subsets[i]:
    print(f"  {words[j].surface}")

# gold entities: Beijing (GPE) and the Great Hall of the People (ORG)
gold = [(0, 1, "GPE"), (2, 6, "ORG")]
labels = label_lec(words, gold)
print("\nword properties against the gold spans:")
for w, lab in zip(words, labels):
    print(f"  {w.surface:8s} -> {LEC_LABEL_NAMES[lab]}")

# 人民大会堂 equals a gold span (Match), 人民 sits strictly inside it (Cover),
# 北京人 crosses a boundary and 公众 lies outside (both Disturb)
