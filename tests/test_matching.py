"""Trie construction, sentence matching against a brute-force oracle, and
word-property labeling."""

import numpy as np
import pytest

from lexner import load_lexicon
from lexner.matching import (
    COVER,
    DISTURB,
    MATCH,
    MatchedWord,
    build_trie,
    label_lec,
    match_sentence,
)

HALL = "北京人民大会堂"
HALL_SENTENCE = "北京人民大会堂于70年代末面向公众开放"
HALL_LEXICON = ["北京", "北京人", "人民", "人民大会堂", "公众"]


def naive_matches(lexicon: list[str], sentence: str) -> set[tuple[str, int, int]]:
    """Substring scan over every (head, tail) slice; the matching oracle."""
    words = {w for w in lexicon if len(w) >= 2}
    found = set()
    n = len(sentence)
    for h in range(n):
        for t in range(h + 1, n):
            s = sentence[h : t + 1]
            if s in words:
                found.add((s, h, t))
    return found


class TestBuildTrie:
    def test_empty_lexicon(self):
        trie = build_trie([])
        assert trie.words == []
        assert match_sentence(trie, "abc")[0] == []

    def test_prefix_words_coexist(self):
        trie = build_trie(["北京", "北京人", "人民", "人民大会堂"])
        assert len(trie.words) == 4
        # the matcher reports only nodes marked as word ends: 北, 人民大 and
        # 人民大会 are prefixes of words but not words themselves
        words, _ = match_sentence(trie, "北京人民大会堂")
        assert [w.surface for w in words] == ["北京", "北京人", "人民", "人民大会堂"]

    def test_deduplication_matches_set_oracle(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdef")
        words = [
            "".join(rng.choice(alphabet, size=rng.integers(2, 6)))
            for _ in range(1000)
        ]
        trie = build_trie(words)
        assert len(trie.words) == len(set(words))

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            build_trie(["ok", ""])

    def test_single_char_entries_skipped(self):
        trie = build_trie(["a", "ab", "b"])
        assert trie.words == ["ab"]
        # no word end at the node for "a": the matcher finds only "ab"
        assert [(w.head, w.tail) for w in match_sentence(trie, "ab")[0]] == [(0, 1)]

    def test_max_word_len_cap(self):
        trie = build_trie(["ab", "abcd"], max_word_len=3)
        assert len(trie.words) == 1
        words, _ = match_sentence(trie, "abcd")
        assert [w.surface for w in words] == ["ab"]
        # 0 caps nothing
        assert build_trie(["ab", "abcd"], max_word_len=0).words == ["ab", "abcd"]

    def test_first_occurrence_wins(self):
        # the word vocabulary, and so the checkpoint, follow this order
        assert build_trie(["bc", "ab", "bc"]).words == ["bc", "ab"]


class TestMatchSentence:
    def test_word_subset_of_shared_character(self):
        trie = build_trie(HALL_LEXICON)
        words, subsets = match_sentence(trie, HALL_SENTENCE)
        # character "人" at index 2 belongs to three overlapping words
        surfaces = {words[j].surface for j in subsets[2]}
        assert surfaces == {"北京人", "人民", "人民大会堂"}

    def test_empty_trie_yields_no_matches(self):
        words, subsets = match_sentence(build_trie([]), "任意句子")
        assert words == []
        assert all(ws == [] for ws in subsets)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            match_sentence(build_trie(["ab"]), "")

    def test_matches_equal_naive_scan(self):
        rng = np.random.default_rng(42)
        alphabet = list("abcde")
        for _ in range(200):
            lexicon = [
                "".join(rng.choice(alphabet, size=rng.integers(2, 5)))
                for _ in range(rng.integers(1, 30))
            ]
            sentence = "".join(rng.choice(alphabet, size=rng.integers(1, 25)))
            trie = build_trie(lexicon)
            words, subsets = match_sentence(trie, sentence)
            got = {(w.surface, w.head, w.tail) for w in words}
            assert got == naive_matches(lexicon, sentence)
            # sorted by (head, tail)
            assert [(w.head, w.tail) for w in words] == sorted(
                (w.head, w.tail) for w in words
            )
            for i, ws in enumerate(subsets):
                for j in ws:
                    assert words[j].head <= i <= words[j].tail
            in_subsets = {j for ws in subsets for j in ws}
            assert in_subsets == set(range(len(words)))

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(7)
        lexicon = ["ab", "abc", "bc", "ca", "cab"]
        sentence = "cabcabc"
        reference = match_sentence(build_trie(lexicon), sentence)[0]
        for _ in range(5):
            shuffled = list(lexicon)
            rng.shuffle(shuffled)
            words = match_sentence(build_trie(shuffled), sentence)[0]
            assert [(w.surface, w.head, w.tail) for w in words] == [
                (w.surface, w.head, w.tail) for w in reference
            ]

    def test_repeated_occurrences_are_distinct_words(self):
        words, _ = match_sentence(build_trie(["ab"]), "abab")
        assert [(w.head, w.tail) for w in words] == [(0, 1), (2, 3)]
        assert words[0] != words[1]

    def test_a_multi_character_element_matches_no_word(self):
        # each sentence element is one step of the trie, never a spelled-out prefix
        assert match_sentence(build_trie(["abc"]), ["ab", "c"])[0] == []

    def test_surface_equals_slice(self):
        words, _ = match_sentence(build_trie(HALL_LEXICON), HALL_SENTENCE)
        for w in words:
            assert w.surface == HALL_SENTENCE[w.head : w.tail + 1]


class TestLabelLec:
    GOLD = [(2, 6, "ORG")]

    def test_exact_span_is_match(self):
        words = [MatchedWord("人民大会堂", 2, 6)]
        assert label_lec(words, self.GOLD) == [MATCH]

    def test_contained_span_is_cover(self):
        words = [MatchedWord("人民", 2, 3)]
        assert label_lec(words, self.GOLD) == [COVER]

    def test_outside_and_crossing_are_disturb(self):
        words = [
            MatchedWord("公众", 14, 15),  # entirely outside
            MatchedWord("北京人", 0, 2),  # crosses the gold head boundary
        ]
        assert label_lec(words, self.GOLD) == [DISTURB, DISTURB]

    def test_word_containing_an_entity_is_disturb(self):
        words = [MatchedWord("大人民大会堂", 1, 6)]
        assert label_lec(words, self.GOLD) == [DISTURB]

    def test_each_word_gets_exactly_one_label(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 20))
            spans = []
            pos = 0
            while pos < n - 2 and len(spans) < 3:
                h = pos + int(rng.integers(0, 3))
                t = h + int(rng.integers(0, 3))
                if t < n:
                    spans.append((h, t, "T"))
                pos = t + 2
            words = []
            for _ in range(int(rng.integers(1, 8))):
                h = int(rng.integers(0, n - 1))
                t = min(n - 1, h + int(rng.integers(1, 4)))
                words.append(MatchedWord("x" * (t - h + 1), h, t))
            labels = label_lec(words, spans)
            assert len(labels) == len(words)
            assert all(lab in (MATCH, COVER, DISTURB) for lab in labels)
            # span-relation oracle
            for w, lab in zip(words, labels):
                if any((w.head, w.tail) == (h, t) for h, t, _ in spans):
                    assert lab == MATCH
                elif any(
                    h <= w.head and w.tail <= t and (w.head, w.tail) != (h, t)
                    for h, t, _ in spans
                ):
                    assert lab == COVER
                else:
                    assert lab == DISTURB

    def test_overlapping_gold_spans_rejected(self):
        with pytest.raises(ValueError):
            label_lec([], [(0, 3, "A"), (2, 5, "B")])


def test_load_lexicon_ignores_frequency_column(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("北京 123\n人民\n\n人民大会堂 7 extra\n", encoding="utf-8")
    assert load_lexicon(path) == ["北京", "人民", "人民大会堂"]


@pytest.mark.parametrize("inside", ["\u2028", "\x0c", "\x85"])
def test_load_lexicon_splits_lines_only_at_line_ends(tmp_path, inside):
    # str.splitlines breaks at each of these; a lexicon word keeps them
    path = tmp_path / "lex.txt"
    path.write_text(f"x{inside}y 5\nab\t7\r\n \tcd 3\t9\r\n", encoding="utf-8")
    assert load_lexicon(path) == [f"x{inside}y", "ab", "cd"]
