"""Corpus parsing, span round trips, strict-match evaluation, statistics."""

import itertools

import numpy as np
import pytest

from lexner.data import (
    Corpus,
    CorpusError,
    Sentence,
    allowed_transitions,
    corpus_stats,
    evaluate,
    load_corpus,
    load_lexicon,
    make_tagset,
    read_lines,
    spans_to_tags,
    tags_to_spans,
)
from lexner.matching import build_trie
from lexner.trainer import TrainConfig


def write_corpus(path, sentences):
    lines = []
    for chars, tags in sentences:
        lines.extend(f"{c}\t{t}" for c, t in zip(chars, tags))
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path).sentences == []

    def test_two_sentence_fixture(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus(
            path,
            [("北京", ["B-GPE", "I-GPE"]), ("公众开放", ["O", "O", "O", "O"])],
        )
        corpus = load_corpus(path)
        assert len(corpus.sentences) == 2
        assert [len(s) for s in corpus.sentences] == [2, 4]
        assert corpus.sentences[0].tags == ["B-GPE", "I-GPE"]
        assert corpus.entity_types() == ["GPE"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\nbroken line\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(path)

    def test_a_line_of_one_ideographic_space_is_malformed(self, tmp_path):
        # only a line empty after stripping ASCII spaces and tabs ends a sentence
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\n\u3000\nb\tO\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"bad\.tsv:2: expected `char<TAB>tag`, got '\\u3000'"):
            load_corpus(path)
        path.write_text("a\tO\n \t \nb\tO\n", encoding="utf-8")
        assert [s.chars for s in load_corpus(path).sentences] == [["a"], ["b"]]

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tQ-PER\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="unknown tag"):
            load_corpus(path)
        path.write_text("a\tM-PER\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path, scheme="bio")
        load_corpus(path, scheme="bmes")  # valid there

    def test_dangling_continuation_repaired_with_count(self, tmp_path):
        path = tmp_path / "repair.tsv"
        write_corpus(path, [("abc", ["O", "I-PER", "I-PER"])])
        corpus = load_corpus(path)
        assert corpus.repaired_tags == 1
        assert corpus.sentences[0].tags == ["O", "B-PER", "I-PER"]

    def test_round_trip_spans(self, tmp_path):
        rng = np.random.default_rng(0)
        for scheme in ("bio", "bmes"):
            sentences = []
            expected = []
            for _ in range(20):
                n = int(rng.integers(1, 15))
                spans = []
                pos = 0
                while pos < n:
                    if rng.random() < 0.4:
                        t = min(n - 1, pos + int(rng.integers(0, 3)))
                        spans.append((pos, t, str(rng.choice(["PER", "ORG"]))))
                        pos = t + 2
                    else:
                        pos += 1
                tags = spans_to_tags(spans, n, scheme)
                sentences.append(("x" * n, tags))
                expected.append(spans)
            path = tmp_path / f"{scheme}.tsv"
            write_corpus(path, sentences)
            corpus = load_corpus(path, scheme)
            assert corpus.repaired_tags == 0
            for sent, spans in zip(corpus.sentences, expected):
                assert tags_to_spans(sent.tags, scheme) == spans


@pytest.mark.parametrize("reader", ["corpus", "lexicon", "config"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, reader):
    text, load = {
        "corpus": ("a\tB-PER\nb\tI-PER\n\nc\tO\n", lambda path: load_corpus(path).sentences),
        "lexicon": ("abc\nab\n", load_lexicon),
        "config": ("d_c = 8\nheads = 2\n", TrainConfig.from_file),
    }[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load(marked) == load(plain)


def test_the_lines_before_a_bad_byte_are_read_first(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\nb\r\nc \xff\nd\n")  # one decoding chunk
    lines = read_lines(path)
    assert [next(lines), next(lines)] == [(1, "a"), (2, "b")]
    with pytest.raises(CorpusError, match=r"f\.txt:3: not valid UTF-8"):
        next(lines)


def test_a_malformed_sentence_before_a_bad_byte_is_named_first(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"a\tO\nbroken\n\nb\tO\n\xff\tO\n")
    with pytest.raises(CorpusError, match=r"c\.tsv:2: expected"):
        load_corpus(path)


class TestSpanConversion:
    def test_bio_render(self):
        tags = spans_to_tags([(1, 3, "ORG")], 5)
        assert tags == ["O", "B-ORG", "I-ORG", "I-ORG", "O"]

    def test_bmes_render(self):
        tags = spans_to_tags([(0, 0, "PER"), (2, 4, "LOC")], 5, "bmes")
        assert tags == ["S-PER", "O", "B-LOC", "M-LOC", "E-LOC"]

    def test_adjacent_entities_stay_distinct(self):
        tags = ["B-A", "I-A", "B-A", "I-A"]
        assert tags_to_spans(tags) == [(0, 1, "A"), (2, 3, "A")]

    def test_extraction_is_inverse_of_render(self):
        rng = np.random.default_rng(1)
        for scheme in ("bio", "bmes"):
            for _ in range(100):
                n = int(rng.integers(1, 12))
                spans = []
                pos = int(rng.integers(0, 3))
                while pos < n:
                    t = min(n - 1, pos + int(rng.integers(0, 3)))
                    spans.append((pos, t, "T"))
                    pos = t + 2 + int(rng.integers(0, 2))
                assert tags_to_spans(spans_to_tags(spans, n, scheme), scheme) == spans


def corpus_of(tag_lists):
    return Corpus([Sentence(["x"] * len(t), list(t)) for t in tag_lists])


class TestEvaluate:
    def test_half_recall(self):
        gold = corpus_of([spans_to_tags([(0, 1, "GPE"), (2, 6, "ORG")], 7)])
        pred = [spans_to_tags([(0, 1, "GPE")], 7)]
        report = evaluate(pred, gold)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)
        assert report.per_type["GPE"] == (1.0, 1.0, 1.0)

    def test_perfect_prediction(self):
        tags = spans_to_tags([(1, 2, "PER")], 4)
        report = evaluate([tags], corpus_of([tags]))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_wrong_type_is_not_correct(self):
        gold = corpus_of([spans_to_tags([(0, 1, "PER")], 3)])
        report = evaluate([spans_to_tags([(0, 1, "ORG")], 3)], gold)
        assert report.correct_entities == 0

    def test_zero_denominators(self):
        gold = corpus_of([["O", "O"]])
        report = evaluate([["O", "O"]], gold)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sentences = []
            preds = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(2, 10))
                def random_tags():
                    spans = []
                    pos = 0
                    while pos < n - 1:
                        if rng.random() < 0.5:
                            t = min(n - 1, pos + int(rng.integers(0, 2)))
                            spans.append((pos, t, str(rng.choice(["A", "B"]))))
                            pos = t + 2
                        else:
                            pos += 1
                    return spans_to_tags(spans, n)
                sentences.append(random_tags())
                preds.append(random_tags())
            gold = corpus_of(sentences)
            report = evaluate(preds, gold)
            # independent P/R/F1 from per-sentence span sets
            correct = pred_n = gold_n = 0
            for g, p in zip(sentences, preds):
                gs, ps = set(tags_to_spans(g)), set(tags_to_spans(p))
                correct += len(gs & ps)
                gold_n += len(gs)
                pred_n += len(ps)
            prec = correct / pred_n if pred_n else 0.0
            rec = correct / gold_n if gold_n else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert report.precision == pytest.approx(prec)
            assert report.recall == pytest.approx(rec)
            assert report.f1 == pytest.approx(f1)
            assert 0.0 <= report.f1 <= 1.0

    def test_symmetric_under_sentence_reordering(self):
        a = spans_to_tags([(0, 1, "A")], 4)
        b = spans_to_tags([(2, 3, "B")], 4)
        gold = corpus_of([a, b])
        gold_r = corpus_of([b, a])
        r1 = evaluate([a, ["O"] * 4], gold)
        r2 = evaluate([["O"] * 4, a], gold_r)
        assert (r1.precision, r1.recall, r1.f1) == (r2.precision, r2.recall, r2.f1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            evaluate([["O"]], corpus_of([["O", "O"]]))
        with pytest.raises(CorpusError):
            evaluate([], corpus_of([["O"]]))


class TestCorpusStats:
    def test_entity_average(self):
        gold = corpus_of(
            [spans_to_tags([(0, 1, "A"), (3, 4, "B")], 6), spans_to_tags([(0, 1, "A")], 4)]
        )
        stats = corpus_stats(gold, build_trie([]))
        assert stats.sentences == 2
        assert stats.entities == 3
        assert stats.entity_avg == pytest.approx(1.5)

    def test_empty_lexicon_gives_zero_rate(self):
        gold = corpus_of([spans_to_tags([(0, 1, "A")], 4)])
        stats = corpus_stats(gold, build_trie([]))
        assert stats.rate_word_ent == 0.0

    def test_full_lexicon_coverage_reaches_100(self):
        sentences = [
            Sentence(list("abxy"), spans_to_tags([(0, 1, "A")], 4)),
            Sentence(list("xcdy"), spans_to_tags([(1, 2, "B")], 4)),
        ]
        trie = build_trie(["ab", "cd"])
        stats = corpus_stats(Corpus(sentences), trie)
        assert stats.rate_word_ent >= 100.0

    def test_format_mentions_reading_of_rate(self):
        gold = corpus_of([["O"]])
        text = corpus_stats(gold, build_trie([])).format()
        assert "Match or Cover" in text


class TestMakeTagset:
    def test_bio(self):
        assert make_tagset(["PER", "LOC"]) == ["O", "B-LOC", "I-LOC", "B-PER", "I-PER"]

    def test_bmes(self):
        tags = make_tagset(["X"], "bmes")
        assert tags == ["O", "B-X", "M-X", "E-X", "S-X"]

    def test_outside_tag_is_id_zero(self):
        assert make_tagset(["Z"]).index("O") == 0


class TestAllowedTransitions:
    def test_bio_rules(self):
        tagset = make_tagset(["PER"])
        allowed = allowed_transitions(tagset)
        o, bper, iper = tagset.index("O"), tagset.index("B-PER"), tagset.index("I-PER")
        start = len(tagset)
        assert allowed[start, o] and allowed[start, bper] and not allowed[start, iper]
        assert allowed[bper, iper] and allowed[iper, iper]
        assert not allowed[o, iper]

    def test_bmes_rules(self):
        tagset = make_tagset(["PER"], "bmes")
        allowed = allowed_transitions(tagset, "bmes")
        idx = {t: i for i, t in enumerate(tagset)}
        stop = len(tagset)
        assert allowed[idx["B-PER"], idx["M-PER"]]
        assert allowed[idx["M-PER"], idx["E-PER"]]
        assert not allowed[idx["B-PER"], idx["O"]]
        assert not allowed[idx["B-PER"], stop]
        assert allowed[idx["E-PER"], stop]

    @pytest.mark.parametrize("scheme", ["bio", "bmes"])
    def test_admits_exactly_the_sequences_that_round_trip(self, scheme):
        # oracle: a tag sequence is well formed iff rendering its spans gives it back
        tagset = make_tagset(["A", "B"], scheme)
        allowed = allowed_transitions(tagset, scheme)
        start = stop = len(tagset)
        for n in range(1, 5):
            for seq in itertools.product(range(len(tagset)), repeat=n):
                path = (start, *seq, stop)
                admitted = all(allowed[a, b] for a, b in zip(path, path[1:]))
                tags = [tagset[i] for i in seq]
                assert admitted == (spans_to_tags(tags_to_spans(tags, scheme), n, scheme) == tags)
