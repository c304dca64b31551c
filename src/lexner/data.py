"""Input files, tag/span conversion, strict-match evaluation, statistics.

`read_lines` splits every input file into lines. Corpus files are UTF-8, one
`character<TAB>tag` pair per line, blank line between sentences. `SCHEMES` is
the only declaration of a tag scheme (BIO, the default everywhere, or BMES):
the `prefix-type` tag prefixes of a one-character entity and of an entity's
first, inner and last characters. Every scheme rule here is derived from that
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .matching import COVER, MATCH, LexiconTrie, label_lec, match_sentence

# prefixes for (single, first, inner, last)
SCHEMES = {"bio": ("B", "B", "I", "I"), "bmes": ("S", "B", "M", "E")}


def _prefixes(scheme: str) -> tuple[str, str, str, str]:
    """The (single, first, inner, last) prefixes of a scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown tag scheme {scheme!r}")
    return SCHEMES[scheme]


def _roles(scheme: str) -> tuple[tuple[str, ...], ...]:
    """The prefixes that continue the open entity, those that leave it open,
    and those after which an entity may end."""
    single, first, inner, last = _prefixes(scheme)
    return (inner, last), (first, inner), ("O", single, last)


class CorpusError(ValueError):
    """Malformed corpus input (bad line, unknown tag, length mismatch)."""


@dataclass
class Sentence:
    chars: list[str]
    tags: list[str]

    def __len__(self) -> int:
        return len(self.chars)


@dataclass
class Corpus:
    sentences: list[Sentence]
    scheme: str = "bio"
    repaired_tags: int = 0

    def entity_types(self) -> list[str]:
        types = set()
        for sent in self.sentences:
            for _, _, t in tags_to_spans(sent.tags, self.scheme):
                types.add(t)
        return sorted(types)

    def gold_spans(self) -> list[list[tuple[int, int, str]]]:
        return [tags_to_spans(s.tags, self.scheme) for s in self.sentences]


def make_tagset(entity_types: Sequence[str], scheme: str = "bio") -> list[str]:
    """Label inventory for a set of entity types: outside tag first (id 0), then
    each type's prefixes in the order first, inner, last, single, each once."""
    single, first, inner, last = _prefixes(scheme)
    prefixes = dict.fromkeys((first, inner, last, single))
    tags = ["O"]
    for t in sorted(entity_types):
        tags.extend(f"{p}-{t}" for p in prefixes)
    return tags


def spans_to_tags(spans: Sequence[tuple[int, int, str]], n: int, scheme: str = "bio") -> list[str]:
    """Render entity spans as a per-character tag sequence."""
    single, first, inner, last = _prefixes(scheme)
    tags = ["O"] * n
    for head, tail, etype in spans:
        if not (0 <= head <= tail < n):
            raise ValueError(f"span ({head},{tail}) out of range for length {n}")
        if head == tail:
            tags[head] = f"{single}-{etype}"
            continue
        tags[head] = f"{first}-{etype}"
        for i in range(head + 1, tail):
            tags[i] = f"{inner}-{etype}"
        tags[tail] = f"{last}-{etype}"
    return tags


def tags_to_spans(tags: Sequence[str], scheme: str = "bio") -> list[tuple[int, int, str]]:
    """Extract (head, tail, type) entity spans; inverse of spans_to_tags.

    A tag that does not continue the open entity of its type starts one, and
    a tag that does not leave it open ends it. So a prefix the scheme does not
    use gives a one-character entity (`load_corpus` rejects such tags).
    """
    continues, stays_open, _ = _roles(scheme)
    spans: list[tuple[int, int, str]] = []
    head: int | None = None
    etype: str | None = None

    def flush(end: int) -> None:
        nonlocal head, etype
        if head is not None:
            spans.append((head, end, etype))
        head = etype = None

    for i, tag in enumerate(tags):
        if tag == "O":
            flush(i - 1)
            continue
        prefix, _, t = tag.partition("-")
        if prefix not in continues or head is None or t != etype:
            flush(i - 1)
            head, etype = i, t
        if prefix not in stays_open:
            flush(i)
    flush(len(tags) - 1)
    return spans


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The 1-based number and text of each line of a UTF-8 file; a leading
    byte-order mark is skipped. Lines end only at `\n`, `\r\n` or `\r`: a U+2028
    or `\x0c`, which `str.splitlines` breaks at, is a character of its line. A
    byte that is not UTF-8 is a CorpusError, raised when its line is reached,
    so a caller that checks each line as it comes names the first fault."""
    done = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for done, raw in enumerate(fh, start=1):
                yield done, raw.rstrip("\n")
    except UnicodeDecodeError:
        # decoding fails a whole chunk at once: resume after the last line given,
        # and name the bad line (surrogateescape decodes each bad byte to U+DC80..U+DCFF)
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, raw in islice(enumerate(fh, start=1), done, None):
                if any("\udc80" <= c <= "\udcff" for c in raw):
                    raise CorpusError(f"{path}:{lineno}: not valid UTF-8") from None
                yield lineno, raw.rstrip("\n")
        raise


def read_sentences(path: str | Path) -> Iterator[list[tuple[int, str]]]:
    """The sentences of a corpus-format file, each as its (line number, line)
    pairs. A line empty after stripping ASCII spaces and tabs separates
    sentences; one holding only a U+3000 or U+2028 is a line of its sentence."""
    for filled, lines in groupby(read_lines(path), key=lambda item: bool(item[1].strip(" \t"))):
        if filled:
            yield list(lines)


def load_lexicon(path: str | Path) -> list[str]:
    """The words of a lexicon file: the first column of each non-blank line.
    Columns split at ASCII spaces and tabs, so a frequency column is ignored
    and a U+2028, `\x0c` or U+0085 is a character of its word."""
    words: list[str] = []
    for _, line in read_lines(path):
        words.extend([c for c in line.replace("\t", " ").split(" ") if c][:1])
    return words


def malformed_line(path: str | Path, lineno: int, line: str) -> CorpusError:
    return CorpusError(f"{path}:{lineno}: expected `char<TAB>tag`, got {line!r}")


def load_corpus(path: str | Path, scheme: str = "bio") -> Corpus:
    """Parse a two-column corpus file.

    Raises CorpusError with the line number for malformed lines or tags not
    matching the scheme. A tag that continues an entity where none of its
    type is open (sentence-initial, after `O` or after another type) is
    repaired by promoting it to the scheme's first prefix, counted in
    Corpus.repaired_tags.
    """
    prefixes = set(_prefixes(scheme))
    sentences: list[Sentence] = []
    repaired = 0
    for block in read_sentences(path):
        chars: list[str] = []
        tags: list[str] = []
        for lineno, line in block:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise malformed_line(path, lineno, line)
            char, tag = parts
            if tag != "O":
                prefix, sep, etype = tag.partition("-")
                if not sep or prefix not in prefixes or not etype:
                    raise CorpusError(f"{path}:{lineno}: unknown tag {tag!r} for scheme {scheme}")
            chars.append(char)
            tags.append(tag)
        repaired += _repair_tags(tags, scheme)
        sentences.append(Sentence(chars, tags))
    return Corpus(sentences, scheme, repaired)


def _repair_tags(tags: list[str], scheme: str) -> int:
    """Promote continuation tags with no open entity of their type to the
    scheme's first prefix, in place; returns how many were promoted."""
    first = _prefixes(scheme)[1]
    continues, stays_open, _ = _roles(scheme)
    repaired = 0
    open_type: str | None = None
    for i, tag in enumerate(tags):
        prefix, _, etype = tag.partition("-")
        if prefix in continues and open_type != etype:
            prefix = first
            tags[i] = f"{first}-{etype}"
            repaired += 1
        open_type = etype if prefix in stays_open else None
    return repaired


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold_entities: int
    predicted_entities: int
    correct_entities: int
    per_type: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"entities gold={self.gold_entities} predicted={self.predicted_entities} "
            f"correct={self.correct_entities}",
            f"precision={self.precision:.4f} recall={self.recall:.4f} f1={self.f1:.4f}",
        ]
        for etype, (p, r, f1) in sorted(self.per_type.items()):
            lines.append(f"type {etype}: precision={p:.4f} recall={r:.4f} f1={f1:.4f}")
        return "\n".join(lines)


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def evaluate(pred_tags: Sequence[Sequence[str]], gold: Corpus) -> EvalReport:
    """Strict span+type matching: an entity is correct only on exact equality."""
    if len(pred_tags) != len(gold.sentences):
        raise CorpusError(
            f"prediction has {len(pred_tags)} sentences, gold has {len(gold.sentences)}"
        )
    by_type: dict[str, list[int]] = {}
    for pred, sent in zip(pred_tags, gold.sentences):
        if len(pred) != len(sent.chars):
            raise CorpusError("prediction/gold sentence length mismatch")
        gold_spans = set(tags_to_spans(sent.tags, gold.scheme))
        pred_spans = set(tags_to_spans(pred, gold.scheme))
        for spans, slot in ((gold_spans, 0), (pred_spans, 1), (gold_spans & pred_spans, 2)):
            for _, _, etype in spans:
                by_type.setdefault(etype, [0, 0, 0])[slot] += 1
    gold_n, pred_n, correct = map(sum, zip([0, 0, 0], *by_type.values()))
    per_type = {etype: _prf(c, pr, g) for etype, (g, pr, c) in by_type.items()}
    return EvalReport(*_prf(correct, pred_n, gold_n), gold_n, pred_n, correct, per_type)


@dataclass
class CorpusStats:
    sentences: int
    entities: int
    entity_avg: float
    matched_words: int
    effective_words: int
    rate_word_ent: float

    def format(self) -> str:
        return "\n".join(
            [
                f"sentences {self.sentences}",
                f"entities {self.entities}",
                f"entity_avg {self.entity_avg:.4f}",
                f"matched_words {self.matched_words}",
                f"effective_words {self.effective_words}",
                f"rate_word_ent {self.rate_word_ent:.2f}",
                "# rate_word_ent counts matched words whose span equals or sits strictly",
                "# inside a gold entity (Match or Cover), per 100 gold entities.",
            ]
        )


def corpus_stats(corpus: Corpus, trie: LexiconTrie) -> CorpusStats:
    """Sentence count, entities per sentence, and lexicon coverage of entities."""
    n_sent = len(corpus.sentences)
    n_ent = 0
    n_matched = 0
    n_effective = 0
    for sent in corpus.sentences:
        spans = tags_to_spans(sent.tags, corpus.scheme)
        n_ent += len(spans)
        words, _ = match_sentence(trie, sent.chars)
        n_matched += len(words)
        labels = label_lec(words, spans)
        n_effective += sum(1 for lab in labels if lab in (MATCH, COVER))
    entity_avg = n_ent / n_sent if n_sent else 0.0
    rate = 100.0 * n_effective / n_ent if n_ent else 0.0
    return CorpusStats(n_sent, n_ent, entity_avg, n_matched, n_effective, rate)


def allowed_transitions(tagset: Sequence[str], scheme: str = "bio") -> np.ndarray:
    """Boolean (K+1, K+1) matrix of well-formed tag bigrams for constrained decoding,
    laid out like the CRF's transitions: row K is START and column K is STOP.

    A continuing tag may follow only an open tag of its type; any other tag,
    and STOP, only a tag after which an entity may end; START no continuing tag.
    """
    continues, stays_open, may_end = _roles(scheme)
    k = len(tagset)
    prefix = np.array([t.partition("-")[0] for t in tagset], dtype=str)
    etype = np.array([t.partition("-")[2] for t in tagset], dtype=str)
    cont, ends = np.isin(prefix, continues), np.isin(prefix, may_end)
    same_open = np.isin(prefix, stays_open)[:, None] & (etype[:, None] == etype)
    allowed = np.zeros((k + 1, k + 1), dtype=bool)
    allowed[:k, :k] = np.where(cont, same_open, ends[:, None])
    allowed[k, :k] = ~cont
    allowed[:k, k] = ends
    return allowed
