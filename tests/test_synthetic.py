"""The synthetic overfit corpus keeps the word roles its docstring promises:
every gold entity is a lexicon word, and several surfaces only disturb."""

import pytest

from lexner.matching import DISTURB, build_trie, label_lec, match_sentence
from lexner.synthetic import OVERFIT_LEXICON, make_overfit_corpus

# 0-49 include 7, the default, and 13, which `lexner gradcheck` trains on
SEEDS = range(50)


@pytest.fixture(scope="module")
def trie():
    return build_trie(OVERFIT_LEXICON)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_entity_matches_and_five_surfaces_disturb(trie, seed):
    corpus, lexicon = make_overfit_corpus(seed)
    assert lexicon == OVERFIT_LEXICON
    disturb: set[str] = set()
    for sent, spans in zip(corpus.sentences, corpus.gold_spans()):
        words, _ = match_sentence(trie, sent.chars)
        exact = {(w.head, w.tail) for w in words}
        assert all((h, t) in exact for h, t, _ in spans), "".join(sent.chars)
        disturb.update(w.surface for w, lab in zip(words, label_lec(words, spans)) if lab == DISTURB)
    assert len(disturb) >= 5, sorted(disturb)


def test_the_default_seed_is_7():
    assert make_overfit_corpus() == make_overfit_corpus(7)
