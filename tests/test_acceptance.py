"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <name>: PASS|FAIL ...` (run with `pytest -s`
to see the lines on success) and asserts at its stated tolerance.
"""

import itertools
import time

import numpy as np

from lexner.autograd import Tensor
from lexner.crf import log_partition, viterbi_decode
from lexner.data import Corpus
from lexner.fusion import FusionLayerParams, intra_source_attention
from lexner.graph import build_graph
from lexner.matching import MatchedWord, build_trie, match_sentence
from lexner.model import ModelDims, ModelParams, predict_lec, prepare_corpus, prepare_sentence
from lexner.synthetic import make_ambiguous_corpus, make_overfit_corpus
from lexner.trainer import TrainConfig, evaluate_model, grad_check, lambda_schedule, train

TINY = dict(d_c=16, d_w=16, d_ff=64, heads=2, layers=2)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_matcher_oracle():
    """1000 random sentences x random lexicons match a naive substring scan."""
    rng = np.random.default_rng(2024)
    alphabet = list("abcdefg")
    start = time.perf_counter()
    for _ in range(1000):
        lexicon = [
            "".join(rng.choice(alphabet, size=rng.integers(2, 6)))
            for _ in range(rng.integers(1, 201))
        ]
        sentence = "".join(rng.choice(alphabet, size=rng.integers(1, 41)))
        words, subsets = match_sentence(build_trie(lexicon), sentence)
        got = {(w.surface, w.head, w.tail) for w in words}
        vocab = {w for w in lexicon if len(w) >= 2}
        expect = {
            (sentence[h : t + 1], h, t)
            for h in range(len(sentence))
            for t in range(h + 1, len(sentence))
            if sentence[h : t + 1] in vocab
        }
        assert got == expect
    elapsed = time.perf_counter() - start
    report("matcher-oracle", elapsed < 5.0, f"(1000 sentences exact, {elapsed:.2f}s < 5s)")


def test_crf_oracle():
    """Partition function and decoding match exhaustive enumeration."""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    max_err = 0.0
    for _ in range(200):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        em = rng.standard_normal((n, k)) * 2
        trans = np.zeros((k + 2, k + 2))
        trans[:, k] = -np.inf
        trans[k + 1, :] = -np.inf
        trans[: k + 1, :k] = rng.standard_normal((k + 1, k))
        trans[:k, k + 1] = rng.standard_normal(k)
        scores = {}
        for seq in itertools.product(range(k), repeat=n):
            s = trans[k, seq[0]] + trans[seq[-1], k + 1]
            s += sum(em[t, y] for t, y in enumerate(seq))
            s += sum(trans[a, b] for a, b in zip(seq, seq[1:]))
            scores[seq] = s
        arr = np.array(list(scores.values()))
        expect_logz = np.log(np.exp(arr - arr.max()).sum()) + arr.max()
        got_logz = float(log_partition(Tensor(em), Tensor(trans)).data)
        max_err = max(max_err, abs(got_logz - expect_logz))
        assert abs(got_logz - expect_logz) < 1e-8
        best = max(arr)
        cands = [seq for seq, s in scores.items() if s == best]
        expect_path = list(min(cands, key=lambda seq: tuple(reversed(seq))))
        assert viterbi_decode(em, trans) == expect_path
    elapsed = time.perf_counter() - start
    report(
        "crf-oracle",
        elapsed < 10.0,
        f"(200 instances, max logZ error {max_err:.2e} < 1e-8, {elapsed:.2f}s < 10s)",
    )


def test_gradient_check():
    """Reverse-mode gradients match central differences on the tiny model."""
    corpus, lexicon = make_overfit_corpus()
    trie = build_trie(lexicon)
    chars = sorted({c for s in corpus.sentences for c in s.chars})
    dims = ModelDims(d_c=8, d_w=8, d_ff=32, heads=2, layers=2)
    # 5 characters, 3 matched words (za, ad, xy), one PER entity
    sentence = list("zadxy")
    tags = ["O", "B-PER", "I-PER", "O", "O"]
    start = time.perf_counter()
    rep = None
    for seed in range(8):
        model = ModelParams.build(
            dims, chars, trie.words, corpus.entity_types(),
            np.random.default_rng(seed), dtype=np.float64,
        )
        enc = prepare_sentence(sentence, trie, model.tagset, tags)
        assert len(enc.words) == 3
        try:
            rep = grad_check(model, enc, lam=0.3, h=1e-5, max_entries_per_tensor=16)
            break
        except Exception as exc:  # relu kink too close; try the next seed
            if "relu" not in str(exc):
                raise
    elapsed = time.perf_counter() - start
    assert rep is not None
    report(
        "gradient-check",
        rep.ok and elapsed < 60.0,
        f"(max rel error {rep.max_rel_error:.2e} < 1e-4 over {rep.checked} entries "
        f"in every tensor, {elapsed:.1f}s < 60s)",
    )


def test_mask_property():
    """Word pairs off the lattice get exactly zero attention; rows sum to one."""
    rng = np.random.default_rng(5)
    checked_pairs = 0
    for trial in range(25):
        n = int(rng.integers(4, 16))
        spans = []
        for _ in range(int(rng.integers(1, 7))):
            h = int(rng.integers(0, n - 1))
            t = min(n - 1, h + int(rng.integers(1, 4)))
            spans.append((h, t))
        words = [MatchedWord(j, "w" * (t - h + 1), h, t) for j, (h, t) in enumerate(spans)]
        graph = build_graph(n, words)
        params = FusionLayerParams.init(8, 16, 2, rng)
        h_w = Tensor(rng.standard_normal((len(words), 8)))
        weights: list = []
        intra_source_attention(
            h_w, graph.word_word, params.word_att, 2, 8, weights_out=weights
        )
        overlap = np.array(
            [[a.head <= b.tail and b.head <= a.tail for b in words] for a in words]
        )
        dst, src = graph.word_word
        for per_edge in weights:
            # one weight per edge; every other pair's weight is exactly zero
            att = np.zeros((len(words), len(words)))
            att[dst, src] = per_edge
            assert per_edge.shape == dst.shape and np.all(overlap[dst, src])
            assert np.all(att[~overlap] == 0.0)
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)
            checked_pairs += int((~overlap).sum())
    report("mask-property", True, f"({checked_pairs} masked pairs exactly zero, rows sum to 1)")


def _lec_accuracy(model, sents) -> float:
    good = total = 0
    for s in sents:
        if not s.words:
            continue
        good += int((predict_lec(model, s) == s.lec_labels).sum())
        total += len(s.words)
    return good / total


def test_overfit():
    """Perfect memorization of the synthetic corpus under the default schedule."""
    corpus, lexicon = make_overfit_corpus()
    assert len(corpus.sentences) == 50 and len(lexicon) == 30
    assert len(corpus.entity_types()) == 3
    trie = build_trie(lexicon)
    cfg = TrainConfig(
        **TINY, lr=5e-3, weight_decay=0.0, embed_dropout=0.0, fusion_dropout=0.0,
        epochs=300, batch_size=10, seed=1,
    )
    # default two-stage schedule
    assert (cfg.lambda0, cfg.lambda1, cfg.tau) == (0.5, 0.8, 0.1)
    rng = np.random.default_rng(cfg.seed)
    chars = sorted({c for s in corpus.sentences for c in s.chars})
    model = ModelParams.build(
        cfg.dims(), chars, trie.words, corpus.entity_types(), rng, dtype=np.float32
    )
    sents = prepare_corpus(corpus, trie, model.tagset)
    start = time.perf_counter()
    state = {}

    def converged(entry):
        f1 = evaluate_model(model, sents, corpus).f1
        acc = _lec_accuracy(model, sents)
        state.update(epoch=entry.epoch, f1=f1, acc=acc)
        return f1 == 1.0 and acc == 1.0

    train(model, sents, cfg, stop_when=converged)
    elapsed = time.perf_counter() - start
    ok = state["f1"] == 1.0 and state["acc"] == 1.0 and elapsed < 300.0
    report(
        "overfit",
        ok,
        f"(train F1 {state['f1']:.3f}, property accuracy {state['acc']:.3f} "
        f"at epoch {state['epoch']} <= 300, {elapsed:.1f}s < 300s)",
    )


def test_ablation_direction():
    """Standard edges beat removed word edges and fully connected inter edges."""
    train_c, held_c, lexicon = make_ambiguous_corpus()
    trie = build_trie(lexicon)
    chars = sorted(
        {c for corpus in (train_c, held_c) for s in corpus.sentences for c in s.chars}
    )
    types = sorted(set(train_c.entity_types()) | set(held_c.entity_types()))

    def mean_f1(variant: str) -> float:
        scores = []
        for seed in range(5):
            cfg = TrainConfig(
                **TINY, lr=5e-3, weight_decay=0.0, embed_dropout=0.0,
                fusion_dropout=0.0, epochs=15, batch_size=8, seed=seed,
                variant=variant,
            )
            model = ModelParams.build(
                cfg.dims(), chars, trie.words, types,
                np.random.default_rng(seed), dtype=np.float32,
            )
            tr = prepare_corpus(train_c, trie, model.tagset, variant)
            he = prepare_corpus(held_c, trie, model.tagset, variant)
            train(model, tr, cfg)
            scores.append(evaluate_model(model, he, held_c).f1)
        return float(np.mean(scores))

    standard = mean_f1("standard")
    wo_word = mean_f1("wo_word_edge")
    fc_inter = mean_f1("fc_inter")
    ok = standard >= wo_word and standard >= fc_inter
    report(
        "ablation-direction",
        ok,
        f"(held-out F1 over 5 seeds: standard {standard:.3f} >= "
        f"wo_word_edge {wo_word:.3f}, fc_inter {fc_inter:.3f})",
    )


def test_schedule():
    """Starts at lambda0, never increases, respects the floor."""
    grid = [0.0, 0.1, 0.3, 0.5, 0.8, 1.0]
    checked = 0
    for lam0 in grid:
        for lam1 in grid:
            for tau in (0.0, 0.05, 0.2, 1.0):
                cfg = TrainConfig(**TINY, lambda0=lam0, lambda1=lam1, tau=tau)
                values = [lambda_schedule(t, cfg) for t in range(101)]
                assert values[0] == max(lam0, tau)
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert all(v >= tau for v in values)
                assert all(v == max(lam0 * lam1**t, tau) for t, v in enumerate(values))
                checked += 1
    report("schedule", True, f"({checked} parameter combinations, t in [0, 100])")


def test_determinism():
    """Identical seed and config give bit-identical epoch losses."""
    corpus, lexicon = make_overfit_corpus()
    sub = Corpus(corpus.sentences[:16], corpus.scheme)
    trie = build_trie(lexicon)
    chars = sorted({c for s in corpus.sentences for c in s.chars})

    def run() -> list[tuple[float, float]]:
        cfg = TrainConfig(
            **TINY, lr=1e-2, weight_decay=0.01, embed_dropout=0.2,
            fusion_dropout=0.1, epochs=3, batch_size=4, seed=123,
        )
        model = ModelParams.build(
            cfg.dims(), chars, trie.words, sub.entity_types(),
            np.random.default_rng(cfg.seed), dtype=np.float32,
        )
        sents = prepare_corpus(sub, trie, model.tagset)
        history = train(model, sents, cfg)
        return [(e.ner_loss, e.lec_loss) for e in history]

    first, second = run(), run()
    report("determinism", first == second, f"(3 epochs bit-identical: {first == second})")
