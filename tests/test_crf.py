"""CRF scoring and decoding against exhaustive path enumeration."""

import itertools

import numpy as np
import pytest

from lexner.autograd import Tensor
from lexner.crf import (
    CrfParams,
    emission_scores,
    log_partition,
    nll_loss,
    path_score,
    viterbi_decode,
)
from lexner.data import allowed_transitions, make_tagset, tags_to_spans


def zero_transitions(k: int) -> np.ndarray:
    return np.zeros((k + 1, k + 1))


def enumerate_scores(em: np.ndarray, trans: np.ndarray):
    """Score of every one of the K^n label sequences, via brute force."""
    n, k = em.shape
    start, stop = k, k
    out = {}
    for seq in itertools.product(range(k), repeat=n):
        s = trans[start, seq[0]] + trans[seq[-1], stop]
        s += sum(em[t, y] for t, y in enumerate(seq))
        s += sum(trans[a, b] for a, b in zip(seq, seq[1:]))
        out[seq] = s
    return out


def brute_force_best(em, trans):
    """Argmax sequence, ties resolved to the smallest label at the latest
    differing position (compare reversed sequences lexicographically)."""
    scores = enumerate_scores(em, trans)
    best = max(scores.values())
    cands = [seq for seq, s in scores.items() if s == best]
    return list(min(cands, key=lambda seq: tuple(reversed(seq))))


class TestEmissionScores:
    def test_zero_map(self):
        params = CrfParams(Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)),
                           Tensor(zero_transitions(2)))
        out = emission_scores(Tensor(np.ones((3, 4))), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_bias_only(self):
        params = CrfParams(Tensor(np.zeros((4, 2))), Tensor(np.array([1.0, 2.0])),
                           Tensor(zero_transitions(2)))
        out = emission_scores(Tensor(np.ones((3, 4))), params)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(0)
        w, b, h = rng.standard_normal((5, 3)), rng.standard_normal(3), rng.standard_normal((4, 5))
        params = CrfParams(Tensor(w), Tensor(b), Tensor(zero_transitions(3)))
        out = emission_scores(Tensor(h), params).data
        expect = np.array([[h[i] @ w[:, y] + b[y] for y in range(3)] for i in range(4)])
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestLogPartition:
    def test_two_positions_two_labels_all_zero(self):
        z = log_partition(Tensor(np.zeros((2, 2))), Tensor(zero_transitions(2)))
        assert float(z.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_single_position_is_logsumexp(self):
        em = np.array([[0.3, -1.2, 2.0]])
        z = log_partition(Tensor(em), Tensor(zero_transitions(3)))
        expect = np.log(np.exp(em[0]).sum())
        assert float(z.data) == pytest.approx(expect, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            em = rng.standard_normal((n, k)) * 2
            trans = zero_transitions(k)
            trans[: k + 1, :k] = rng.standard_normal((k + 1, k))
            trans[:k, k] = rng.standard_normal(k)
            z = float(log_partition(Tensor(em), Tensor(trans)).data)
            scores = np.array(list(enumerate_scores(em, trans).values()))
            expect = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
            assert z == pytest.approx(expect, abs=1e-8)


class TestNllLoss:
    def test_single_label_is_zero(self):
        em = np.random.default_rng(2).standard_normal((4, 1))
        trans = zero_transitions(1)
        loss = nll_loss(Tensor(em), Tensor(trans), np.zeros(4, dtype=int))
        assert float(loss.data) == 0.0

    def test_uniform_distribution(self):
        loss = nll_loss(
            Tensor(np.zeros((2, 2))), Tensor(zero_transitions(2)), np.array([0, 1])
        )
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_enumerated_probability(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            em = rng.standard_normal((n, k))
            trans = zero_transitions(k)
            trans[: k + 1, :k] = rng.standard_normal((k + 1, k)) * 0.5
            trans[:k, k] = rng.standard_normal(k) * 0.5
            gold = tuple(rng.integers(0, k, size=n))
            scores = enumerate_scores(em, trans)
            arr = np.array(list(scores.values()))
            logz = np.log(np.exp(arr - arr.max()).sum()) + arr.max()
            prob = np.exp(scores[gold] - logz)
            loss = float(nll_loss(Tensor(em), Tensor(trans), np.array(gold)).data)
            assert loss == pytest.approx(-np.log(prob), abs=1e-8)
            assert loss >= 0.0
            assert 0.0 < prob <= 1.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        em = rng.standard_normal((3, 3))
        trans = zero_transitions(3)
        trans[:4, :3] = rng.standard_normal((4, 3))
        logz = float(log_partition(Tensor(em), Tensor(trans)).data)
        total = sum(
            np.exp(s - logz) for s in enumerate_scores(em, trans).values()
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_gold_rejected(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 2))), Tensor(zero_transitions(2)), np.array([0, 5]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        em = rng.standard_normal((4, 3))
        trans = zero_transitions(3)
        trans[:4, :3] = rng.standard_normal((4, 3)) * 0.3
        gold = np.array([0, 2, 1, 1])
        t_em, t_tr = Tensor(em.copy()), Tensor(trans.copy())
        nll_loss(t_em, t_tr, gold).backward()
        h = 1e-6
        for i in range(4):
            for y in range(3):
                em2 = em.copy()
                em2[i, y] += h
                fp = float(nll_loss(Tensor(em2), Tensor(trans), gold).data)
                em2[i, y] -= 2 * h
                fm = float(nll_loss(Tensor(em2), Tensor(trans), gold).data)
                assert t_em.grad[i, y] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)


class TestViterbi:
    def test_dominant_emissions_zero_transitions(self):
        em = np.array([[9.0, 0, 0], [0, 9.0, 0], [0, 0, 9.0]])
        assert viterbi_decode(em, zero_transitions(3)) == [0, 1, 2]

    def test_all_zero_scores_tie_break_to_zeros(self):
        assert viterbi_decode(np.zeros((4, 3)), zero_transitions(3)) == [0, 0, 0, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            em = rng.standard_normal((n, k))
            trans = zero_transitions(k)
            trans[: k + 1, :k] = rng.standard_normal((k + 1, k))
            trans[:k, k] = rng.standard_normal(k)
            assert viterbi_decode(em, trans) == brute_force_best(em, trans)

    def test_tie_break_with_integer_scores(self):
        # integer-valued scores force real ties
        rng = np.random.default_rng(7)
        for _ in range(40):
            n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            em = rng.integers(0, 2, size=(n, k)).astype(float)
            trans = zero_transitions(k)
            trans[:k, :k] = rng.integers(0, 2, size=(k, k)).astype(float)
            assert viterbi_decode(em, trans) == brute_force_best(em, trans)

    def test_viterbi_path_beats_sampled_paths(self):
        rng = np.random.default_rng(8)
        em = rng.standard_normal((5, 3))
        trans = zero_transitions(3)
        trans[:4, :3] = rng.standard_normal((4, 3))
        best = viterbi_decode(em, trans)
        scores = enumerate_scores(em, trans)
        best_score = scores[tuple(best)]
        for _ in range(100):
            sample = tuple(rng.integers(0, 3, size=5))
            assert scores[sample] <= best_score + 1e-12

    def test_per_position_constant_shift_changes_nothing(self):
        rng = np.random.default_rng(9)
        em = rng.standard_normal((4, 3))
        trans = zero_transitions(3)
        trans[:4, :3] = rng.standard_normal((4, 3))
        shifted = em.copy()
        shifted[2] += 7.5
        assert viterbi_decode(em, trans) == viterbi_decode(shifted, trans)
        gold = np.array([1, 0, 2, 1])
        a = float(nll_loss(Tensor(em), Tensor(trans), gold).data)
        b = float(nll_loss(Tensor(shifted), Tensor(trans), gold).data)
        assert a == pytest.approx(b, abs=1e-10)

    def test_constrained_decoding_yields_well_formed_bio(self):
        tagset = make_tagset(["PER", "LOC"])
        k = len(tagset)
        rng = np.random.default_rng(10)
        allowed = allowed_transitions(tagset)
        for _ in range(20):
            em = rng.standard_normal((6, k)) * 3
            trans = zero_transitions(k)
            ids = viterbi_decode(em, trans, allowed=allowed)
            tags = [tagset[i] for i in ids]
            spans = tags_to_spans(tags)
            # re-render; identical means no ill-formed continuation was emitted
            from lexner.data import spans_to_tags

            assert spans_to_tags(spans, 6) == tags

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_its_arguments_unmodified(self, dtype):
        tagset = make_tagset(["PER", "LOC"])
        k = len(tagset)
        rng = np.random.default_rng(11)
        em = rng.standard_normal((6, k)).astype(dtype)
        trans = rng.standard_normal((k + 1, k + 1)).astype(dtype)
        allowed = allowed_transitions(tagset)
        before = [a.copy() for a in (em, trans, allowed)]
        for a in (em, trans, allowed):
            a.flags.writeable = False  # a write raises instead of passing unseen
        constrained = viterbi_decode(em, trans, allowed=allowed)
        free = viterbi_decode(em, trans)
        for a, b in zip((em, trans, allowed), before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert viterbi_decode(*before[:2], allowed=before[2]) == constrained
        assert viterbi_decode(*before[:2]) == free


class TestCrfParams:
    def test_transitions_are_k_plus_one_square_and_finite(self):
        params = CrfParams.init(4, 3, np.random.default_rng(0))
        trans = params.transitions.data
        assert trans.shape == (4, 4)  # row 3 is START, column 3 is STOP
        assert np.isfinite(trans).all()

    def test_path_score_uses_boundary_transitions(self):
        k = 2
        trans = zero_transitions(k)
        trans[k, 0] = 3.0        # START -> label 0
        trans[1, k] = 5.0        # label 1 -> STOP
        em = np.zeros((2, k))
        s = path_score(Tensor(em), Tensor(trans), np.array([0, 1]))
        assert float(s.data) == pytest.approx(8.0)
