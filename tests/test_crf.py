"""CRF scoring and decoding against exhaustive path enumeration."""

import itertools

import numpy as np
import pytest

from lexner.autograd import Tensor, logsumexp
from lexner.crf import (
    CrfParams,
    emission_scores,
    log_partition,
    nll_loss,
    path_score,
    viterbi_decode,
)
from lexner.data import allowed_transitions, make_tagset, tags_to_spans
from test_autograd import tape_nodes


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


def ref_log_partition(emissions: Tensor, transitions: Tensor) -> Tensor:
    """The forward recursion as logsumexp tape ops, five nodes a character:
    the byte oracle for the one-op log_partition."""
    n, k = emissions.data.shape
    inner = transitions[:k, :k]
    alpha = transitions[k, :k] + emissions[0]
    for t in range(1, n):
        alpha = logsumexp(alpha.reshape(k, 1) + inner, axis=0) + emissions[t]
    return logsumexp(alpha + transitions[:k, k], axis=0)


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


class TestLogPartitionOp:
    """log_partition is one tape op whose value and gradients equal the bytes
    of the same recursion written as logsumexp tape ops."""

    SHAPES = [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (7, 5), (16, 9), (40, 17)]

    @staticmethod
    def run(partition, em, trans, tags_list, weight):
        """Value and grads of sum over sentences of weight * (log Z - path score),
        one backward() per sentence into shared leaves; emissions are h @ W + b."""
        n, d = em.shape[0], 3
        h = Tensor(np.linspace(-1.0, 1.0, n * d).reshape(n, d).astype(em.dtype))
        w = Tensor(np.full((d, em.shape[1]), 0.25, dtype=em.dtype))
        b, t_tr = Tensor(em[0].copy()), Tensor(trans.copy())
        values = []
        for tags in tags_list:
            emissions = h @ w + b + em
            loss = partition(emissions, t_tr)
            if tags is not None:
                loss = loss - path_score(emissions, t_tr, tags)
            (loss * weight).backward()
            values.append(loss.data)
        return [*values, h.grad, w.grad, b.grad, t_tr.grad]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_byte_equal_to_the_tape_recursion(self, dtype, n, k):
        rng = np.random.default_rng(100 + 10 * n + k)
        em = (rng.standard_normal((n, k)) * 3).astype(dtype)
        trans = rng.standard_normal((k + 1, k + 1)).astype(dtype)
        # log Z alone, then two nll losses accumulating into the same leaves
        for tags_list, weight in (
            ([None], 1.0),
            ([None], -0.375),
            ([rng.integers(0, k, n), rng.integers(0, k, n)], 0.5),
        ):
            got = self.run(log_partition, em, trans, tags_list, weight)
            want = self.run(ref_log_partition, em, trans, tags_list, weight)
            for pos, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype == dtype, pos
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), pos

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("weight", [1.0, -1.0])
    def test_extreme_scores_stay_byte_equal(self, weight, n):
        """Weights that underflow to zero, so a negative g makes -0.0 terms, and
        a -inf transition; the leaves' gradients keep the oracle's signed zeros."""
        em = np.array([[0.0, -800.0, 5.0], [700.0, -800.0, -700.0], [1.0, 2.0, 3.0]])[:n]
        trans = np.zeros((4, 4))
        trans[0, 2] = -np.inf
        trans[3, 1] = -600.0
        results = []
        for partition in (log_partition, ref_log_partition):
            t_em, t_tr = Tensor(em.copy()), Tensor(trans.copy())
            z = partition(t_em, t_tr)
            (z * weight).backward()
            results.append([z.data, t_em.grad, t_tr.grad])
        for pos, (a, b) in enumerate(zip(*results)):
            assert a.tobytes() == b.tobytes(), pos
        assert (results[0][1] == 0.0).any() and not np.signbit(results[0][1][results[0][1] == 0.0]).any()
        tags = np.array([0, 0, 1])[:n]
        got = self.run(log_partition, em, trans, [None, tags], weight)
        want = self.run(ref_log_partition, em, trans, [None, tags], weight)
        for pos, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), pos

    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_is_one_tape_node_at_any_length(self, n):
        em, tr = Tensor(np.zeros((n, 3))), Tensor(np.zeros((4, 4)))
        z = log_partition(em, tr)
        assert len(z._node.parents) == 2
        assert tape_nodes(z) == 3  # the op and its two leaves
        assert tape_nodes(ref_log_partition(em, tr)) > 5 * (n - 1)

    def test_both_gradients_come_from_one_backward_pass(self):
        rng = np.random.default_rng(7)
        em, tr = Tensor(rng.standard_normal((5, 3))), Tensor(rng.standard_normal((4, 4)))
        z = log_partition(em, tr)
        vjp, returned = z._node.vjp, []

        def counting_vjp(g):
            returned.append(vjp(g))
            return returned[-1]

        z._node.vjp = counting_vjp
        z.backward()
        assert len(returned) == 1
        assert [x.shape for x in returned[0]] == [(5, 3), (4, 4)]

    def test_transition_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        em = rng.standard_normal((4, 3))
        trans = rng.standard_normal((4, 4)) * 0.5
        t_tr = Tensor(trans.copy())
        log_partition(Tensor(em), t_tr).backward()
        h = 1e-6
        for i in range(4):
            for j in range(4):
                tp, tm = trans.copy(), trans.copy()
                tp[i, j] += h
                tm[i, j] -= h
                fp = float(log_partition(Tensor(em), Tensor(tp)).data)
                fm = float(log_partition(Tensor(em), Tensor(tm)).data)
                assert t_tr.grad[i, j] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)
        # START -> STOP is on no path of at least one character
        assert t_tr.grad[3, 3] == 0.0


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
