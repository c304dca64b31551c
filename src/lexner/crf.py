"""Linear-chain CRF over character states.

All arithmetic is in log space: "potentials" here are log-potentials, so the
partition function is a logsumexp-based forward recursion and path scores are
plain sums. The partition function is one tape op whose VJP runs the
recursion backwards (forward-backward); path scores are ordinary tape ops.
Paths run from a virtual START to a virtual STOP, and the (K+1, K+1)
transition table is indexed [from, to]: row K is START and column K is STOP.
Every entry is a real parameter; [K, K] (START -> STOP) is one that no path
of at least one character uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _logsumexp, glorot


@dataclass
class CrfParams:
    """Emission map and transition table, including virtual START/STOP."""

    weight: Tensor       # (d_c, K): maps final char states to label scores
    bias: Tensor         # (K,)
    transitions: Tensor  # (K+1, K+1) [from, to]: row K is START, column K is STOP

    @property
    def num_labels(self) -> int:
        return self.bias.data.shape[0]

    @classmethod
    def init(
        cls, d_c: int, num_labels: int, rng: np.random.Generator | None, dtype=np.float64
    ) -> "CrfParams":
        weight = glorot(rng, d_c, num_labels, dtype)
        trans = np.zeros((num_labels + 1, num_labels + 1), dtype=dtype)
        return cls(weight, Tensor(np.zeros(num_labels, dtype=dtype)), Tensor(trans))


def emission_scores(h_c: Tensor, params: CrfParams) -> Tensor:
    """Per-position label scores: (n, K) log-potentials."""
    return h_c @ params.weight + params.bias


def log_partition(emissions: Tensor, transitions: Tensor) -> Tensor:
    """log sum over all K^n label sequences of exp(path score), as one tape op.

    The forward recursion is alpha_0 = trans[START] + em_0 and
    alpha_t = logsumexp_i(alpha_{t-1, i} + trans[i, :]) + em_t, closed by
    log Z = logsumexp(alpha_{n-1} + trans[:, STOP]). Each step keeps its
    (K, K) softmax weights w_t, the posterior of the previous label given the
    next. The VJP runs the recursion backwards: with a_{n-1} the STOP weights
    times g, the step t transition gradient is W_t = w_t * a_t and
    a_{t-1} = W_t summed over the next label, so a_t is the gradient of
    em_t and the W_t add up, latest step first, into the inner transitions.
    These are the operations, in the order, that the recursion written as
    logsumexp tape ops would take, so log Z and both gradients equal that
    tape's bytes. One VJP call makes both gradients.
    """
    em, trans = emissions.data, transitions.data
    n, k = em.shape
    inner = trans[:k, :k]
    alpha = trans[k, :k] + em[0]
    weights = []
    for t in range(1, n):
        lse, e, z = _logsumexp(alpha.reshape(k, 1) + inner, axis=0)
        weights.append(e / z)
        alpha = np.squeeze(lse, axis=0) + em[t]
    lse, e, z = _logsumexp(alpha + trans[:k, k], axis=0)
    stop = e / z

    def vjp(g):
        d_em = np.zeros(em.shape, dtype=em.dtype)
        d_trans = np.zeros(trans.shape, dtype=trans.dtype)
        a = stop * np.expand_dims(g, 0)
        d_trans[:k, k] += a
        d_inner = None
        for t in range(n - 1, 0, -1):
            d_em[t] += a
            w = weights[t - 1] * np.expand_dims(a, 0)
            d_inner = w if d_inner is None else d_inner + w
            a = w.sum(axis=(1,), keepdims=True).reshape(k)
        d_em[0] += a
        d_trans[k, :k] += a
        if d_inner is not None:
            d_trans[:k, :k] += d_inner
        return d_em, d_trans

    return Tensor(np.squeeze(lse, axis=0), (emissions, transitions), vjp)


def path_score(emissions: Tensor, transitions: Tensor, tags: np.ndarray) -> Tensor:
    """Score of one label sequence, including START/STOP transitions."""
    n, k = emissions.data.shape
    tags = np.asarray(tags, dtype=np.int64)
    if tags.shape != (n,):
        raise ValueError(f"expected {n} gold labels, got shape {tags.shape}")
    if tags.min() < 0 or tags.max() >= k:
        raise ValueError("gold label id out of range")
    score = emissions[np.arange(n), tags].sum()
    score = score + transitions[k, tags[0]] + transitions[tags[-1], k]
    return score + transitions[tags[:-1], tags[1:]].sum()


def nll_loss(emissions: Tensor, transitions: Tensor, tags: np.ndarray) -> Tensor:
    """Sentence-level negative log-likelihood of the gold sequence (>= 0)."""
    return log_partition(emissions, transitions) - path_score(emissions, transitions, tags)


def viterbi_decode(
    emissions: np.ndarray,
    transitions: np.ndarray,
    allowed: np.ndarray | None = None,
) -> list[int]:
    """Highest-scoring label sequence.

    Ties resolve to the smallest label id at the latest position where
    candidate sequences differ (argmax keeps the first maximizer both in the
    per-step backpointers and in the final selection). ``allowed`` is an
    optional (K+1, K+1) boolean matrix; disallowed transitions, e.g.
    ill-formed tag bigrams under constrained decoding, score -inf.
    """
    em = np.asarray(emissions, dtype=np.float64)
    n, k = em.shape
    trans = np.asarray(transitions, dtype=np.float64)
    if allowed is not None:
        trans = np.where(allowed, trans, -np.inf)
    inner, labels = trans[:k, :k], np.arange(k)
    delta = trans[k, :k] + em[0]
    backptr = np.empty((n, k), dtype=np.int64)
    for t in range(1, n):
        scores = delta[:, None] + inner
        backptr[t] = scores.argmax(axis=0)
        delta = scores[backptr[t], labels] + em[t]
    final = delta + trans[:k, k]
    tags = [int(final.argmax())]
    for t in range(n - 1, 0, -1):
        tags.append(int(backptr[t, tags[-1]]))
    tags.reverse()
    return tags
