"""Linear-chain CRF over character states.

All arithmetic is in log space: "potentials" here are log-potentials, so the
partition function is a logsumexp-based forward recursion and path scores are
plain sums. Paths run from a virtual START to a virtual STOP, and the
(K+1, K+1) transition table is indexed [from, to]: row K is START and column
K is STOP. Every entry is a real parameter; [K, K] (START -> STOP) is one that
no path of at least one character uses.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, glorot, logsumexp


class CrfParams:
    """Emission map and transition table, including virtual START/STOP."""

    def __init__(self, weight: Tensor, bias: Tensor, transitions: Tensor):
        self.weight = weight          # (d_c, K): maps final char states to label scores
        self.bias = bias              # (K,)
        self.transitions = transitions  # (K+1, K+1) [from, to]: row K is START, column K is STOP
        self.num_labels = bias.data.shape[0]

    @classmethod
    def init(
        cls, d_c: int, num_labels: int, rng: np.random.Generator, dtype=np.float64
    ) -> "CrfParams":
        weight = glorot(rng, d_c, num_labels, dtype)
        trans = np.zeros((num_labels + 1, num_labels + 1), dtype=dtype)
        return cls(weight, Tensor(np.zeros(num_labels, dtype=dtype)), Tensor(trans))

    def named(self, prefix: str = "crf") -> dict[str, Tensor]:
        return {
            f"{prefix}.weight": self.weight,
            f"{prefix}.bias": self.bias,
            f"{prefix}.transitions": self.transitions,
        }


def emission_scores(h_c: Tensor, params: CrfParams) -> Tensor:
    """Per-position label scores: (n, K) log-potentials."""
    return h_c @ params.weight + params.bias


def log_partition(emissions: Tensor, transitions: Tensor) -> Tensor:
    """log sum over all K^n label sequences of exp(path score)."""
    n, k = emissions.data.shape
    inner = transitions[:k, :k]
    alpha = transitions[k, :k] + emissions[0]
    for t in range(1, n):
        alpha = logsumexp(alpha.reshape(k, 1) + inner, axis=0) + emissions[t]
    return logsumexp(alpha + transitions[:k, k], axis=0)


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
