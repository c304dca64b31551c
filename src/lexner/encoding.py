"""Initial node states: embeddings plus absolute/relative position encodings.

Characters get their embedding plus the sinusoidal encoding of their absolute
position. Words get their embedding plus a learned nonlinear combination of
the encodings of head, tail, tail-head and tail+head, then a two-layer
projection onto the character dimension so both sources share one space.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autograd import Tensor, glorot
from .data import read_lines
from .matching import MatchedWord


def encode_position(positions, dim: int) -> np.ndarray:
    """Sinusoidal encodings, shape ``positions.shape + (dim,)``, in float64.

    Slots 2k (sin) and 2k+1 (cos) share the frequency 1/10000^(2k/dim).
    ``positions`` is an int or an integer array; rows are computed on demand,
    so there is no length cap.
    """
    pos = np.asarray(positions)
    if np.any(pos < 0):
        raise ValueError("position must be non-negative")
    if dim <= 0 or dim % 2 != 0:
        raise ValueError("encoding dimension must be a positive even number")
    angle = pos[..., None].astype(np.float64) / np.power(
        10000.0, np.arange(0, dim, 2, dtype=np.float64) / dim
    )
    out = np.empty(pos.shape + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


INIT_SCALE = 0.1  # rows not read from a file are drawn uniformly from [-0.1, 0.1]


class EmbeddingTable:
    """Token -> vector lookup with a trailing UNK row for unknown tokens."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        """``tokens`` in row order; a repeated token is looked up at its last row."""
        if matrix.shape[0] != len(tokens) + 1:
            raise ValueError("matrix must have one row per token plus an UNK row")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.unk_id = len(self.tokens)
        self.rows = Tensor(matrix)

    @property
    def dim(self) -> int:
        return self.rows.data.shape[1]

    def lookup_index(self, token: str) -> int:
        return self.index.get(token, self.unk_id)

    def indices(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.lookup_index(t) for t in tokens], dtype=np.int64)

    @classmethod
    def random(
        cls, tokens: Sequence[str], dim: int, rng: np.random.Generator, dtype=np.float64
    ) -> "EmbeddingTable":
        """Every row, UNK included, drawn uniformly from [-INIT_SCALE, INIT_SCALE]."""
        matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(tokens) + 1, dim))
        return cls(tokens, matrix.astype(dtype))

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        vocab: Sequence[str],
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ) -> "EmbeddingTable":
        """A table of exactly ``vocab``'s tokens, read from `token v1 .. vd` lines.

        An optional `count dim` first line is skipped. Both split at single
        spaces only: a tab or U+2028 is part of a token. The file is read once,
        line by line, and each vocab token's vector is written straight into
        its row; a token the file repeats keeps its last vector. Every line is
        still checked, and the first fault in file order is an error naming
        its line: a malformed line, a value that is not finite in ``dtype``
        (nan, inf, or one that overflows it), or a wrong width. Tokens missing
        from the file are then drawn uniformly in [-INIT_SCALE, INIT_SCALE],
        in vocab order (requires ``rng``).
        """
        table = None  # made at the first vector, which gives the width
        for lineno, line in read_lines(path):
            parts = line.rstrip(" \t").split(" ")
            # isdecimal, not isdigit: a header is what int() reads, and "\u00b2" is a token
            if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                continue
            if len(parts) < 2:
                if parts[0]:
                    raise ValueError(f"{path}:{lineno}: malformed embedding line")
                continue
            token, values = parts[0], parts[1:]
            try:
                with np.errstate(over="ignore"):  # an overflow is refused below, by name
                    vec = np.array([float(v) for v in values], dtype=dtype)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(vec).all():
                bad = values[np.isfinite(vec).argmin()]
                raise ValueError(f"{path}:{lineno}: value {bad!r} is not finite in {vec.dtype}")
            if table is None:
                table = cls(vocab, np.zeros((len(vocab) + 1, vec.size), dtype))
                matrix, read = table.rows.data, np.zeros(len(vocab), bool)
            elif vec.size != table.dim:
                raise ValueError(f"{path}:{lineno}: expected {table.dim} values, got {vec.size}")
            i = table.index.get(token)
            if i is not None:
                matrix[i] = vec
                read[i] = True
        if table is None:
            raise ValueError(f"{path}: no embedding vectors found")
        for i in np.flatnonzero(~read):
            j = table.index[table.tokens[i]]  # a token the vocab repeats has its last row read
            if read[j]:
                matrix[i] = matrix[j]
            elif rng is None:
                raise ValueError(f"token {table.tokens[i]!r} missing from {path} and no rng given")
            else:
                matrix[i] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=table.dim).astype(dtype)
        return table


@dataclass
class WordProjection:
    """Relative-position mixer plus the two-layer map from d_w to d_c.

    All matrices act on row vectors: w_r combines the four stacked position
    encodings (4*d_w -> d_w), then tanh(v @ w1 + b1) @ w2 + b2 lands in d_c.
    """

    w_r: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(
        cls, d_w: int, d_c: int, rng: np.random.Generator | None, dtype=np.float64
    ) -> "WordProjection":
        return cls(
            glorot(rng, 4 * d_w, d_w, dtype),
            glorot(rng, d_w, d_c, dtype),
            Tensor(np.zeros(d_c, dtype=dtype)),
            glorot(rng, d_c, d_c, dtype),
            Tensor(np.zeros(d_c, dtype=dtype)),
        )


def char_states(chars: Sequence[str], table: EmbeddingTable) -> Tensor:
    """Initial character node states: embedding + absolute position encoding."""
    positions = encode_position(np.arange(len(chars)), table.dim)
    return table.rows[table.indices(chars)] + positions.astype(table.rows.data.dtype)


def word_states(
    words: Sequence[MatchedWord], table: EmbeddingTable, proj: WordProjection
) -> Tensor:
    """Initial word node states, projected to the character dimension.

    Each word's relative-position input stacks the encodings of its head,
    tail, tail-head and tail+head, so two occurrences of one surface encode
    differently unless their spans coincide.
    """
    spans = np.array(
        [(w.head, w.tail, w.tail - w.head, w.tail + w.head) for w in words], dtype=np.int64
    ).reshape(len(words), 4)
    p4 = encode_position(spans, table.dim).reshape(len(words), 4 * table.dim)
    rel = (p4.astype(table.rows.data.dtype) @ proj.w_r).relu()
    v = table.rows[table.indices([w.surface for w in words])] + rel
    return (v @ proj.w1 + proj.b1).tanh() @ proj.w2 + proj.b2


def initial_states(
    chars: Sequence[str],
    words: Sequence[MatchedWord],
    char_table: EmbeddingTable,
    word_table: EmbeddingTable,
    proj: WordProjection,
) -> tuple[Tensor, Tensor]:
    """Initial (H_c, H_w) node state matrices for one sentence; H_w has a
    row per word, so none for a sentence without words."""
    return char_states(chars, char_table), word_states(words, word_table, proj)
