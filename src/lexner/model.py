"""End-to-end model: parameter registry, forward pass, losses, checkpoints.

A sentence flows through: initial node states (embeddings + positions), the
stacked fusion layers, then the CRF head on character states for tagging and
a 3-way linear head on word states for the word-property auxiliary task.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import crf, fusion
from .autograd import Tensor, dropout, glorot, logsumexp, no_grad
from .data import SCHEMES, Corpus, allowed_transitions, make_tagset, tags_to_spans
from .encoding import EmbeddingTable, WordProjection, initial_states
from .graph import GRAPH_VARIANTS, LatticeGraph, build_graph, graph_variant
from .matching import LexiconTrie, label_lec, match_sentence

CHECKPOINT_MAGIC = b"LEXNERCKPT1\n"
# every header key with the type its JSON value must have
HEADER_TYPES = {
    "dims": dict, "char_vocab": list, "word_vocab": list, "tagset": list, "scheme": str,
    "tensors": list,
}


@dataclass
class ModelDims:
    d_c: int = 304
    d_w: int = 200
    d_ff: int = 0  # 0 means 4 * d_c
    heads: int = 8
    layers: int = 2
    variant: str = "standard"  # the lattice edges the model is trained and decoded on
    max_word_len: int = 0  # longest lexicon word matched; 0 means no cap
    constrained_decode: bool = False  # Viterbi admits only well-formed tag sequences
    tag_scheme: str = "bio"  # with the entity types, fixes the tagset; a key of data.SCHEMES

    def __post_init__(self) -> None:
        for name, least in (
            ("d_c", 1), ("d_w", 1), ("heads", 1), ("d_ff", 0), ("layers", 0), ("max_word_len", 0)
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, found {getattr(self, name)}")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_c
        if self.d_c % 2 or self.d_w % 2:
            raise ValueError("embedding dimensions must be even for position encodings")
        if self.d_c % self.heads:
            raise ValueError(f"d_c={self.d_c} not divisible by heads={self.heads}")
        if self.variant not in GRAPH_VARIANTS:
            raise ValueError(
                f"unknown graph variant {self.variant!r}; expected one of {GRAPH_VARIANTS}"
            )
        if self.tag_scheme not in SCHEMES:
            raise ValueError(
                f"unknown tag scheme {self.tag_scheme!r}; expected one of {tuple(SCHEMES)}"
            )


@dataclass
class ModelParams:
    """All learnable tensors; :meth:`parameters` names each one exactly once."""

    dims: ModelDims
    char_table: EmbeddingTable
    word_table: EmbeddingTable
    projection: WordProjection
    layers: list[fusion.FusionLayerParams]
    crf: crf.CrfParams
    lec_weight: Tensor
    lec_bias: Tensor
    tagset: list[str]

    @property
    def dtype(self):
        return self.char_table.rows.data.dtype

    @classmethod
    def build(
        cls,
        dims: ModelDims,
        char_vocab: Sequence[str],
        word_vocab: Sequence[str],
        entity_types: Sequence[str],
        rng: np.random.Generator | None,
        dtype=np.float32,
        char_table: EmbeddingTable | None = None,
        word_table: EmbeddingTable | None = None,
    ) -> "ModelParams":
        """A model drawn from ``rng``; with ``rng`` None, as :meth:`load` builds it,
        every layer weight is zero and both tables must be given."""
        tagset = make_tagset(entity_types, dims.tag_scheme)
        if char_table is None:
            char_table = EmbeddingTable.random(char_vocab, dims.d_c, rng, dtype=dtype)
        if word_table is None:
            word_table = EmbeddingTable.random(word_vocab, dims.d_w, rng, dtype=dtype)
        projection = WordProjection.init(dims.d_w, dims.d_c, rng, dtype=dtype)
        layers = [
            fusion.FusionLayerParams.init(dims.d_c, dims.d_ff, dims.heads, rng, dtype=dtype)
            for _ in range(dims.layers)
        ]
        crf_params = crf.CrfParams.init(dims.d_c, len(tagset), rng, dtype=dtype)
        lec_weight = glorot(rng, dims.d_c, 3, dtype)
        lec_bias = Tensor(np.zeros(3, dtype=dtype))
        return cls(
            dims, char_table, word_table, projection, layers, crf_params,
            lec_weight, lec_bias, tagset,
        )

    def parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor under its checkpoint name, in checkpoint order."""

        def each(prefix: str, params, ln: str = "") -> dict[str, Tensor]:
            # a dataclass's tensors by field name, `ln` put before a layer norm's
            return {
                prefix + (ln if f.name.startswith("ln_") else "") + f.name: getattr(params, f.name)
                for f in fields(params)
            }

        named = {"char_embeddings": self.char_table.rows, "word_embeddings": self.word_table.rows}
        named.update(each("projection.", self.projection))
        for l, layer in enumerate(self.layers):
            for src, att in (("char", layer.char_att), ("word", layer.word_att)):
                named.update(each(f"layer{l}.{src}.", att, ln="att_"))
            for w in ("w_c1", "w_c2", "w_w1", "w_w2"):
                named[f"layer{l}.gate.{w}"] = getattr(layer, w)
            for src, ffn in (("char", layer.char_ffn), ("word", layer.word_ffn)):
                named.update(each(f"layer{l}.{src}.ffn_", ffn))
        named.update(each("crf.", self.crf))
        named["lec.weight"] = self.lec_weight
        named["lec.bias"] = self.lec_bias
        return named

    def zero_grads(self) -> None:
        for t in self.parameters().values():
            t.grad = None

    # -- checkpoint format: magic, u64 header length, JSON header, raw f32 LE --

    def save(self, path: str | Path) -> None:
        params = self.parameters()
        manifest = [
            {"name": name, "shape": list(t.data.shape)} for name, t in params.items()
        ]
        dims = asdict(self.dims)
        scheme = dims.pop("tag_scheme")
        header = {
            "dims": dims,
            "char_vocab": self.char_table.tokens,
            "word_vocab": self.word_table.tokens,
            "tagset": self.tagset,
            "scheme": scheme,
            "tensors": manifest,
        }
        blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for t in params.values():
                fh.write(t.data.astype("<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        """The float32 model a checkpoint holds; every malformed field is a ValueError."""
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a model checkpoint")
            raw = fh.read(8)
            if len(raw) != 8:
                raise ValueError(
                    f"{path}: header length is truncated: expected 8 bytes, found {len(raw)}"
                )
            (hlen,) = struct.unpack("<Q", raw)
            # checked before reading: a huge declared length would be allocated up front
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if hlen > left:
                raise ValueError(
                    f"{path}: header is truncated: expected {hlen} bytes, found {left}"
                )
            raw = fh.read(hlen)
            # the whole tensor block in one read
            block = np.empty(left - hlen, np.uint8)
            block = block[: fh.readinto(block)]
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError(f"{path}: header is not valid UTF-8 JSON") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        missing = [key for key in HEADER_TYPES if key not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        for key, kind in HEADER_TYPES.items():
            if not isinstance(header[key], kind):
                raise ValueError(
                    f"{path}: header field {key} must be {kind.__name__}, "
                    f"found {type(header[key]).__name__}"
                )
        for key in ("char_vocab", "word_vocab", "tagset"):
            if not all(isinstance(token, str) for token in header[key]):
                raise ValueError(f"{path}: header field {key} must hold strings only")
        saved = dict(header["dims"])
        saved.pop("max_sentence_len", None)  # legacy: positions have no cap
        # the scheme is the header's "scheme", never a dims field
        defaults = {f.name: f.default for f in fields(ModelDims) if f.name != "tag_scheme"}
        defaults["multiplicative_mask"] = False  # legacy: only false loads
        unknown = sorted(set(saved) - set(defaults))
        if unknown:
            raise ValueError(f"{path}: unknown dims field(s) {', '.join(unknown)}")
        for name, value in saved.items():
            # exact types: bool is a subclass of int
            if type(value) is not type(defaults[name]):
                raise ValueError(
                    f"{path}: dims field {name} must be "
                    f"{type(defaults[name]).__name__}, found {value!r}"
                )
        if saved.pop("multiplicative_mask", False):
            raise ValueError(f"{path}: multiplicative_mask is true; that ablation was removed")
        saved["tag_scheme"] = header["scheme"]
        try:
            dims = ModelDims(**saved)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for k, entry in enumerate(header["tensors"]):
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("shape"), list)):
                raise ValueError(f"{path}: tensor entry {k} needs a name and a shape")
        entity_types = sorted({t.partition("-")[2] for t in header["tagset"] if t != "O"})
        # zero tables and (with no rng) zero layers: shapes for the tensors read below
        char_table, word_table = (
            EmbeddingTable(header[key], np.zeros((len(header[key]) + 1, dim), np.float32))
            for key, dim in (("char_vocab", dims.d_c), ("word_vocab", dims.d_w))
        )
        model = cls.build(
            dims, header["char_vocab"], header["word_vocab"], entity_types, None,
            char_table=char_table, word_table=word_table,
        )
        if header["tagset"] != model.tagset:
            raise ValueError(
                f"{path}: header tagset {header['tagset']} is not the "
                f"{dims.tag_scheme} tagset of its types, {model.tagset}"
            )
        params = model.parameters()
        names = Counter(entry["name"] for entry in header["tensors"])
        expected = Counter(params.keys())
        absent = sorted((expected - names).elements())
        extra = sorted((names - expected).elements())
        if absent or extra:
            raise ValueError(
                f"{path}: tensor list does not match the model: "
                f"missing {absent}, unexpected {extra}"
            )
        k = model.crf.num_labels
        start = 0
        ends = []  # where each tensor ends in the block, in float32 entries
        for entry in header["tensors"]:
            tensor = params[entry["name"]]
            # legacy: a (K+2, K+2) table with a -inf START column and STOP row
            legacy = tensor is model.crf.transitions and entry["shape"] == [k + 2, k + 2]
            shape = (k + 2, k + 2) if legacy else tensor.data.shape
            if entry["shape"] != list(shape):
                raise ValueError(
                    f"{path}: tensor {entry['name']} has shape {entry['shape']!r}, "
                    f"expected {list(shape)}"
                )
            nbytes = 4 * math.prod(shape)
            if start + nbytes > len(block):
                raise ValueError(
                    f"{path}: tensor {entry['name']} is truncated: "
                    f"expected {nbytes} bytes, found {len(block) - start}"
                )
            values = block[start : start + nbytes].view("<f4").reshape(shape)
            if legacy:
                kept = np.delete(values[: k + 1], k, axis=1)
                # the dropped row and column, zeroed so the finite check passes over them
                values[k + 1] = values[:, k] = 0.0
                values = kept
            # a copy: decoding from views of the block measured 5-10% slower
            tensor.data = values.astype(np.float32)
            start += nbytes
            ends.append(start // 4)
        if start < len(block):
            raise ValueError(f"{path}: {len(block) - start} trailing bytes after the last tensor")
        # one isfinite over the block: a call per tensor made load() about a quarter slower
        finite = np.isfinite(block.view("<f4"))
        if not finite.all():
            first = int(np.searchsorted(ends, finite.argmin(), side="right"))
            name = header["tensors"][first]["name"]
            raise ValueError(f"{path}: tensor {name} has non-finite entries")
        return model


@dataclass
class EncodedSentence:
    """A sentence with everything the forward pass needs precomputed.

    ``graph`` is always the standard lattice; the forward pass derives the
    model's own variant of it.
    """

    chars: list[str]
    graph: LatticeGraph                      # its matched words are graph.words
    tags: np.ndarray | None = None           # gold label ids, length n
    lec_labels: np.ndarray | None = None      # gold word properties, length m


def prepare_sentence(
    chars: Sequence[str],
    trie: LexiconTrie,
    tagset: Sequence[str] | None = None,
    gold_tags: Sequence[str] | None = None,
    scheme: str = "bio",
) -> EncodedSentence:
    words, _ = match_sentence(trie, chars)
    graph = build_graph(len(chars), words)
    tags = None
    lec = None
    if gold_tags is not None:
        if tagset is None:
            raise ValueError("tagset required when gold tags are given")
        types = {t.partition("-")[2] for t in tagset if t != "O"}
        if list(tagset) != make_tagset(types, scheme):
            theirs = next((s for s in SCHEMES if make_tagset(types, s) == list(tagset)), "none")
            raise ValueError(f"gold tags use scheme {scheme}, tagset {list(tagset)} uses {theirs}")
        tag_ids = {t: i for i, t in enumerate(tagset)}
        try:
            tags = np.array([tag_ids[t] for t in gold_tags], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"tag {exc.args[0]!r} not in tagset") from None
        lec = np.array(label_lec(words, tags_to_spans(gold_tags, scheme)), dtype=np.int64)
    return EncodedSentence(list(chars), graph, tags, lec)


def prepare_corpus(
    corpus: Corpus, trie: LexiconTrie, tagset: Sequence[str]
) -> list[EncodedSentence]:
    return [
        prepare_sentence(s.chars, trie, tagset, s.tags, corpus.scheme) for s in corpus.sentences
    ]


def forward_states(
    model: ModelParams,
    sent: EncodedSentence,
    embed_dropout: float = 0.0,
    fusion_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Final node states (H_c, H_w) after the fusion stack.

    The layers run on ``graph_variant(sent.graph, model.dims.variant)``, so
    training, decoding and gradient checks all see the model's own lattice.
    """
    dims = model.dims
    graph = graph_variant(sent.graph, dims.variant)
    h_c, h_w = initial_states(
        sent.chars, graph.words, model.char_table, model.word_table, model.projection
    )
    h_c = dropout(h_c, embed_dropout, rng)
    h_w = dropout(h_w, embed_dropout, rng)
    for params in model.layers:
        h_c, h_w = fusion.fusion_layer(h_c, h_w, graph, params, dims.heads, fusion_dropout, rng)
    return h_c, h_w


def lec_loss(h_w: Tensor, model: ModelParams, gold_properties: np.ndarray) -> Tensor:
    """Mean cross-entropy of the 3-way word-property head; 0 for empty word sets."""
    m = h_w.data.shape[0]
    if gold_properties.shape != (m,):
        raise ValueError(f"expected {m} word property labels, got {gold_properties.shape}")
    logits = h_w @ model.lec_weight + model.lec_bias
    per_word = logsumexp(logits, axis=1) - logits[np.arange(m), gold_properties]
    return per_word.sum() * (1.0 / max(m, 1))


def sentence_losses(
    model: ModelParams,
    sent: EncodedSentence,
    embed_dropout: float = 0.0,
    fusion_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """(tagging NLL, word-property cross-entropy) for one gold-labeled sentence."""
    if sent.tags is None:
        raise ValueError("sentence has no gold tags")
    h_c, h_w = forward_states(model, sent, embed_dropout, fusion_dropout, rng)
    emissions = crf.emission_scores(h_c, model.crf)
    l_ner = crf.nll_loss(emissions, model.crf.transitions, sent.tags)
    l_lec = lec_loss(h_w, model, sent.lec_labels)
    return l_ner, l_lec


def decode_tags(model: ModelParams, sent: EncodedSentence) -> list[str]:
    """Viterbi-decoded tag strings for one sentence (no dropout, no tape).

    A model with ``dims.constrained_decode`` admits only well-formed tag sequences.
    """
    with no_grad():
        h_c, _ = forward_states(model, sent)
        emissions = crf.emission_scores(h_c, model.crf)
    allowed = None
    if model.dims.constrained_decode:
        allowed = allowed_transitions(model.tagset, model.dims.tag_scheme)
    ids = crf.viterbi_decode(emissions.data, model.crf.transitions.data, allowed)
    return [model.tagset[i] for i in ids]


def predict_lec(model: ModelParams, sent: EncodedSentence) -> np.ndarray:
    """Most likely word-property label per matched word (no tape)."""
    with no_grad():
        _, h_w = forward_states(model, sent)
    logits = h_w.data @ model.lec_weight.data + model.lec_bias.data
    return logits.argmax(axis=1)
