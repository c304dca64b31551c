"""End-to-end model: parameter registry, forward pass, losses, checkpoints.

A sentence flows through: initial node states (embeddings + positions), the
stacked fusion layers, then the CRF head on character states for tagging and
a 3-way linear head on word states for the word-property auxiliary task.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import crf, fusion
from .autograd import Tensor, dropout, logsumexp, no_grad
from .data import Corpus, make_tagset, tags_to_spans
from .encoding import EmbeddingTable, WordProjection, initial_states
from .graph import LatticeGraph, build_graph, graph_variant
from .matching import LexiconTrie, MatchedWord, label_lec, match_sentence

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

    def __post_init__(self) -> None:
        for name, least in (("d_c", 1), ("d_w", 1), ("heads", 1), ("d_ff", 0), ("layers", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, found {getattr(self, name)}")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_c
        if self.d_c % 2 or self.d_w % 2:
            raise ValueError("embedding dimensions must be even for position encodings")
        if self.d_c % self.heads:
            raise ValueError(f"d_c={self.d_c} not divisible by heads={self.heads}")


class ModelParams:
    """All learnable tensors, each registered exactly once under a unique name."""

    def __init__(
        self,
        dims: ModelDims,
        char_table: EmbeddingTable,
        word_table: EmbeddingTable,
        projection: WordProjection,
        layers: list[fusion.FusionLayerParams],
        crf_params: crf.CrfParams,
        lec_weight: Tensor,
        lec_bias: Tensor,
        tagset: list[str],
        scheme: str,
    ):
        self.dims = dims
        self.char_table = char_table
        self.word_table = word_table
        self.projection = projection
        self.layers = layers
        self.crf = crf_params
        self.lec_weight = lec_weight
        self.lec_bias = lec_bias
        self.tagset = tagset
        self.scheme = scheme

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
        rng: np.random.Generator,
        scheme: str = "bio",
        dtype=np.float32,
        char_table: EmbeddingTable | None = None,
        word_table: EmbeddingTable | None = None,
    ) -> "ModelParams":
        tagset = make_tagset(entity_types, scheme)
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
        limit = np.sqrt(6.0 / (dims.d_c + 3))
        lec_weight = Tensor(rng.uniform(-limit, limit, size=(dims.d_c, 3)).astype(dtype))
        lec_bias = Tensor(np.zeros(3, dtype=dtype))
        return cls(
            dims, char_table, word_table, projection, layers, crf_params,
            lec_weight, lec_bias, tagset, scheme,
        )

    def parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {
            "char_embeddings": self.char_table.rows,
            "word_embeddings": self.word_table.rows,
        }
        named.update(self.projection.named("projection"))
        for l, layer in enumerate(self.layers):
            named.update(layer.named(f"layer{l}"))
        named.update(self.crf.named("crf"))
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
        header = {
            "dims": asdict(self.dims),
            "char_vocab": self.char_table.tokens,
            "word_vocab": self.word_table.tokens,
            "tagset": self.tagset,
            "scheme": self.scheme,
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
    def load(cls, path: str | Path, dtype=np.float32) -> "ModelParams":
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
            blob = fh.read(hlen)
            if len(blob) != hlen:
                raise ValueError(
                    f"{path}: header is truncated: expected {hlen} bytes, found {len(blob)}"
                )
            header = json.loads(blob.decode("utf-8"))
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
            defaults = {f.name: f.default for f in fields(ModelDims)}
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
            try:
                dims = ModelDims(**saved)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            for k, entry in enumerate(header["tensors"]):
                if not (isinstance(entry, dict) and "name" in entry and "shape" in entry):
                    raise ValueError(f"{path}: tensor entry {k} needs a name and a shape")
            entity_types = sorted(
                {t.partition("-")[2] for t in header["tagset"] if t != "O"}
            )
            model = cls.build(
                dims,
                header["char_vocab"],
                header["word_vocab"],
                entity_types,
                np.random.default_rng(0),
                scheme=header["scheme"],
                dtype=dtype,
            )
            model.tagset = header["tagset"]
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
            for entry in header["tensors"]:
                tensor = params[entry["name"]]
                shape = tensor.data.shape
                if entry["shape"] != list(shape):
                    raise ValueError(
                        f"{path}: tensor {entry['name']} has shape {entry['shape']!r}, "
                        f"expected {list(shape)}"
                    )
                raw = fh.read(4 * tensor.data.size)
                if len(raw) != 4 * tensor.data.size:
                    raise ValueError(
                        f"{path}: tensor {entry['name']} is truncated: "
                        f"expected {4 * tensor.data.size} bytes, found {len(raw)}"
                    )
                tensor.data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(dtype)
            trailing = len(fh.read())
            if trailing:
                raise ValueError(f"{path}: {trailing} trailing bytes after the last tensor")
        return model


@dataclass
class EncodedSentence:
    """A sentence with everything the forward pass needs precomputed."""

    chars: list[str]
    words: list[MatchedWord]
    graph: LatticeGraph
    tags: np.ndarray | None = None           # gold label ids, length n
    lec_labels: np.ndarray | None = None      # gold word properties, length m
    gold_spans: list[tuple[int, int, str]] = field(default_factory=list)


def prepare_sentence(
    chars: Sequence[str],
    trie: LexiconTrie,
    tagset: Sequence[str] | None = None,
    gold_tags: Sequence[str] | None = None,
    scheme: str = "bio",
    variant: str = "standard",
) -> EncodedSentence:
    words, _ = match_sentence(trie, chars)
    graph = build_graph(len(chars), words)
    if variant != "standard":
        graph = graph_variant(graph, variant)
    tags = None
    lec = None
    spans: list[tuple[int, int, str]] = []
    if gold_tags is not None:
        if tagset is None:
            raise ValueError("tagset required when gold tags are given")
        tag_ids = {t: i for i, t in enumerate(tagset)}
        try:
            tags = np.array([tag_ids[t] for t in gold_tags], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"tag {exc.args[0]!r} not in tagset") from None
        spans = tags_to_spans(gold_tags, scheme)
        lec = np.array(label_lec(words, spans), dtype=np.int64)
    return EncodedSentence(list(chars), words, graph, tags, lec, spans)


def prepare_corpus(
    corpus: Corpus,
    trie: LexiconTrie,
    tagset: Sequence[str],
    variant: str = "standard",
) -> list[EncodedSentence]:
    return [
        prepare_sentence(s.chars, trie, tagset, s.tags, corpus.scheme, variant)
        for s in corpus.sentences
    ]


def forward_states(
    model: ModelParams,
    sent: EncodedSentence,
    embed_dropout: float = 0.0,
    fusion_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Final node states (H_c, H_w) after the fusion stack."""
    h_c, h_w = initial_states(
        sent.chars, sent.words, model.char_table, model.word_table, model.projection
    )
    h_c = dropout(h_c, embed_dropout, rng)
    if sent.words:
        h_w = dropout(h_w, embed_dropout, rng)
    return fusion.encode(
        sent.graph, h_c, h_w, model.layers, model.dims.heads, fusion_dropout, rng
    )


def lec_loss(h_w: Tensor, model: ModelParams, gold_properties: np.ndarray) -> Tensor:
    """Mean cross-entropy of the 3-way word-property head; 0 for empty word sets."""
    m = h_w.data.shape[0]
    if m == 0:
        return Tensor(np.asarray(0.0, dtype=model.dtype))
    if gold_properties.shape != (m,):
        raise ValueError(f"expected {m} word property labels, got {gold_properties.shape}")
    logits = h_w @ model.lec_weight + model.lec_bias
    per_word = logsumexp(logits, axis=1) - logits[np.arange(m), gold_properties]
    return per_word.mean()


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


def decode_tags(
    model: ModelParams,
    sent: EncodedSentence,
    allowed: np.ndarray | None = None,
) -> list[str]:
    """Viterbi-decoded tag strings for one sentence (no dropout, no tape)."""
    with no_grad():
        h_c, _ = forward_states(model, sent)
        emissions = crf.emission_scores(h_c, model.crf)
    ids = crf.viterbi_decode(emissions.data, model.crf.transitions.data, allowed)
    return [model.tagset[i] for i in ids]


def predict_lec(model: ModelParams, sent: EncodedSentence) -> np.ndarray:
    """Most likely word-property label per matched word (no tape)."""
    with no_grad():
        _, h_w = forward_states(model, sent)
    if h_w.data.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    logits = h_w.data @ model.lec_weight.data + model.lec_bias.data
    return logits.argmax(axis=1)
