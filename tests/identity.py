"""A bit-identity fingerprint of training, decoding and checkpointing.

Prints one ``<configuration> <sha256>`` line per configuration. Each
configuration trains 3 fixed-seed epochs on ``make_overfit_corpus`` at tiny
dims with the default dropout, and hashes the epoch lines, the decoded tags of
every training sentence and the trained parameter bytes. It covers float32 and
float64, the ``standard``, ``wo_word_edge`` and ``fc_inter`` lattices, the BIO
and BMES schemes, and ``constrained_decode`` off and on. Only ``decode_tags``
reads ``constrained_decode``, so both settings share one training run. Two more
lines hash the names and bytes of freshly built models and the bytes of one
saved checkpoint, and the last hashes a float32 model built from embedding
files: a char file with a ``count dim`` header and a word file whose lines end
in a space, each missing some of its vocabulary and repeating one token.

A change that claims bit-identity leaves the output unchanged;
``tests/test_identity.py`` compares it with ``tests/data/identity.txt``.
Regenerate that file with::

    PYTHONPATH=src python tests/identity.py > tests/data/identity.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from lexner.data import Corpus, Sentence, spans_to_tags, tags_to_spans
from lexner.encoding import EmbeddingTable
from lexner.matching import build_trie
from lexner.model import ModelDims, ModelParams, decode_tags, prepare_corpus
from lexner.synthetic import OVERFIT_LEXICON, make_overfit_corpus
from lexner.trainer import TrainConfig, train

DIMS = dict(d_c=16, d_w=16, heads=2, layers=1)
DTYPES = (np.float32, np.float64)
VARIANTS = ("standard", "wo_word_edge", "fc_inter")
SCHEMES = ("bio", "bmes")


def _corpus(scheme: str) -> Corpus:
    corpus, _ = make_overfit_corpus()
    return Corpus(
        [
            Sentence(s.chars, spans_to_tags(tags_to_spans(s.tags), len(s), scheme))
            for s in corpus.sentences
        ],
        scheme,
    )


def _param_bytes(model: ModelParams) -> bytes:
    return b"".join(
        name.encode() + str(t.data.shape).encode() + t.data.tobytes()
        for name, t in model.parameters().items()
    )


def _build(dims: ModelDims, corpus: Corpus, dtype) -> tuple[ModelParams, list]:
    trie = build_trie(OVERFIT_LEXICON)
    chars = sorted({c for s in corpus.sentences for c in s.chars})
    rng = np.random.default_rng(0)
    model = ModelParams.build(dims, chars, trie.words, corpus.entity_types(), rng, dtype=dtype)
    return model, prepare_corpus(corpus, trie, model.tagset)


def _write_vectors(path: Path, tokens: list[str], dim: int, header: str, end: str) -> None:
    rng = np.random.default_rng(len(tokens))
    lines = (t + " " + " ".join(f"{v:.6f}" for v in rng.uniform(-1, 1, dim)) + end for t in tokens)
    path.write_text(header + "".join(lines), encoding="utf-8")


def _embedded_model() -> ModelParams:
    """A float32 model built as `lexner train` builds one from embedding files."""
    corpus = _corpus("bio")
    trie = build_trie(OVERFIT_LEXICON)
    chars = sorted({c for s in corpus.sentences for c in s.chars})
    dims = ModelDims(**DIMS)
    # a third of each vocabulary missing, out of vocabulary order, one token written twice
    char_file = chars[::-1][::3] + chars[:1] + chars[1::3]
    word_file = trie.words[1::3] + trie.words[::3] + trie.words[1:2]
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        char_path, word_path = Path(tmp) / "char.vec", Path(tmp) / "word.vec"
        _write_vectors(char_path, char_file, dims.d_c, f"{len(char_file)} {dims.d_c}\n", "\n")
        _write_vectors(word_path, word_file, dims.d_w, "", " \n")
        char_table = EmbeddingTable.from_file(char_path, chars, dims.d_c, rng, dtype=np.float32)
        word_table = EmbeddingTable.from_file(
            word_path, trie.words, dims.d_w, rng, dtype=np.float32
        )
    return ModelParams.build(
        dims, chars, trie.words, corpus.entity_types(), rng,
        char_table=char_table, word_table=word_table,
    )


def fingerprint() -> Iterator[str]:
    """The identity lines, in a fixed order."""
    ckpt = None
    for dtype in DTYPES:
        for variant in VARIANTS:
            for scheme in SCHEMES:
                cfg = TrainConfig(
                    **DIMS, variant=variant, tag_scheme=scheme, lr=1e-2, epochs=3, batch_size=4
                )
                model, sents = _build(cfg.dims(), _corpus(scheme), dtype)
                epochs = [e.format() for e in train(model, sents, cfg)]
                params = _param_bytes(model)
                if ckpt is None:
                    with tempfile.TemporaryDirectory() as tmp:
                        model.save(Path(tmp) / "model.ckpt")
                        ckpt = (Path(tmp) / "model.ckpt").read_bytes()
                for constrained in (False, True):
                    model.dims = dataclasses.replace(model.dims, constrained_decode=constrained)
                    h = hashlib.sha256("\n".join(epochs).encode())
                    for s in sents:
                        h.update(" ".join(decode_tags(model, s)).encode() + b"\n")
                    h.update(params)
                    name = f"{np.dtype(dtype).name} {variant} {scheme}"
                    yield f"{name} constrained={int(constrained)} {h.hexdigest()}"
    built = hashlib.sha256()
    for dtype in DTYPES:
        built.update(_param_bytes(_build(ModelDims(**DIMS), _corpus("bio"), dtype)[0]))
    yield f"build {built.hexdigest()}"
    yield f"checkpoint {hashlib.sha256(ckpt).hexdigest()}"
    yield f"embeddings {hashlib.sha256(_param_bytes(_embedded_model())).hexdigest()}"


if __name__ == "__main__":
    for line in fingerprint():
        print(line, flush=True)
