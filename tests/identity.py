"""A bit-identity fingerprint of training, decoding and checkpointing.

Prints one ``<configuration> <sha256>`` line per configuration. Each
configuration trains 3 fixed-seed epochs on ``make_overfit_corpus`` at tiny
dims with the default dropout, and hashes the epoch lines, the decoded tags of
every training sentence and the trained parameter bytes. It covers float32 and
float64, the ``standard``, ``wo_word_edge`` and ``fc_inter`` lattices, the BIO
and BMES schemes, and ``constrained_decode`` off and on. Only ``decode_tags``
reads ``constrained_decode``, so both settings share one training run. Two more
lines hash the names and bytes of freshly built models and the bytes of one
saved checkpoint.

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


if __name__ == "__main__":
    for line in fingerprint():
        print(line, flush=True)
