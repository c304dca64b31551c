"""The benchmark's workloads: inputs, set-up, timed operations and output checks.

A workload runs in repetitions. Each repetition starts from a fresh set-up
(trie, model or checkpoint load, corpus preparation) and runs the same
operations on the same inputs, so its outputs must repeat bit for bit.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from generate import ALPHABET, ENTITY_TYPES, LEXICON, make_sentences
from lexner import model, trainer
from lexner.data import Corpus, Sentence, spans_to_tags
from lexner.matching import build_trie
from lexner.model import ModelDims, ModelParams, prepare_corpus
from lexner.trainer import Adam, TrainConfig

# train_step, prepare_sentence and decode_tags are called through their modules,
# where the traced run's wrappers replace them

TINY = dict(d_c=16, d_w=16, d_ff=64, heads=2, layers=2)
# d_c=300 with 8 heads is rejected by ModelDims, so the paper-sized config uses 304
PAPER = dict(d_c=304, d_w=200, d_ff=1216, heads=8, layers=2)


@dataclass(frozen=True)
class Spec:
    name: str
    dims: dict
    length: int    # characters per sentence
    words: int     # lexicon word occurrences per sentence, near the generator's mean
    batch: int     # sentences per operation
    count: int     # operations per repetition
    train: bool


SPECS = {
    s.name: s
    for s in (
        Spec("train_short", TINY, length=10, words=10, batch=10, count=25, train=True),
        Spec("train_paper", PAPER, length=100, words=95, batch=4, count=2, train=True),
        Spec("predict_long", TINY, length=500, words=470, batch=1, count=8, train=False),
    )
}


@dataclass
class Op:
    seconds: float
    sentences: int
    ok: bool


class TrainWorkload:
    """Optimizer steps on a generated corpus; one operation is one step."""

    def __init__(self, spec: Spec, seed: int):
        generated = make_sentences(seed, spec.count * spec.batch, spec.length, spec.words)
        self.corpus = Corpus([Sentence(c, spans_to_tags(s, len(c))) for c, s in generated])
        self.cfg = TrainConfig(**spec.dims, batch_size=spec.batch, seed=seed)
        self.loss_end: float | None = None
        self.problems: list[str] = []

    def setup(self):
        trie = build_trie(LEXICON)
        net = ModelParams.build(
            self.cfg.dims(), ALPHABET, trie.words, ENTITY_TYPES,
            np.random.default_rng(self.cfg.seed),
        )
        sents = prepare_corpus(self.corpus, trie, net.tagset)
        optimizer = Adam(net.parameters(), self.cfg.lr, weight_decay=self.cfg.weight_decay)
        return net, sents, optimizer

    def repetition(self, state) -> list[Op]:
        net, sents, optimizer = state
        rng = np.random.default_rng(self.cfg.seed)
        size = self.cfg.batch_size
        ops: list[Op] = []
        loss = math.nan
        for lo in range(0, len(sents), size):
            batch = sents[lo : lo + size]
            start = time.perf_counter()
            try:
                loss = trainer.train_step(batch, net, optimizer, 0, self.cfg, rng).combined
                ok = math.isfinite(loss)
            except Exception:  # a failed step is counted, not fatal
                traceback.print_exc()
                loss, ok = math.nan, False
            ops.append(Op(time.perf_counter() - start, len(batch), ok))
        if self.loss_end is None:
            self.loss_end = loss
        elif loss != self.loss_end:
            ops[-1].ok = False
        return ops


class PredictWorkload:
    """Decoding with a saved-and-loaded checkpoint; one operation is one sentence."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.sentences = [c for c, _ in make_sentences(seed, spec.count, spec.length, spec.words)]
        self.checkpoint = workdir / "model.ckpt"
        saved = ModelParams.build(
            ModelDims(**spec.dims), ALPHABET, build_trie(LEXICON).words, ENTITY_TYPES,
            np.random.default_rng(seed),
        )
        saved.save(self.checkpoint)
        self.tags: list[list[str] | None] = [None] * len(self.sentences)
        probe = self.sentences[0][:40]
        loaded, trie = self.setup()
        self.problems: list[str] = []
        if _decode(saved, trie, probe) != _decode(loaded, trie, probe):
            self.problems.append("the loaded checkpoint decodes differently from the saved model")

    def setup(self):
        net = ModelParams.load(self.checkpoint)
        # like `lexner predict` without --lexicon: the checkpoint's words
        return net, build_trie(net.word_table.tokens)

    def repetition(self, state) -> list[Op]:
        net, trie = state
        tagset = set(net.tagset)
        ops: list[Op] = []
        for i, chars in enumerate(self.sentences):
            start = time.perf_counter()
            try:
                tags = _decode(net, trie, chars)
                ok = len(tags) == len(chars) and tagset.issuperset(tags)
            except Exception:  # a failed sentence is counted, not fatal
                traceback.print_exc()
                tags, ok = None, False
            ops.append(Op(time.perf_counter() - start, 1, ok))
            if self.tags[i] is None:
                self.tags[i] = tags
            elif tags != self.tags[i]:
                ops[-1].ok = False
        return ops


def _decode(net: ModelParams, trie, chars) -> list[str]:
    return model.decode_tags(net, model.prepare_sentence(chars, trie))


def make(name: str, seed: int, workdir: Path):
    spec = SPECS[name]
    return TrainWorkload(spec, seed) if spec.train else PredictWorkload(spec, seed, workdir)
