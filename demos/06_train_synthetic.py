"""End-to-end training on a synthetic corpus: the multi-task loss with the
decaying trade-off schedule, per-epoch evaluation, and checkpointing."""

import tempfile
from pathlib import Path

import numpy as np

from lexner import ModelParams, TrainConfig, build_trie
from lexner.model import decode_tags, predict_lec, prepare_corpus
from lexner.synthetic import make_overfit_corpus
from lexner.trainer import evaluate_model, lambda_schedule, train

corpus, lexicon = make_overfit_corpus()
print(f"synthetic corpus: {len(corpus.sentences)} sentences, "
      f"{sum(len(s) for s in corpus.gold_spans())} entities, "
      f"{len(lexicon)}-word lexicon")

trie = build_trie(lexicon)
ckpt_dir = Path(tempfile.mkdtemp(prefix="lexner_demo_"))
cfg = TrainConfig(
    d_c=16, d_w=16, d_ff=64, heads=2, layers=2,
    lr=5e-3, weight_decay=0.0, embed_dropout=0.0, fusion_dropout=0.0,
    epochs=60, batch_size=10, seed=1, checkpoint_dir=str(ckpt_dir),
)
print(f"trade-off schedule: lambda(t) = max({cfg.lambda0} * {cfg.lambda1}^t, {cfg.tau})")
print("  first epochs:", [round(lambda_schedule(t, cfg), 3) for t in range(8)], "...")

rng = np.random.default_rng(cfg.seed)
chars = sorted({c for s in corpus.sentences for c in s.chars})
model = ModelParams.build(
    cfg.dims(), chars, trie.words, corpus.entity_types(), rng, dtype=np.float32
)
sents = prepare_corpus(corpus, trie, model.tagset)

history = train(
    model, sents, cfg,
    dev_sents=sents,  # train-set monitoring for the demo
    log=lambda line: print(line) if int(line.split()[0].split("=")[1]) % 10 == 0 else None,
    stop_when=lambda e: e.dev_f1 == 1.0,
)
print(f"stopped after epoch {history[-1].epoch}; checkpoints in {ckpt_dir}")

report = evaluate_model(model, sents)
print(f"\ntrain-set strict match: P={report.precision:.3f} R={report.recall:.3f} "
      f"F1={report.f1:.3f}")

# word-property predictions learned by the auxiliary head
good = total = 0
for s in sents:
    good += int((predict_lec(model, s) == s.lec_labels).sum())
    total += s.graph.m
print(f"word-property accuracy: {good / total:.3f} over {total} matched words")

sent = sents[0]
print("\nsample decode:", "".join(sent.chars))
print("  gold:", [model.tagset[i] for i in sent.tags])
print("  pred:", decode_tags(model, sent))

# the checkpoint reloads bit-exactly
reloaded = ModelParams.load(ckpt_dir / "best.ckpt")
assert decode_tags(reloaded, sent) == decode_tags(model, sent)
print("\ncheckpoint round trip: decode identical")
