"""Training: multi-task loss with the decaying trade-off schedule, Adam
updates, per-epoch evaluation and checkpointing, and finite-difference
gradient verification.

The per-epoch trade-off lambda(t) = max(lambda0 * lambda1**t, tau) weights the
word-property auxiliary loss against the tagging loss; it starts at lambda0,
decays geometrically and never drops below the floor tau.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import model as model_mod
from .autograd import Tensor, watch_relu_kinks
from .data import Corpus, allowed_transitions, evaluate
from .matching import LexiconTrie
from .model import EncodedSentence, ModelParams, sentence_losses


class NumericError(RuntimeError):
    """Non-finite loss or a failed gradient check."""


@dataclass
class TrainConfig:
    # multi-task schedule
    lambda0: float = 0.5
    lambda1: float = 0.8
    tau: float = 0.1
    # optimization
    lr: float = 2e-5
    weight_decay: float = 0.05
    epochs: int = 10
    batch_size: int = 16
    seed: int = 1
    # regularization
    embed_dropout: float = 0.5
    fusion_dropout: float = 0.3
    # model shape
    d_c: int = 304
    d_w: int = 200
    d_ff: int = 0
    heads: int = 8
    layers: int = 2
    # variants and decoding
    tag_scheme: str = "bio"
    variant: str = "standard"
    constrained_decode: bool = False
    max_word_len: int = 0  # 0 means longest lexicon word
    # paths (optional; CLI fills them from the config file)
    train_file: str = ""
    dev_file: str = ""
    lexicon_file: str = ""
    char_emb_file: str = ""
    word_emb_file: str = ""
    checkpoint_dir: str = ""

    def __post_init__(self) -> None:
        for name in ("lambda0", "lambda1", "tau"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.tag_scheme not in ("bio", "bmes"):
            raise ValueError(f"unknown tag scheme {self.tag_scheme!r}")

    def dims(self) -> model_mod.ModelDims:
        return model_mod.ModelDims(
            d_c=self.d_c, d_w=self.d_w, d_ff=self.d_ff,
            heads=self.heads, layers=self.layers,
        )

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "TrainConfig":
        """Parse a `key = value` config file; '#' starts a comment."""
        values: dict = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for key, value in values.items():
            if key not in known:
                raise ValueError(f"{path}: unknown config key {key!r}")
            try:
                kwargs[key] = _convert(known[key], value)
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
        return cls(**kwargs)


def _convert(annotation: str, value):
    if isinstance(value, (int, float, bool)):
        return value
    if annotation == "bool":
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if annotation == "int":
        return int(value)
    if annotation == "float":
        return float(value)
    return value


def lambda_schedule(t: int, cfg: TrainConfig) -> float:
    """Trade-off weight at epoch t: geometric decay from lambda0, floored at tau."""
    if t < 0:
        raise ValueError("epoch must be non-negative")
    return max(cfg.lambda0 * cfg.lambda1**t, cfg.tau)


def total_loss(l_ner, l_lec, lam: float):
    """Convex combination (1 - lam) * tagging + lam * auxiliary."""
    return l_ner * (1.0 - lam) + l_lec * lam


class Adam:
    """Adam with decoupled weight decay.

    Structurally -inf parameter entries (forbidden CRF transitions) are
    constants: they receive no update and no decay.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            finite = np.isfinite(p.data)
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                decayed = np.where(finite, p.data, 0.0)
                update = update + self.lr * self.weight_decay * decayed
            np.subtract(p.data, update, out=p.data, where=finite)


@dataclass
class StepReport:
    ner_loss: float
    lec_loss: float
    lam: float

    @property
    def combined(self) -> float:
        return total_loss(self.ner_loss, self.lec_loss, self.lam)


def train_step(
    batch: Sequence[EncodedSentence],
    model: ModelParams,
    optimizer: Adam,
    epoch: int,
    cfg: TrainConfig,
    rng: np.random.Generator | None,
) -> StepReport:
    """One Adam update on the batch-averaged multi-task loss."""
    if not batch:
        raise ValueError("empty batch")
    lam = lambda_schedule(epoch, cfg)
    model.zero_grads()
    ner_total = 0.0
    lec_total = 0.0
    scale = 1.0 / len(batch)
    for pos, sent in enumerate(batch):
        l_ner, l_lec = sentence_losses(model, sent, cfg.embed_dropout, cfg.fusion_dropout, rng)
        loss = total_loss(l_ner, l_lec, lam) * scale
        if not np.isfinite(loss.data):
            raise NumericError(
                f"non-finite loss at batch position {pos} "
                f"(sentence {''.join(sent.chars)!r})"
            )
        loss.backward()
        ner_total += l_ner.item()
        lec_total += l_lec.item()
    optimizer.step()
    return StepReport(ner_total * scale, lec_total * scale, lam)


@dataclass
class EpochLog:
    epoch: int
    lam: float
    ner_loss: float
    lec_loss: float
    dev_precision: float
    dev_recall: float
    dev_f1: float

    def format(self) -> str:
        return (
            f"epoch={self.epoch} lambda={self.lam:.6f} "
            f"ner_loss={self.ner_loss:.10g} lec_loss={self.lec_loss:.10g} "
            f"dev_p={self.dev_precision:.4f} dev_r={self.dev_recall:.4f} "
            f"dev_f1={self.dev_f1:.4f}"
        )


def evaluate_model(
    model: ModelParams,
    sentences: Sequence[EncodedSentence],
    corpus: Corpus,
    constrained: bool = False,
):
    allowed = allowed_transitions(model.tagset, model.scheme) if constrained else None
    pred = [model_mod.decode_tags(model, s, allowed) for s in sentences]
    return evaluate(pred, corpus)


def train(
    model: ModelParams,
    train_sents: Sequence[EncodedSentence],
    cfg: TrainConfig,
    dev_sents: Sequence[EncodedSentence] | None = None,
    dev_corpus: Corpus | None = None,
    checkpoint_dir: str | Path | None = None,
    log: Callable[[str], None] | None = None,
    stop_when: Callable[[EpochLog], bool] | None = None,
) -> list[EpochLog]:
    """Full training loop; returns one log entry per completed epoch.

    With a checkpoint directory, `last.ckpt` is written every epoch and, when
    a dev set is given, `best.ckpt` whenever dev F1 improves.

    Shuffling, dropout and parameter updates all draw from a generator seeded
    by cfg.seed, so runs with identical config and data are bit-identical.
    """
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(
        model.parameters(), cfg.lr, weight_decay=cfg.weight_decay
    )
    order = np.arange(len(train_sents))
    history: list[EpochLog] = []
    best_f1 = -1.0
    has_dev = dev_sents is not None and dev_corpus is not None
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        ner_sum = lec_sum = 0.0
        batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_sents[i] for i in order[lo : lo + cfg.batch_size]]
            report = train_step(batch, model, optimizer, epoch, cfg, rng)
            ner_sum += report.ner_loss
            lec_sum += report.lec_loss
            batches += 1
        dev_p = dev_r = dev_f1 = 0.0
        if has_dev:
            dev = evaluate_model(model, dev_sents, dev_corpus, cfg.constrained_decode)
            dev_p, dev_r, dev_f1 = dev.precision, dev.recall, dev.f1
        entry = EpochLog(
            epoch, lambda_schedule(epoch, cfg), ner_sum / batches, lec_sum / batches,
            dev_p, dev_r, dev_f1,
        )
        history.append(entry)
        if log:
            log(entry.format())
        if ckpt_dir:
            model.save(ckpt_dir / "last.ckpt")
            if has_dev and dev_f1 > best_f1:
                best_f1 = dev_f1
                model.save(ckpt_dir / "best.ckpt")
        if stop_when and stop_when(entry):
            break
    return history


@dataclass
class GradCheckEntry:
    tensor: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst: GradCheckEntry
    checked: int
    tolerance: float
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.max_rel_error < self.tolerance

    def format(self) -> str:
        status = "ok" if self.ok else "FAILED"
        w = self.worst
        return (
            f"gradcheck {status}: max_rel_error={self.max_rel_error:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.checked} entries) "
            f"worst at {w.tensor}{list(w.index)}: "
            f"analytic={w.analytic:.6e} numeric={w.numeric:.6e}"
        )


def grad_check(
    model: ModelParams,
    sent: EncodedSentence,
    lam: float = 0.3,
    h: float = 1e-5,
    max_entries_per_tensor: int = 16,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Requires a float64 model; dropout is off. Every parameter tensor is
    checked on a deterministic subsample of at least 5 entries (all entries
    for small tensors). Structurally -inf entries are skipped. Relative error
    is |a - n| / max(1, |a|, |n|), which stays meaningful for zero gradients.
    """
    if model.dtype != np.float64:
        raise NumericError("gradient check requires a float64 model")

    def loss_value() -> float:
        l_ner, l_lec = sentence_losses(model, sent)
        return float(total_loss(l_ner, l_lec, lam).data)

    # reject configurations where a relu input sits within the probe width of
    # its kink: central differences would straddle the non-differentiable point
    with watch_relu_kinks() as margins:
        base_ner, base_lec = sentence_losses(model, sent)
    if margins and min(margins) <= 10 * h:
        raise NumericError(
            f"relu pre-activation within {10 * h:g} of zero; "
            "re-seed the model or pick another sentence"
        )
    model.zero_grads()
    loss = total_loss(base_ner, base_lec, lam)
    loss.backward()

    rng = np.random.default_rng(seed)
    worst: GradCheckEntry | None = None
    per_tensor: dict[str, float] = {}
    checked = 0
    for name, p in model.parameters().items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat_ok = np.flatnonzero(np.isfinite(p.data.reshape(-1)))
        sample_size = min(flat_ok.size, max(5, max_entries_per_tensor))
        picks = (
            flat_ok
            if flat_ok.size <= sample_size
            else rng.choice(flat_ok, size=sample_size, replace=False)
        )
        tensor_worst = 0.0
        flat = p.data.reshape(-1)
        for i in sorted(int(x) for x in picks):
            old = flat[i]
            flat[i] = old + h
            f_plus = loss_value()
            flat[i] = old - h
            f_minus = loss_value()
            flat[i] = old
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            checked += 1
            if err >= tensor_worst:
                tensor_worst = err
            if worst is None or err > worst.rel_error:
                idx = np.unravel_index(i, p.data.shape)
                worst = GradCheckEntry(name, tuple(int(x) for x in idx), a, numeric, err)
        per_tensor[name] = tensor_worst
    return GradCheckReport(worst.rel_error, worst, checked, tolerance, per_tensor)
