"""Training: multi-task loss with the decaying trade-off schedule, Adam
updates, per-epoch evaluation and checkpointing, and finite-difference
gradient verification.

The per-epoch trade-off lambda(t) = max(lambda0 * lambda1**t, tau) weights the
word-property auxiliary loss against the tagging loss; it starts at lambda0,
decays geometrically and never drops below the floor tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import model as model_mod
from .autograd import Tensor, no_grad, watch_relu_kinks
from .data import Corpus, Sentence, evaluate, read_lines
from .model import EncodedSentence, ModelParams, sentence_losses


class NumericError(RuntimeError):
    """Non-finite loss or a failed gradient check."""


class ReluKinkError(NumericError):
    """A relu input too near its kink for a finite-difference probe across it."""


@dataclass
class TrainConfig(model_mod.ModelDims):
    """The model's settings (the ModelDims fields) plus how to train it."""

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
    # paths (optional; CLI fills them from the config file)
    train_file: str = ""
    dev_file: str = ""
    lexicon_file: str = ""
    char_emb_file: str = ""
    word_emb_file: str = ""
    checkpoint_dir: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("lambda0", "lambda1", "tau"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("embed_dropout", "fusion_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        for name, least in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        for name in ("lr", "weight_decay"):  # inf would only surface as a non-finite loss
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def dims(self) -> model_mod.ModelDims:
        """The ModelDims fields alone, as a model and its checkpoint hold them."""
        return model_mod.ModelDims(
            **{f.name: getattr(self, f.name) for f in fields(model_mod.ModelDims)}
        )

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "TrainConfig":
        """Parse a `key = value` config file; '#' starts a comment. Every error,
        a value out of range included, starts with the file's path."""
        values: dict = {}
        for lineno, raw in read_lines(path):
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
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
    """Adam with decoupled weight decay."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.BETA1**self.step_count
        bc2 = 1.0 - self.BETA2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            # update = (lr/bc1) * m / (sqrt(v/bc2) + eps) + lr*wd * p, every
            # operation in that order, in place in two scratch arrays
            buf = np.multiply(g, 1.0 - self.BETA1)
            m *= self.BETA1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - self.BETA2
            v *= self.BETA2
            v += buf
            update = np.multiply(m, self.lr / bc1)
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.EPS
            update /= buf
            if self.weight_decay:
                np.multiply(p.data, self.lr * self.weight_decay, out=buf)
                update += buf
            p.data -= update


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


def _require_gold(sentences: Sequence[EncodedSentence]) -> None:
    if any(s.tags is None for s in sentences):
        raise ValueError("cannot evaluate on sentences without gold tags")


def evaluate_model(model: ModelParams, sentences: Sequence[EncodedSentence]):
    """Strict span evaluation of the model's decoding against each sentence's
    own gold tags (`EncodedSentence.tags`) under the model's tagset and scheme."""
    _require_gold(sentences)
    gold = [Sentence(s.chars, [model.tagset[i] for i in s.tags]) for s in sentences]
    pred = [model_mod.decode_tags(model, s) for s in sentences]
    return evaluate(pred, Corpus(gold, model.dims.tag_scheme))


def train(
    model: ModelParams,
    train_sents: Sequence[EncodedSentence],
    cfg: TrainConfig,
    dev_sents: Sequence[EncodedSentence] | None = None,
    log: Callable[[str], None] | None = None,
    stop_when: Callable[[EpochLog], bool] | None = None,
) -> list[EpochLog]:
    """Full training loop; returns one log entry per completed epoch.

    With non-empty `dev_sents`, each epoch is scored on them by `evaluate_model`.
    With `cfg.checkpoint_dir` set, `last.ckpt` is written there every epoch
    and, with dev sentences, `best.ckpt` whenever dev F1 improves.

    Shuffling, dropout and parameter updates all draw from a generator seeded
    by cfg.seed, so runs with identical config and data are bit-identical.
    Dev sentences without gold tags, or model settings in `cfg` (its
    ModelDims fields) other than the model's own, raise a ValueError before
    the first step.
    """
    if not train_sents:
        raise ValueError("no training sentences")
    settings = cfg.dims()
    differ = [
        f"{f.name} {getattr(settings, f.name)!r} != {getattr(model.dims, f.name)!r}"
        for f in fields(settings)
        if getattr(settings, f.name) != getattr(model.dims, f.name)
    ]
    if differ:
        raise ValueError(f"config settings differ from the model's: {', '.join(differ)}")
    _require_gold(dev_sents or ())
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(
        model.parameters(), cfg.lr, weight_decay=cfg.weight_decay
    )
    order = np.arange(len(train_sents))
    history: list[EpochLog] = []
    best_f1 = -1.0
    ckpt_dir = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir else None
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
        if dev_sents:
            dev = evaluate_model(model, dev_sents)
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
            if dev_sents and dev_f1 > best_f1:
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
    TOLERANCE = 1e-4

    max_rel_error: float
    worst: GradCheckEntry
    checked: int
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.max_rel_error < self.TOLERANCE

    def format(self) -> str:
        status = "ok" if self.ok else "FAILED"
        w = self.worst
        return (
            f"gradcheck {status}: max_rel_error={self.max_rel_error:.3e} "
            f"(tolerance {self.TOLERANCE:.1e}, {self.checked} entries) "
            f"worst at {w.tensor}{list(w.index)}: "
            f"analytic={w.analytic:.6e} numeric={w.numeric:.6e}"
        )


def grad_check(
    model: ModelParams,
    sent: EncodedSentence,
    lam: float = 0.3,
    max_entries_per_tensor: int = 16,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Requires a float64 model; dropout is off. Every parameter tensor is
    checked on a deterministic subsample of at least 5 entries (all entries
    for small tensors). Relative error is |a - n| / max(1, |a|, |n|), which
    stays meaningful for zero gradients. Raises ReluKinkError when a relu
    input lies within 10 probe widths of its kink.
    """
    h = 1e-5  # probe width
    if model.dtype != np.float64:
        raise NumericError("gradient check requires a float64 model")

    def loss_value() -> float:
        # a probe reads the loss only: the same arithmetic without a tape
        with no_grad():
            l_ner, l_lec = sentence_losses(model, sent)
            return float(total_loss(l_ner, l_lec, lam).data)

    with watch_relu_kinks() as margins:
        base_ner, base_lec = sentence_losses(model, sent)
    if margins and min(margins) <= 10 * h:
        raise ReluKinkError(
            f"relu pre-activation within {10 * h:g} of zero; "
            "re-seed the model or pick another sentence"
        )
    model.zero_grads()
    loss = total_loss(base_ner, base_lec, lam)
    loss.backward()

    rng = np.random.default_rng(0)
    worst: GradCheckEntry | None = None
    per_tensor: dict[str, float] = {}
    checked = 0
    for name, p in model.parameters().items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        sample_size = max(5, max_entries_per_tensor)
        picks = (
            range(p.data.size)
            if p.data.size <= sample_size
            else rng.choice(p.data.size, size=sample_size, replace=False)
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
    return GradCheckReport(worst.rel_error, worst, checked, per_tensor)
