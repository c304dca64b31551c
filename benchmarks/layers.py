"""Which lexner functions the traced run wraps, and the per-layer metrics.

Each span is named after the metric its self time feeds. `fusion_layer` is
named `fusion.ffn`: its attention and gating calls are child spans, so its
self time is the two position-wise FFN blocks. The operations' entry points
(`train_step`, `prepare_sentence`, `decode_tags`) and the harness's set-up
(`bench.setup`, wrapped in run.py) are spans too, so the time outside every
span is only the harness's loop and checks.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from lexner import crf, encoding, fusion, graph, matching, model, trainer
from lexner.autograd import Tensor
from lexner.model import ModelParams
from lexner.trainer import Adam
from tracer import Tracer, self_times

# (name, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("matching.match_sentence.ms", "ms"),
    ("graph.build_graph.ms", "ms"),
    ("encoding.initial_states.ms", "ms"),
    ("fusion.char_attention.ms", "ms"),
    ("fusion.word_attention.ms", "ms"),
    ("fusion.inter_source_fusion.ms", "ms"),
    ("fusion.gate_pairs", "count"),
    ("fusion.gate_edge_ratio", "edges/pair"),
    ("fusion.ffn.ms", "ms"),
    ("crf.nll_loss.ms", "ms"),
    ("crf.viterbi_decode.ms", "ms"),
    ("autograd.backward.ms", "ms"),
    ("autograd.backward.calls", "count"),
    ("trainer.adam_step.ms", "ms"),
    ("trainer.adam_step.calls", "count"),
    ("model.forward.ms", "ms"),
    ("model.load.ms", "ms"),
    ("model.prepare_sentence.ms", "ms"),
    ("model.decode_tags.ms", "ms"),
    ("trainer.train_step.ms", "ms"),
    ("bench.setup.ms", "ms"),
    ("trace.other.ms", "ms"),
    ("trace.wall.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def lattice_edges(words) -> int:
    """Character-word edges of the standard lattice: each word links its span."""
    return sum(w.tail - w.head + 1 for w in words)


def _attention_name(args, layer_args) -> str:
    # fusion_layer passes params.char_att for the character source
    is_char = layer_args is not None and args["params"] is layer_args["params"].char_att
    return "fusion.char_attention" if is_char else "fusion.word_attention"


def _count_matches(counts, args, result) -> None:
    counts["chars"] += len(args["sentence"])
    counts["words"] += len(result[0])


def _count_gate_edges(counts, args, result) -> None:
    # the gate runs both ways, chars from words and words from chars
    counts["gate_edges"] += 2 * lattice_edges(args["graph"].words)


def _count_gate_pairs(counts, inside, result) -> None:
    # a gate sigmoid's output holds one d-vector per (char, word) pair it evaluates
    if inside == "fusion.inter_source_fusion":
        counts["gate_pairs"] += result.data.size // result.data.shape[-1]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every measured lexner layer for the duration of the block."""
    try:
        tracer.patch_function(matching, "match_sentence", "matching.match_sentence", _count_matches)
        tracer.patch_function(graph, "build_graph", "graph.build_graph")
        tracer.patch_function(encoding, "initial_states", "encoding.initial_states")
        tracer.patch_function(fusion, "intra_source_attention", _attention_name)
        tracer.patch_function(
            fusion, "inter_source_fusion", "fusion.inter_source_fusion", _count_gate_edges
        )
        tracer.patch_counter(Tensor, "sigmoid", _count_gate_pairs)
        tracer.patch_function(fusion, "fusion_layer", "fusion.ffn")
        tracer.patch_function(crf, "nll_loss", "crf.nll_loss")
        tracer.patch_function(crf, "viterbi_decode", "crf.viterbi_decode")
        tracer.patch_function(model, "forward_states", "model.forward")
        tracer.patch_function(model, "prepare_sentence", "model.prepare_sentence")
        tracer.patch_function(model, "decode_tags", "model.decode_tags")
        tracer.patch_function(trainer, "train_step", "trainer.train_step")
        tracer.patch_method(Tensor, "backward", "autograd.backward")
        tracer.patch_method(Adam, "step", "trainer.adam_step")
        tracer.patch_method(ModelParams, "load", "model.load")
        yield
    finally:
        tracer.restore()


def per_layer_metrics(tracer: Tracer, traced_ns: int, untraced_ns: int) -> dict[str, float]:
    """Per-layer values; `trace.other.ms` is the unattributed residual, the
    traced wall time outside every span."""
    own = self_times(tracer.spans)
    calls = Counter(name for name, *_ in tracer.spans)
    counts = tracer.counts
    values = {f"{name}.ms": t / 1e6 for name, t in own.items()}
    values.update({
        "fusion.gate_pairs": counts["gate_pairs"],
        "fusion.gate_edge_ratio": counts["gate_edges"] / max(counts["gate_pairs"], 1),
        "autograd.backward.calls": calls["autograd.backward"],
        "trainer.adam_step.calls": calls["trainer.adam_step"],
        "trace.other.ms": (traced_ns - sum(own.values())) / 1e6,
        "trace.wall.ms": traced_ns / 1e6,
        "trace.overhead_ratio": traced_ns / untraced_ns,
    })
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}


def input_properties(tracer: Tracer) -> list[tuple[str, float, str]]:
    """What the traced pass fed lexner: (name, value, unit) per property."""
    counts = tracer.counts
    sentences = sum(name == "matching.match_sentence" for name, *_ in tracer.spans)
    return [
        ("chars_per_sentence", counts["chars"] / max(sentences, 1), "chars"),
        ("matching.words_per_char", counts["words"] / max(counts["chars"], 1), "words/char"),
        ("fusion.gate_edges", counts["gate_edges"], "count"),
    ]
