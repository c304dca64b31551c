"""Self-tests of the benchmark harness: span arithmetic, patch restoration,
the seeded generator and the agreement of BENCHMARK.json with the harness."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import generate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_on_hand_built_tree():
    spans = [
        ["a", 0, 100, -1],   # children b (30) and d (40)
        ["b", 10, 40, 0],    # child c (10)
        ["c", 15, 25, 1],
        ["d", 50, 90, 0],
        ["b", 100, 130, -1],  # a second root with the same name
    ]
    own = self_times(spans)
    assert own == {"a": 30, "b": 20 + 30, "c": 10, "d": 40}
    assert sum(own.values()) == 100 + 30  # the roots' durations


def test_wrapped_calls_nest_and_count():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = tracer.wrap(inner, lambda args, parent: f"inner<{parent['x']}")
    traced_outer = tracer.wrap(outer, "outer", hook=lambda c, args, r: c.update(out=r))
    assert traced_outer(3) == 8
    assert tracer.spans == [["outer", 0, 3, -1], ["inner<3", 1, 2, 0]]
    assert tracer.counts["out"] == 8


def _bindings():
    """Every attribute of every lexner module, and the patched classes' dicts."""
    from lexner.autograd import Tensor
    from lexner.model import ModelParams
    from lexner.trainer import Adam

    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "lexner" or name.startswith("lexner."):
            found.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (Tensor, Adam, ModelParams):
        found.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return found


def test_traced_run_restores_every_wrapped_function(tmp_path):
    small = dict(dims=workloads.TINY, length=10, words=10, count=1)
    train = workloads.TrainWorkload(workloads.Spec("t", batch=2, train=True, **small), seed=3)
    predict = workloads.PredictWorkload(
        workloads.Spec("p", batch=1, train=False, **small), seed=3, workdir=tmp_path
    )
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="stop"):
        with layers.traced(tracer):
            patched = _bindings()
            assert any(patched[k] is not v for k, v in before.items())
            for workload in (train, predict):
                ops = workload.repetition(tracer.wrap(workload.setup, "bench.setup")())
                assert ops and all(op.ok for op in ops)
            raise RuntimeError("stop")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    names = {span[0] for span in tracer.spans}
    expected = {name.removesuffix(".ms") for name, _ in layers.PER_LAYER if name.endswith(".ms")}
    assert names == expected - {"trace.other", "trace.wall"}
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_times(tracer.spans).values()) == roots
    metrics = layers.per_layer_metrics(tracer, roots + 5, roots)
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["trace.other.ms"] == pytest.approx(5e-6)
    assert metrics["autograd.backward.calls"] == 2 and metrics["trainer.adam_step.calls"] == 1
    # 2 layers on 3 sentences of 10 chars and 10 words; the dense gate
    # evaluates every (char, word) pair, both ways
    assert metrics["fusion.gate_pairs"] == 2 * 3 * (2 * 10 * 10)
    assert 0 < metrics["fusion.gate_edge_ratio"] < 1
    props = {name: value for name, value, _ in layers.input_properties(tracer)}
    assert props["chars_per_sentence"] == 10 and props["matching.words_per_char"] == 1


def test_generator_is_deterministic_per_seed():
    first = generate.make_sentences(5, 3, 100, 95)
    assert generate.make_sentences(5, 3, 100, 95) == first
    assert generate.make_sentences(6, 3, 100, 95) != first
    surfaces = set(generate.synthetic.ENTITY_TYPES)
    for chars, spans in first:
        assert len(chars) == 100
        assert generate.matched_words(chars) == 95
        assert set(chars) <= set(generate.ALPHABET)
        for head, tail, etype in spans:
            surface = "".join(chars[head : tail + 1])
            assert surface in surfaces and generate.synthetic.ENTITY_TYPES[surface] == etype


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # train_short is runnable but not gated: see README.md
    assert [w["name"] for w in spec["workloads"]] == ["train_paper", "predict_long"]
    assert set(workloads.SPECS) == {"train_short", "train_paper", "predict_long"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
