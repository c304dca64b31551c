"""Run one lexner benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_short --seed 1 --seconds 20 --trace 0

Human-readable report lines come first. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate traced
run with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# one BLAS thread keeps each workload a single-threaded process, steady on a shared machine
BLAS_THREADS = 1

END_TO_END = [
    ("sent_per_s", "sent/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def use_source_tree() -> None:
    """Import lexner from this checkout's src/, never from an installed copy."""
    if not (SRC / "lexner" / "__init__.py").is_file():
        raise SystemExit(f"lexner sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def timed_setups(workload, seconds: float = 0.5) -> list[float]:
    """Set the workload up at least 3 times and for at least `seconds`; each set-up's time."""
    times: list[float] = []
    while len(times) < 3 or sum(times) < seconds:
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload, seconds: int):
    """Fresh-set-up repetitions while the next one is predicted to end within `seconds`.

    Before each repetition a batch of set-ups is timed, so the set-up samples
    spread over the whole run, as the operations do.
    """
    setups: list[float] = []
    runs = []
    start = time.perf_counter()
    while len(runs) < 2 or (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds:
        setups += timed_setups(workload)
        runs.append(workload.repetition(workload.setup()))
        if len(runs) == 1:
            # the first repetition is a fixed amount of work; later ones only add
            # heap fragmentation that varies with how many fit in the time
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = [op for run in runs for op in run]
    latencies = [op.seconds * 1e3 for op in ops]
    rates = [sum(op.sentences for op in run if op.ok) / sum(op.seconds for op in run) for run in runs]
    metrics = {
        "sent_per_s": statistics.median(rates),
        "latency_ms_p50": statistics.median(latencies),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setups),
    }
    report = [
        f"set-up: median of {len(setups)}, timed in {len(runs)} batches",
        f"timed: {len(ops)} operations in {len(runs)} repetitions; sent_per_s is their median",
    ]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8]
        report.append(f"latency_ms_p90 {p90:.4f} ms ({len(latencies)} samples)")
    else:
        report.append(f"latency_ms_p90 not reported: {len(latencies)} samples, fewer than 100")
    if getattr(workload, "loss_end", None) is not None:
        report.append(f"loss_end {workload.loss_end!r} (checked bit-identical in every repetition)")
    return ops, metrics, dict(END_TO_END), report


def traced_run(workload, seconds: int, trace_path: Path):
    """Untraced and traced repetitions in pairs, after one warm-up repetition.

    The heap keeps settling over the first repetitions, so the pairs alternate
    which side goes first (untraced-traced, then traced-untraced) and there
    are at least two of them.
    """
    from layers import PER_LAYER, input_properties, per_layer_metrics, traced
    from tracer import Tracer

    tracer = Tracer()
    traced_setup = tracer.wrap(workload.setup, "bench.setup")

    def timed(trace: bool):
        with traced(tracer) if trace else contextlib.nullcontext():
            start = time.perf_counter_ns()
            rep_ops = workload.repetition(traced_setup() if trace else workload.setup())
            return time.perf_counter_ns() - start, rep_ops

    ops = workload.repetition(workload.setup())
    wall = {False: 0, True: 0}
    pairs = 0
    start = time.perf_counter()
    while pairs < 2 or (time.perf_counter() - start) * (pairs + 1) / pairs <= seconds * 2 / 3:
        for trace in (False, True) if pairs % 2 == 0 else (True, False):
            ns, rep_ops = timed(trace)
            wall[trace] += ns
            ops += rep_ops
        pairs += 1
    metrics = per_layer_metrics(tracer, wall[True], wall[False])
    tracer.write(trace_path, pairs=pairs, traced_ns=wall[True], untraced_ns=wall[False])
    report = [
        f"traced: {pairs} untraced/traced pairs, {len(tracer.spans)} spans written to {trace_path}",
        f"unattributed (trace.other.ms over trace.wall.ms): "
        f"{metrics['trace.other.ms'] / metrics['trace.wall.ms']:.4f}",
        "inputs: " + ", ".join(f"{n} {v:.6g} {u}" for n, v, u in input_properties(tracer)),
    ]
    return ops, metrics, dict(PER_LAYER), report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    use_source_tree()
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.SPECS)}")
    spec = workloads.SPECS[args.workload]
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(
        f"config: {spec.dims} chars/sentence {spec.length} batch {spec.batch} "
        f"operations/repetition {spec.count} blas_threads {BLAS_THREADS} cpus {os.cpu_count()}"
    )

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload = workloads.make(spec.name, args.seed, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{spec.name}-seed{args.seed}.json"
            ops, metrics, units, report = traced_run(workload, args.seconds, trace_path)
        else:
            ops, metrics, units, report = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir)

    failed = sum(not op.ok for op in ops)
    report.append(f"failed {failed} of {len(ops)} (failed_ratio {failed / len(ops):.4f})")
    report += [f"check failed: {p}" for p in workload.problems]
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not workload.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
