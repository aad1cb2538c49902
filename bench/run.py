"""ICEWS14-shaped benchmark of copygen: train, eval and remix workloads.

    python3 bench/run.py --workload icews14-eval --seed 1 --seconds 30 --trace 0

Builds its own input from the seed (see ``inputs.py``), sets it up as the
CLI handlers do, runs rounds of the workload for about ``--seconds``, checks
the outputs, and prints one ``metric name=value unit`` line per metric. The
last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: each round runs on a fresh,
separately timed set-up. ``--trace 1`` sets up once with span wrappers
installed on the program's functions, runs one untimed warm-up round, then
untraced rounds alternating with ``TRACED_ROUNDS`` traced ones and untraced
rounds until ``--seconds``. It reports the per-layer self times and counts
of one set-up plus one round, and the tracing overhead. Spans and the run
record are written under ``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits in;
the run fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

# ops_per_s is also printed under the name of what one op is per workload
OPS = {"icews14-train": "train_rows_per_s", "icews14-eval": "eval_queries_per_s",
       "icews14-remix": "remix_queries_per_s"}

# per-layer metric -> (unit, span name): the summed count of the span name
# for unit "count", else its summed self time
PER_LAYER = {
    "data.load_dataset_s": ("s", "data.load_dataset"),
    "data.augment_reciprocal_s": ("s", "data.augment_reciprocal"),
    "history.vocab_build_s": ("s", "history.vocab_build"),
    "history.vocab_facts": ("count", "history.vocab_build"),
    "history.absorb_s": ("s", "history.absorb"),
    "history.absorb_calls": ("count", "history.absorb"),
    "history.masks_for_s": ("s", "history.masks_for"),
    "history.mask_rows": ("count", "history.masks_for"),
    "model.query_inputs_s": ("s", "model.query_inputs"),
    "model.copy_index_s": ("s", "model.copy_index"),
    "model.gen_logits_s": ("s", "model.gen_logits"),
    "model.softmax_s": ("s", "model.softmax"),
    "model.softmax_rows": ("count", "model.softmax"),
    "model.score_batch_self_s": ("s", "model.score_batch"),
    "training.fit_self_s": ("s", "training.fit"),
    "training.loss_and_grads_self_s": ("s", "training.loss_and_grads"),
    "training.amsgrad_step_s": ("s", "training.amsgrad_step"),
    "training.amsgrad_steps": ("count", "training.amsgrad_step"),
    "evaluation.build_filter_s": ("s", "evaluation.build_filter"),
    "evaluation.filter_triples": ("count", "evaluation.build_filter"),
    "evaluation.evaluate_self_s": ("s", "evaluation.evaluate"),
    "evaluation.evaluate_calls": ("count", "evaluation.evaluate"),
    "evaluation.rank_s": ("s", "evaluation.rank"),
    "evaluation.rank_calls": ("count", "evaluation.rank"),
}
# Rounds a traced run traces; the per-layer metrics average over them.
TRACED_ROUNDS = 2


def pin_threads() -> int:
    """Give every BLAS/OpenMP pool one thread per usable core. Must run
    before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure copygen
    comes from there, not from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import copygen
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import copygen from {src}: {exc}") from None
    if not Path(copygen.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: copygen imported from {copygen.__file__}, not {src}")


def metadata(threads: int, seed: int, shape) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "threads": threads, "seed": seed,
            "shape": shape.name, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "machine": platform.machine()}


def rounded(times: list[float]) -> list[float]:
    return [round(t, 3) for t in times]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, shape_name: str = "icews14"):
    """Run one workload; returns (result, human-readable lines, record)."""
    threads = pin_threads()
    import_program()
    import inputs
    import workloads

    shape = inputs.SHAPES[shape_name]
    reference = inputs.load_reference()
    data_dir = inputs.materialize(shape, seed, ROOT / ".bench_cache", reference)
    for_eval, plan_fn, _ = workloads.WORKLOADS[workload]
    record = {"meta": metadata(threads, seed, shape), "workload": workload}
    lines = [f"workload={workload} seed={seed} shape={shape.name}"]
    if trace:
        plan, results, metrics = run_traced(data_dir, seed, shape, for_eval, plan_fn,
                                            seconds, lines, record)
    else:
        plan, results, times, setup_times = workloads.measure_with_setup(
            data_dir, seed, shape, workload, seconds)
        ops_per_s = plan.ops_per_round / statistics.median(times)
        lines.append(f"ops_per_round={plan.ops_per_round} round_s={rounded(times)} "
                     f"setup_s={rounded(setup_times)}")
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "ops_per_s": (ops_per_s, "1/s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}

    failed, checks = plan.check(results, reference)
    attempted = len(results) * plan.ops_per_round
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name}={value!r} {unit}")
    if not trace:
        lines.append(f"metric {OPS[workload]}={ops_per_s!r} 1/s")
    lines.append(f"metric failed_fraction={failed / attempted!r} ratio")
    lines += [f"check {name}: {verdict}" for name, verdict in checks.items()]
    result = {"correct": failed == 0 and all(v.startswith(("ok", "skipped"))
                                             for v in checks.values()),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update(checks=checks, result=result)
    return result, lines, record


def run_traced(data_dir, seed, shape, for_eval, plan_fn, seconds, lines, record):
    """Traced set-up, an untimed warm-up round, then untraced rounds
    alternating with TRACED_ROUNDS traced ones, and untraced rounds until
    ``seconds``; returns the plan, all round results and the per-layer
    metrics, and puts the spans in ``record``."""
    import spans
    import workloads

    tracer = spans.Tracer()
    started = time.perf_counter()
    with tracer.installed(), tracer.span("bench.setup"):
        state = workloads.setup(data_dir, seed, for_eval)
    outside_wall = time.perf_counter() - started
    plan = plan_fn(state, shape, seed)
    results = [plan.round()]
    times, traced_times = [], []
    while (len(traced_times) < TRACED_ROUNDS
           or sum(times + traced_times) + statistics.mean(times) <= seconds):
        traced = len(traced_times) < min(len(times), TRACED_ROUNDS)
        started = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("bench.round"):
                results.append(plan.round())
        else:
            results.append(plan.round())
        (traced_times if traced else times).append(time.perf_counter() - started)
    outside_wall += sum(traced_times)
    lines.append(f"ops_per_round={plan.ops_per_round} round_s={rounded(times)} "
                 f"traced_round_s={rounded(traced_times)}")
    metrics = layer_metrics(tracer, plan, outside_wall, spans.span_cost())
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (statistics.median(traced_times) / statistics.median(times) - 1.0), "%")
    record["spans"] = tracer.spans
    return plan, results, metrics


def layer_metrics(tracer, plan, outside_wall: float, span_cost: float) -> dict:
    """Per-layer self times and counts of one set-up plus one round: the
    traced set-up's, plus the mean over the TRACED_ROUNDS traced rounds.

    The roots' self time is the part of the traced wall time that no
    wrapper saw. The traced wall time must match ``outside_wall``, the
    set-up and traced rounds timed outside the tracer.
    """
    totals = tracer.totals()
    setup, rounds = totals["bench.setup"], totals["bench.round"]

    def per_setup_and_round(which: int, name: str) -> float:
        value = setup[which][name] + rounds[which][name] / TRACED_ROUNDS
        return int(value) if which and value.is_integer() else value

    metrics = {name: (per_setup_and_round(unit == "count", span), unit)
               for name, (unit, span) in PER_LAYER.items()}
    metrics["model.score_rows_per_query"] = (
        rounds[1]["model.score_batch"] / TRACED_ROUNDS / plan.queries_per_round
        if plan.queries_per_round else 0.0, "ratio")
    walls = collections.Counter()
    for name, start, end, parent, _ in tracer.spans:
        if parent == -1:
            walls[name] += end - start
    # slack for installing the wrappers, or a garbage collection meanwhile
    if abs(walls.total() - outside_wall) > 0.01 * outside_wall + 5e-3:
        raise RuntimeError(f"traced wall {walls.total()} s != {outside_wall} s "
                           "timed outside the tracer")
    metrics["bench.traced_wall_s"] = (
        walls["bench.setup"] + walls["bench.round"] / TRACED_ROUNDS, "s")
    metrics["bench.unwrapped_s"] = (per_setup_and_round(0, "bench.setup")
                                    + per_setup_and_round(0, "bench.round"), "s")
    spans_per = sum(setup[2].values()) + sum(rounds[2].values()) / TRACED_ROUNDS
    metrics["bench.spans"] = (int(spans_per) if spans_per.is_integer() else spans_per,
                              "count")
    metrics["bench.span_cost_s"] = (spans_per * span_cost, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["meta"]["seconds"] = args.seconds
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print("meta " + json.dumps(record["meta"]))
    for line in lines:
        print(line)
    print(f"record={out.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
