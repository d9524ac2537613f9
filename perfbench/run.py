#!/usr/bin/env python3
"""Benchmark for ctrserve: serving over HTTP and offline training.

    python3 perfbench/run.py --workload serve-ctr-10k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated from the
seed, the program runs from `src/` as its users run it (`ctrserve serve` as a
child process; `ctrserve map-keywords` and `ctrserve train` as fresh
interpreters), every output is checked against an oracle computed apart from
the program, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones of a traced
run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Seconds one replay takes on a 2-CPU machine. A run makes
# ceil(--seconds / this) replays, at least 2: the count depends on the command
# line only, never on how fast this run happens to go, because the fastest of
# K replays reads lower as K grows.
REPLAY_SECONDS = {"serve-ctr-10k": 6.5, "serve-bid-events": 2.5, "train-200k": 12.0}
WORKLOADS = tuple(REPLAY_SECONDS)
MIN_REPLAYS = 2

# Every per-layer metric is printed on every workload; a layer that does not
# run in a workload reads 0.
PER_LAYER_UNITS = {
    "server.load_state_s": "s",
    "server.serve_ms.p50": "ms",
    "server.serve_ms.p99": "ms",
    "server.build_pool_ms": "ms",
    "server.select_by_ctr_ms": "ms",
    "server.select_by_bid_ms": "ms",
    "server.bucket_ads": "count",
    "server.pool_candidates": "count",
    "server.pool_yield": "ratio",
    "regression.predict_calls": "count",
    "regression.predict_us": "us",
    "keywords.resolve_page_value_us": "us",
    "server.to_json_us": "us",
    "server.record_event_ms": "ms",
    "http.self_ms": "ms",
    "cli.map_keywords_s": "s",
    "cli.train_s": "s",
    "catalog.parse_event_log_s": "s",
    "catalog.parse_event_log_calls": "count",
    "catalog.events_parsed": "count",
    "catalog.parse_peak_rss_mb": "MB",
    "catalog.aggregate_events_s": "s",
    "catalog.training_rows": "count",
    "keywords.count_cooccurrences_s": "s",
    "keywords.build_keyword_map_s": "s",
    "features.build_design_matrix_ms": "ms",
    "regression.normal_equation_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    """The program reads CTRF_* variables as flag overrides; none may leak in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CTRF_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def generate(workload: str, seed: int, workdir: Path) -> None:
    """Inputs are made in their own process, before any timing."""
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(workdir)],
                   check=True, stdin=subprocess.DEVNULL, timeout=120)


def run_serving(workdir: Path, replays: int, trace: bool) -> dict:
    import serving
    workload = serving.Workload(workdir)
    if not trace:
        result = serving.run_untraced(workload, child_env(), replays)
        replayer = result["replayer"]
        print(f"{replayer.replays} replays of {len(workload.ops)} operations, "
              f"{len(replayer.reloads)} reloads")
        return {"attempted": replayer.attempted, "failed": replayer.failed,
                "metrics": result["metrics"]}
    from tracing import Tracer
    untraced = serving.run_untraced(workload, child_env(), replays // 2)
    tracer = Tracer()
    traced = serving.run_traced(workload, replays // 2, tracer)
    tracer.dump(RUNS / f"trace-{workdir.name}.jsonl")
    metrics = serving.layer_metrics(tracer, traced)
    before = untraced["metrics"]["p50_ms"][0]
    after = statistics.median(traced.times()) * 1e3
    metrics.update(trace_overhead(before, after))
    first = untraced["replayer"]
    print(f"untraced {first.replays} replays, traced {traced.replays} replays "
          f"of {len(workload.ops)} operations")
    return {"attempted": first.attempted + traced.attempted,
            "failed": first.failed + traced.failed, "metrics": metrics}


def run_training(workdir: Path, replays: int, trace: bool) -> dict:
    import training
    if not trace:
        result = training.run_untraced(workdir, child_env(), replays)
        print(f"{result['replays']} replays; planted |z| {result['report']['z']}")
        return {"attempted": result["replays"], "failed": 0, "metrics": result["metrics"]}
    from tracing import Tracer
    untraced = training.run_untraced(workdir, child_env(), replays // 2)
    tracer = Tracer()
    traced = training.run_traced(workdir, replays // 2, tracer)
    tracer.dump(RUNS / f"trace-{workdir.name}.jsonl")
    metrics = training.layer_metrics(tracer, traced)
    metrics.update(trace_overhead(untraced["metrics"]["p50_ms"][0],
                                  sum(traced["median"].values()) * 1e3))
    print(f"untraced {untraced['replays']} replays, traced {traced['replays']} replays")
    return {"attempted": untraced["replays"] + traced["replays"], "failed": 0,
            "metrics": metrics}


def trace_overhead(untraced_ms: float, traced_ms: float) -> dict:
    return {"trace.untraced_p50_ms": untraced_ms, "trace.traced_p50_ms": traced_ms,
            "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0}


def main() -> int:
    parser = argparse.ArgumentParser(description="ctrserve benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still unwinds, so the server child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ctrserve" / "__init__.py").is_file():
        print(f"no ctrserve sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oracle import CheckFailed

    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        generate(args.workload, args.seed, workdir)
        run = run_training if args.workload == "train-200k" else run_serving
        replays = max(MIN_REPLAYS, math.ceil(args.seconds / REPLAY_SECONDS[args.workload]))
        result = run(workdir, replays, bool(args.trace))
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured = result["metrics"]
        metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
