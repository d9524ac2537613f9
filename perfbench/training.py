"""The train-200k workload: the offline CLI path (`map-keywords`, then
`train --method normal`) on a generated 200k-event log.

One replay is one training job; each CLI call's time is its median replay,
and the job's time is the sum of those. A call lasts seconds, so it averages
over the machine's slow and fast phases; the fastest of three such calls
depends on whether one landed in a rare fast phase, the median does not.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import CheckFailed, check_training
from serving import wait_child

IMPORTS_PER_REPLAY = 5
CHILD_TIMEOUT_S = 120.0
EVENTS = 200_000


def cli_args(workdir: Path) -> dict[str, list[str]]:
    w = workdir
    return {
        "map-keywords": ["map-keywords", "--data", str(w / "events.csv"), "--category", "sports",
                         "--k", "3", "--out", str(w / "map.json")],
        "train": ["train", "--data", str(w / "events.csv"), "--ads", str(w / "catalog.json"),
                  "--map", str(w / "map.json"), "--method", "normal",
                  "--out", str(w / "model.json")],
    }


def run_child(argv: list[str], env: dict, workdir: Path) -> tuple[float, float]:
    """Run one fresh interpreter; return its wall seconds and peak RSS in MB."""
    with open(workdir / "cli.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        rss_mb = wait_child(proc, CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:4]} exited {proc.returncode}: "
                           + (workdir / "cli.err").read_text()[-2000:])
    return elapsed, rss_mb


class Outputs:
    """Checks the first replay's map and model against the oracles and every
    later replay's files against the first."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.first = None
        self.report = None

    def check(self) -> None:
        files = tuple((self.workdir / name).read_bytes() for name in ("map.json", "model.json"))
        if self.first is None:
            self.report = check_training(self.workdir, self.workdir / "map.json",
                                         self.workdir / "model.json")
            self.first = files
        elif files != self.first:
            raise CheckFailed("a replay of the training job wrote different map/model files")


def run_untraced(workdir: Path, env: dict, replays: int) -> dict:
    calls = cli_args(workdir)
    times = {name: [] for name in calls}
    imports, peak_rss = [], 0.0
    outputs = Outputs(workdir)
    for _ in range(replays):
        for _ in range(IMPORTS_PER_REPLAY):
            imports.append(run_child(["-c", "import ctrserve.cli"], env, workdir)[0])
        for name, args in calls.items():
            elapsed, rss_mb = run_child(["-m", "ctrserve.cli"] + args, env, workdir)
            times[name].append(elapsed)
            peak_rss = max(peak_rss, rss_mb)
        outputs.check()
    job_s = sum(statistics.median(values) for values in times.values())
    return {
        "replays": replays,
        "report": outputs.report,
        "metrics": {
            "setup_s": (min(imports), "s"),
            "p50_ms": (job_s * 1e3, "ms"),
            # One operation per replay: its p99 is the operation itself.
            "p99_ms": (job_s * 1e3, "ms"),
            "work_per_s": (EVENTS / job_s, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
    }


def run_traced(workdir: Path, replays: int, tracer) -> dict:
    """The same CLI calls in this process through `ctrserve.cli.main`, with
    the offline layers wrapped."""
    from tracing import CLI_TARGETS
    calls = cli_args(workdir)
    times = {name: [] for name in calls}
    outputs = Outputs(workdir)
    with tracer.patched(CLI_TARGETS):
        from ctrserve import cli
        for replay in range(replays):
            tracer.replay = replay
            for name, args in calls.items():
                tracer.op = name
                began = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args)
                elapsed = time.perf_counter() - began
                if code != 0:
                    raise RuntimeError(f"in-process {name} returned {code}")
                times[name].append(elapsed)
            outputs.check()
    return {"replays": replays,
            "median": {name: statistics.median(values) for name, values in times.items()}}


def layer_metrics(tracer, traced: dict) -> dict:
    """Per-layer numbers: each layer's time summed over one replay's two CLI
    calls, median replay."""

    def per_replay(name: str) -> dict:
        totals: dict = {}
        for (replay, _op), ns in tracer.durations(name).items():
            totals[replay] = totals.get(replay, 0) + ns
        return totals

    def median_s(name: str) -> float:
        totals = per_replay(name)
        return statistics.median(totals.values()) / 1e9 if totals else 0.0

    parses = [(replay, e) for replay, _op, e in tracer.extras("catalog.parse_event_log")]
    first = [e for replay, e in parses if replay == 0]
    rows = [e["rows"] for replay, _op, e in tracer.extras("catalog.aggregate_events") if replay == 0]
    return {
        "cli.map_keywords_s": traced["median"]["map-keywords"],
        "cli.train_s": traced["median"]["train"],
        "catalog.parse_event_log_s": median_s("catalog.parse_event_log"),
        "catalog.parse_event_log_calls": len(first),
        "catalog.events_parsed": sum(e["events"] for e in first),
        "catalog.parse_peak_rss_mb": max((e["rss_mb"] for _, e in parses), default=0.0),
        "catalog.aggregate_events_s": median_s("catalog.aggregate_events"),
        "catalog.training_rows": sum(rows),
        "keywords.count_cooccurrences_s": median_s("keywords.count_cooccurrences"),
        "keywords.build_keyword_map_s": median_s("keywords.build_keyword_map"),
        "features.build_design_matrix_ms": median_s("features.build_design_matrix") * 1e3,
        "regression.normal_equation_ms": median_s("regression.normal_equation") * 1e3,
    }
