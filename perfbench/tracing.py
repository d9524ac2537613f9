"""Spans around calls into the program's public functions, recorded from the
benchmark's own code by patching module attributes.

A span is (name, replay, op, duration ns, self ns, extra); self time is the
duration minus the time covered by child spans and tallies on the same
thread. Calls made hundreds of times per request (`predict`,
`resolve_page_value`, `to_json`) are tallied per (name, replay, op) as
[calls, ns] instead of kept one by one. Everything stays in memory until
`dump` writes it at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# (module path, attribute holder, attribute, span name, kind)
# kind "span" keeps each call; "tally" adds it to the per-op counters.
SERVER_TARGETS = (
    ("ctrserve.server", None, "load_state", "server.load_state", "span"),
    ("ctrserve.server", None, "serve", "server.serve", "span"),
    ("ctrserve.server", None, "build_pool", "server.build_pool", "span"),
    ("ctrserve.server", None, "select_by_ctr", "server.select_by_ctr", "span"),
    ("ctrserve.server", None, "select_by_bid", "server.select_by_bid", "span"),
    ("ctrserve.server", None, "predict", "regression.predict", "tally"),
    ("ctrserve.server", None, "resolve_page_value", "keywords.resolve_page_value", "tally"),
    ("ctrserve.server", "AdResponse", "to_json", "server.to_json", "tally"),
    ("ctrserve.server", "EventLogWriter", "record_event", "server.record_event", "span"),
    ("ctrserve.server", "AdRequestHandler", "do_GET", "http.handler", "span"),
    ("ctrserve.server", "AdRequestHandler", "do_POST", "http.handler", "span"),
)

# `ctrserve.cli` imports parse_event_log and aggregate_events by name, so both
# the catalog module and the cli module's copies are patched.
CLI_TARGETS = (
    ("ctrserve.catalog", None, "parse_event_log", "catalog.parse_event_log", "span"),
    ("ctrserve.cli", None, "parse_event_log", "catalog.parse_event_log", "span"),
    ("ctrserve.cli", None, "aggregate_events", "catalog.aggregate_events", "span"),
    ("ctrserve.keywords", None, "count_cooccurrences", "keywords.count_cooccurrences", "span"),
    ("ctrserve.keywords", None, "build_keyword_map", "keywords.build_keyword_map", "span"),
    ("ctrserve.regression", None, "build_design_matrix", "features.build_design_matrix", "span"),
    ("ctrserve.regression", None, "normal_equation", "regression.normal_equation", "span"),
)


def _rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _extra(name: str, args, result):
    """Counts recorded where the work happens."""
    if name == "server.build_pool":
        return {"scanned": len(args[0]), "candidates": len(getattr(result, "candidates", ()))}
    if name == "catalog.parse_event_log":
        return {"events": len(result), "rss_mb": _rss_mb()}
    if name == "catalog.aggregate_events":
        return {"rows": len(result)}
    return None


class Tracer:
    """Collects spans and tallies. The closed-loop client sets `replay` and
    `op` before each operation; with one request in flight at a time, the
    server threads attribute their spans to it without locking."""

    def __init__(self):
        self.replay = 0
        self.op = None
        self.spans: list[tuple] = []
        self.tallies: dict[tuple, list[int]] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn, kind: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0]  # ns covered by children
            stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (name, tracer.replay, tracer.op)
                if kind == "tally":
                    counts = tracer.tallies.setdefault(key, [0, 0])
                    counts[0] += 1
                    counts[1] += duration
                else:
                    tracer.spans.append(key + (duration, duration - frame[0],
                                               _extra(name, args, result)))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each target with its traced wrapper; a target the program
        no longer has is skipped, so its metrics read 0."""
        # Import every module first: a module imported after a patch would
        # copy the wrapper into its own namespace and get wrapped twice.
        modules = {path: importlib.import_module(path) for path, *_ in targets}
        undo = []
        try:
            for module_path, holder, attr, name, kind in targets:
                owner = modules[module_path]
                if holder is not None:
                    owner = getattr(owner, holder, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self.wrap(name, original, kind))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def durations(self, name: str) -> dict[tuple, int]:
        """Total ns of `name` per (replay, op)."""
        totals: dict[tuple, int] = {}
        for span in self.spans:
            if span[0] == name:
                totals[span[1:3]] = totals.get(span[1:3], 0) + span[3]
        return totals

    def extras(self, name: str) -> list[tuple]:
        return [(span[1], span[2], span[5]) for span in self.spans if span[0] == name]

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[0], "replay": span[1], "op": span[2],
                                     "ns": span[3], "self_ns": span[4], "extra": span[5]}) + "\n")
            for (name, replay, op), (calls, ns) in self.tallies.items():
                fh.write(json.dumps({"name": name, "replay": replay, "op": op,
                                     "calls": calls, "ns": ns}) + "\n")
