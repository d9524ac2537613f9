"""Serving workloads: one closed-loop client replays a fixed list of HTTP
operations against `ctrserve serve`, one connection at a time.

Each replay starts with POST /reload, so no per-snapshot state carries from
one replay to the next. Every operation's fastest replay is its time;
percentiles are taken over those minima.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

from oracle import (CheckFailed, ServingOracle, check_ad_response,
                    check_event_log, expected_log_row)

RELOADS_PER_REPLAY = 3
IO_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0


class Dropped(Exception):
    """The server closed the connection without a response."""


def _request_bytes(port: int, method: str, path: str, body: str = "") -> bytes:
    data = body.encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Connection: close\r\n")
    if method == "POST":
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    return (head + "\r\n").encode() + data


def exchange(port: int, request: bytes) -> tuple[int, bytes, float]:
    """Send one request on a fresh connection; return the status, the body
    and the seconds from connect to the last byte of the response."""
    start = time.perf_counter()
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except ConnectionResetError:
        raise Dropped("connection reset") from None
    elapsed = time.perf_counter() - start
    raw = b"".join(chunks)
    if not raw:
        raise Dropped("connection closed without a response")
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise CheckFailed(f"truncated response {raw[:200]!r}")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length" and int(value) != len(body):
            raise CheckFailed(f"Content-Length {value.strip()} but {len(body)} body bytes")
    return status, body, elapsed


class Workload:
    """The generated files and operation list of one serving workload, with
    each operation's request bytes and expected answer."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops = json.loads((workdir / "ops.json").read_text())
        oracle = ServingOracle(workdir)
        self.expected = [oracle.answer(op) if op["kind"] == "ad" else None for op in self.ops]
        self.mode = self.ops[0]["mode"]

    def requests(self, port: int) -> list[bytes]:
        out = []
        for op in self.ops:
            if op["kind"] == "ad":
                query = urlencode({"placement": op["placement"], "size": op["size"],
                                   "category": op["category"],
                                   "keywords": ",".join(op["keywords"]),
                                   "country": op["country"], "ip": op["ip"],
                                   "browser": op["browser"], "mode": op["mode"]})
                out.append(_request_bytes(port, "GET", "/ad?" + query))
            elif op["kind"] == "event":
                body = {k: op[k] for k in ("ad_id", "clicked", "placement", "size",
                                           "category", "keywords", "country", "ip", "browser")}
                out.append(_request_bytes(port, "POST", "/event", json.dumps(body)))
            else:
                out.append(_request_bytes(port, "POST", "/event", op["body"]))
        return out

    def server_args(self, port: int) -> list[str]:
        w = self.workdir
        return ["serve", "--ads", str(w / "catalog.json"), "--model", str(w / "model.json"),
                "--map", str(w / "map.json"), "--out", str(w / "events.csv"),
                "--port", str(port), "--mode", self.mode]


class Replayer:
    """Replays the workload's operations a fixed number of times and checks
    every answer."""

    def __init__(self, workload: Workload, port: int, tracer=None):
        self.workload = workload
        self.port = port
        self.tracer = tracer
        self.requests = workload.requests(port)
        self.reload_request = _request_bytes(port, "POST", "/reload")
        self.best = [math.inf] * len(self.requests)
        self.rtts: dict[tuple, float] = {}  # (replay, op) -> seconds, traced runs only
        self.reloads: list[float] = []
        self.accepted: list[list[str]] = []
        self.attempted = 0
        self.failed = 0
        self.replays = 0

    def reload(self) -> None:
        if self.tracer is not None:
            self.tracer.op = "reload"
        status, body, elapsed = exchange(self.port, self.reload_request)
        if status != 200:
            raise CheckFailed(f"POST /reload answered {status} {body[:200]!r}")
        self.reloads.append(elapsed)

    def run(self, replays: int) -> None:
        for _ in range(replays):
            if self.tracer is not None:
                self.tracer.replay = self.replays
            for _ in range(RELOADS_PER_REPLAY):
                self.reload()
            for i, request in enumerate(self.requests):
                self._one(i, request)
            self.replays += 1

    def _one(self, i: int, request: bytes) -> None:
        op = self.workload.ops[i]
        if self.tracer is not None:
            self.tracer.op = i
        self.attempted += 1
        try:
            status, body, elapsed = exchange(self.port, request)
        except (Dropped, socket.timeout) as exc:
            self.failed += 1
            if op["kind"] != "malformed":
                print(f"operation {i} ({op['kind']}) failed: {exc}", file=sys.stderr)
            return
        if op["kind"] == "ad":
            check_ad_response(op, self.workload.expected[i], status, body)
        elif op["kind"] == "event":
            if status != 202:
                raise CheckFailed(f"POST /event {op['ad_id']} answered {status} {body[:200]!r}")
            self.accepted.append(expected_log_row(op))
        elif not 400 <= status < 500:
            raise CheckFailed(f"JSON-array POST /event answered {status}, want 4xx")
        self.best[i] = min(self.best[i], elapsed)
        if self.tracer is not None:
            self.rtts[(self.replays, i)] = elapsed

    def check_log(self) -> None:
        if any(op["kind"] == "event" for op in self.workload.ops):
            check_event_log(self.workload.workdir / "events.csv", self.accepted)

    def times(self) -> list[float]:
        """Each operation's fastest replay, for operations that ever succeeded."""
        return [t for t in self.best if t != math.inf]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at q = 0.99 over 1000 values, 10 lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_child(proc: subprocess.Popen, timeout: float) -> float:
    """Reap `proc`, killing it after `timeout` seconds or if this wait is
    interrupted; returns its peak RSS in MB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class ServerProcess:
    """`ctrserve serve` as a child process on a free local port."""

    def __init__(self, workload: Workload, env: dict):
        self.port = free_port()
        self.err = open(workload.workdir / "server.err", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "ctrserve.cli"] + workload.server_args(self.port),
            env=env, stdout=self.err, stderr=self.err, stdin=subprocess.DEVNULL)
        probe = _request_bytes(self.port, "GET", "/healthz")
        while True:
            if self.proc.poll() is not None:
                self.err.close()
                raise RuntimeError("server exited at startup: "
                                   + (workload.workdir / "server.err").read_text()[-2000:])
            try:
                if exchange(self.port, probe)[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)
        self.startup_s = time.perf_counter() - start

    def stop(self) -> float:
        """Terminate the server and reap it; returns its peak RSS in MB.
        SIGTERM, because a process started in the background by a
        non-interactive shell ignores SIGINT."""
        try:
            if self.proc.returncode is None:
                self.proc.terminate()
                return wait_child(self.proc, 10.0)
            return 0.0
        finally:
            self.err.close()


def run_untraced(workload: Workload, env: dict, replays: int) -> dict:
    server = ServerProcess(workload, env)
    try:
        replayer = Replayer(workload, server.port)
        replayer.run(replays)
    finally:
        peak_rss_mb = server.stop()
    replayer.check_log()
    times = replayer.times()
    return {
        "replayer": replayer,
        "metrics": {
            "setup_s": (min([server.startup_s] + replayer.reloads), "s"),
            "p50_ms": (statistics.median(times) * 1e3, "ms"),
            "p99_ms": (percentile(times, 0.99) * 1e3, "ms"),
            "work_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def run_traced(workload: Workload, replays: int, tracer) -> Replayer:
    """The same replays against an in-process server whose functions are
    wrapped, so that the spans exist in this process."""
    from tracing import SERVER_TARGETS
    w = workload.workdir
    # The handler threads print their tracebacks here, as the child's do to server.err.
    with tracer.patched(SERVER_TARGETS), open(w / "server.err", "a") as err, \
            contextlib.redirect_stderr(err):
        from ctrserve.server import AdServer, ServerConfig
        (w / "events.csv").unlink(missing_ok=True)
        tracer.op = "startup"
        server = AdServer(ServerConfig(
            catalog_path=str(w / "catalog.json"), model_path=str(w / "model.json"),
            map_path=str(w / "map.json"), event_log_path=str(w / "events.csv"),
            port=0, default_mode=workload.mode))
        port = server.start()
        try:
            replayer = Replayer(workload, port, tracer)
            replayer.run(replays)
        finally:
            server.stop()
    replayer.check_log()
    return replayer


def layer_metrics(tracer, replayer: Replayer) -> dict:
    """Per-layer numbers from a traced run: span times are each operation's
    fastest replay, then the median (or p99) over operations."""
    ops = range(len(replayer.workload.ops))

    def fastest(name: str) -> list[float]:
        per = tracer.durations(name)
        best: dict = {}
        for (replay, op), ns in per.items():
            if isinstance(op, int):
                best[op] = min(best.get(op, math.inf), ns)
        return [best[op] for op in ops if op in best]

    def median_ms(name: str) -> float:
        values = fastest(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def tally_us(name: str) -> tuple[int, float]:
        """(calls in one replay, median over operations of the fastest
        replay's time per call in us)."""
        calls = 0
        best: dict = {}
        for (tname, replay, op), (n, ns) in tracer.tallies.items():
            if tname == name and isinstance(op, int):
                calls += n if replay == 0 else 0
                best[op] = min(best.get(op, math.inf), ns / n)
        return calls, statistics.median(best.values()) / 1e3 if best else 0.0

    serve = fastest("server.serve")
    pools = [e for replay, op, e in tracer.extras("server.build_pool") if replay == 0]
    scanned = sum(e["scanned"] for e in pools)
    candidates = sum(e["candidates"] for e in pools)
    n_ad_ops = sum(op["kind"] == "ad" for op in replayer.workload.ops) or 1
    loads = tracer.durations("server.load_state").values()
    # http.self: the client's round trip minus the time spent in serve and
    # record_event for the same operation, fastest replay per operation.
    inner = tracer.durations("server.serve")
    for key, ns in tracer.durations("server.record_event").items():
        inner[key] = inner.get(key, 0) + ns
    http_self: dict = {}
    for (replay, op), rtt in replayer.rtts.items():
        value = rtt * 1e9 - inner.get((replay, op), 0)
        http_self[op] = min(http_self.get(op, math.inf), value)
    predict_calls, predict_us = tally_us("regression.predict")
    return {
        "server.load_state_s": min(loads) / 1e9 if loads else 0.0,
        "server.serve_ms.p50": statistics.median(serve) / 1e6 if serve else 0.0,
        "server.serve_ms.p99": percentile(serve, 0.99) / 1e6 if serve else 0.0,
        "server.build_pool_ms": median_ms("server.build_pool"),
        "server.select_by_ctr_ms": median_ms("server.select_by_ctr"),
        "server.select_by_bid_ms": median_ms("server.select_by_bid"),
        "server.bucket_ads": scanned / n_ad_ops,
        "server.pool_candidates": candidates / n_ad_ops,
        "server.pool_yield": candidates / scanned if scanned else 0.0,
        "regression.predict_calls": predict_calls / n_ad_ops,
        "regression.predict_us": predict_us,
        "keywords.resolve_page_value_us": tally_us("keywords.resolve_page_value")[1],
        "server.to_json_us": tally_us("server.to_json")[1],
        "server.record_event_ms": median_ms("server.record_event"),
        "http.self_ms": statistics.median(http_self.values()) / 1e6 if http_self else 0.0,
    }
