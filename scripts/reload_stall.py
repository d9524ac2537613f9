#!/usr/bin/env python3
"""Measure how long GET /ad requests wait while the server reloads.

Starts `ctrserve serve` on the given files as a child process and runs one
closed-loop /ad client against it, its queries made from the catalog's own
ads, while a second thread posts /reload every 0.25 s. The server reads a
copy of the catalog that is rewritten before each reload, alternately with
and without one more trailing newline, so that no reload finds its bytes
unchanged and every reload parses the catalog. Prints one JSON line:
the /reload round trip (min and median), how many requests overlapped a
reload, how many of those took over 1, 10 and 20 ms, the longest of them,
and the 99.9th percentile of the requests outside reloads. Times are in ms.

    PYTHONPATH=src python3 scripts/reload_stall.py --ads catalog.json \\
        --model model.json --map map.json --seconds 6

With --model and --map the server ranks by ctr, otherwise by bid. Input
files that the server's loaders refuse are refused with their error before
the server starts.
"""

import argparse
import bisect
import json
import math
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

from ctrserve.catalog import open_text, parse_ad_catalog
from ctrserve.errors import CtrServeError
from ctrserve.regression import load_model_and_map

RELOAD_EVERY_S = 0.25
MAX_QUERIES = 1000


def ad_targets(ads_path: str) -> list[bytes]:
    """One GET /ad request for each of the catalog's first MAX_QUERIES ads,
    for its size and category and up to two of its keywords. A catalog that
    `parse_ad_catalog` refuses raises its error."""
    with open_text(ads_path) as fh:
        ads = parse_ad_catalog(fh)[:MAX_QUERIES]
    return [("GET /ad?" + urlencode({
        "size": ad.size, "category": ad.category,
        "keywords": ",".join(sorted(ad.keywords)[:2])}) + " HTTP/1.0\r\n\r\n").encode()
            for ad in ads]


def timed(port: int, request: bytes, expect: tuple[bytes, ...]) -> tuple[float, float]:
    """Send one request and read its response to the close; returns when
    it started and ended."""
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        response = b"".join(iter(lambda: sock.recv(65536), b""))
    end = time.perf_counter()
    if not response.startswith(expect):
        raise RuntimeError(f"unexpected response {response[:200]!r}")
    return start, end


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank q-th percentile; 0.0 of no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


def measure(port: int, targets: list[bytes], seconds: float, catalog: Path,
            versions: tuple[bytes, bytes]) -> dict:
    """Before each reload, `catalog` is rewritten with the next of `versions`
    in turn; the server starts on the second."""
    stop = time.perf_counter() + seconds
    reloads: list[tuple[float, float]] = []

    def reload_loop():
        while (now := time.perf_counter()) < stop:
            catalog.write_bytes(versions[len(reloads) % 2])
            reloads.append(timed(port, b"POST /reload HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
                                 (b"HTTP/1.0 200",)))
            time.sleep(max(0.0, now + RELOAD_EVERY_S - time.perf_counter()))

    thread = threading.Thread(target=reload_loop)
    thread.start()
    requests = []
    try:
        while time.perf_counter() < stop:
            requests.append(timed(port, targets[len(requests) % len(targets)],
                                  (b"HTTP/1.0 200", b"HTTP/1.0 204")))
    finally:
        thread.join()
    starts = [start for start, _ in reloads]
    overlapping, outside = [], []
    for start, end in requests:
        # Reloads run one at a time, so of those that began before the request
        # ended, only the last can still have been running when it began.
        i = bisect.bisect_left(starts, end)
        hit = i > 0 and reloads[i - 1][1] > start
        (overlapping if hit else outside).append((end - start) * 1000)
    reload_ms = [(end - start) * 1000 for start, end in reloads]
    return {
        "seconds": seconds,
        "requests": len(requests),
        "reloads": len(reloads),
        "reload_ms_min": min(reload_ms, default=0.0),
        "reload_ms_median": statistics.median(reload_ms) if reload_ms else 0.0,
        "overlapping": len(overlapping),
        "overlapping_over_1ms": sum(ms > 1 for ms in overlapping),
        "overlapping_over_10ms": sum(ms > 10 for ms in overlapping),
        "overlapping_over_20ms": sum(ms > 20 for ms in overlapping),
        "overlapping_max_ms": max(overlapping, default=0.0),
        "outside_p999_ms": percentile(outside, 99.9),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ads", required=True, help="ad catalog JSON file")
    parser.add_argument("--model", help="model JSON file (with --map, for ctr mode)")
    parser.add_argument("--map", help="keyword map JSON file (with --model, for ctr mode)")
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if (args.model is None) != (args.map is None):
        parser.error("--model and --map go together")
    try:
        targets = ad_targets(args.ads)
        load_model_and_map(args.model, args.map)
        data = Path(args.ads).read_bytes()
    except (CtrServeError, OSError) as exc:
        parser.error(str(exc))
    if not targets:
        parser.error(f"{args.ads} holds no ads to request")
    with tempfile.TemporaryDirectory() as scratch:
        catalog = Path(scratch) / "catalog.json"
        catalog.write_bytes(data)
        command = [sys.executable, "-m", "ctrserve.cli", "serve", "--ads", str(catalog),
                   "--port", "0", "--out", str(Path(scratch) / "events.csv")]
        if args.model and args.map:
            command += ["--model", args.model, "--map", args.map, "--mode", "ctr"]
        server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = server.stdout.readline()
            if not line.startswith("serving on port "):
                raise SystemExit(f"serve did not start: {line!r}")
            result = measure(int(line.split()[3]), targets, args.seconds, catalog,
                             (data + b"\n", data))
        finally:
            server.send_signal(signal.SIGINT)
            server.communicate(timeout=30)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
