#!/usr/bin/env python3
"""Time the steps of loading a serving snapshot, in one process.

Drives `load_steps`, the server's loader, one step at a time, as the
server's loop runs a `POST /reload`, and prints one JSON line. Each load is
beside the live snapshot it replaces, and the catalog's bytes alternate
between two versions (one more trailing newline or not), so that every
load parses it. Of the fastest of --repeats such loads: `<stage>_ms` is the
time of the steps that yielded that stage's name (for example `read_ms`, the
catalog's read and its digest), `build_ms` that of the last step, which
builds the snapshot with the model and the map, `load_ms` that of the whole
load (the sum of those) and `steps` its number of steps. `max_step_ms` is
the median, over the --repeats loads, of the longest step of each.
`reload_same_ms` is the fastest of --repeats loads beside a live snapshot of
the same catalog bytes, as a `POST /reload` with only the model or the map
changed runs it. `ads` is the number of ads in the catalog. Times are in ms.

    PYTHONPATH=src python3 scripts/load_stages.py --ads catalog.json \\
        --model model.json --map map.json --repeats 11
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ctrserve.errors import CtrServeError
from ctrserve.server import ServerConfig, load_state, load_steps


def timed_load(config: ServerConfig, live):
    """The snapshot of one load beside `live`, and the stage and time in ms
    of each of its steps; the last step's stage is "build"."""
    times, start = [], time.perf_counter()
    for step in load_steps(config, live):
        ms = (time.perf_counter() - start) * 1e3
        times.append((step if isinstance(step, str) else "build", ms))
        start = time.perf_counter()
    return step, times


def total_ms(times) -> float:
    return sum(ms for _, ms in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ads", required=True, help="ad catalog JSON file")
    parser.add_argument("--model", help="model JSON file (with --map)")
    parser.add_argument("--map", help="keyword map JSON file (with --model)")
    parser.add_argument("--repeats", type=int, default=11, help="loads of each kind")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if (args.model is None) != (args.map is None):
        parser.error("--model and --map go together")
    config = ServerConfig(catalog_path=args.ads, model_path=args.model, map_path=args.map)
    try:
        live = load_state(config)
    except (CtrServeError, OSError) as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory() as scratch:
        config.catalog_path = shutil.copy(args.ads, scratch)
        path = Path(config.catalog_path)
        data = path.read_bytes()
        same = [timed_load(config, live)[1] for _ in range(args.repeats)]
        loads = []
        for n in range(args.repeats):
            path.write_bytes((data + b"\n", data)[n % 2])
            live, times = timed_load(config, live)
            loads.append(times)
    fastest = min(loads, key=total_ms)
    result = {}
    for stage, ms in fastest:
        result[f"{stage}_ms"] = result.get(f"{stage}_ms", 0.0) + ms
    result.update(load_ms=total_ms(fastest), steps=len(fastest),
                  max_step_ms=statistics.median(max(ms for _, ms in times) for times in loads),
                  reload_same_ms=min(map(total_ms, same)), ads=len(live.ad_ids))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
