#!/usr/bin/env python3
"""Time the steps of loading a serving snapshot, in one process.

Drives `load_steps`, the server's loader, one step at a time, as the
server's loop runs a `POST /reload`, and prints one JSON line. Each load is
beside the live snapshot it replaces, and the catalog's bytes alternate
between two versions (one more trailing newline or not), so that every
load parses it. Of the fastest of --repeats such loads: `<stage>_ms` is the
time of the steps that yielded that stage's name (for example `read_ms`, the
catalog's read and its digest), `build_ms` that of the last step, which
reads the model and the map (their bytes unchanged, so the live snapshot's
pair is taken unparsed) and builds the snapshot, `load_ms` that of the whole
load (the sum of those) and `steps` its number of steps. `max_step_ms` is
the median, over the --repeats loads, of the longest step of each.
`reload_same_ms` is the fastest of --repeats loads in which the catalog, the
model and the map all hold the bytes of the live snapshot's, and
`reload_model_ms` the fastest of --repeats in which only the model's bytes
differ (one more trailing newline or not); without --model nothing differs
there either. `ads` is the number of ads in the catalog. Times are in ms.

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
        same = [timed_load(config, live)[1] for _ in range(args.repeats)]
        runs = {}
        for name in ("model_path", "catalog_path"):  # the model's bytes change, then the catalog's
            if getattr(config, name):
                path = Path(shutil.copy(getattr(config, name), Path(scratch) / name))
                setattr(config, name, str(path))
                data, runs[name] = path.read_bytes(), []
                for n in range(args.repeats):
                    path.write_bytes((data + b"\n", data)[n % 2])
                    live, times = timed_load(config, live)
                    runs[name].append(times)
    loads = runs["catalog_path"]
    fastest = min(loads, key=total_ms)
    result = {}
    for stage, ms in fastest:
        result[f"{stage}_ms"] = result.get(f"{stage}_ms", 0.0) + ms
    result.update(load_ms=total_ms(fastest), steps=len(fastest),
                  max_step_ms=statistics.median(max(ms for _, ms in times) for times in loads),
                  reload_same_ms=min(map(total_ms, same)),
                  reload_model_ms=min(map(total_ms, runs.get("model_path", same))),
                  ads=len(live.ad_ids))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
