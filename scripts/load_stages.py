#!/usr/bin/env python3
"""Time the stages of loading a serving snapshot, in one process.

Prints one JSON line. `read_ms` is opening the catalog with `open_text`
and reading its text; `json_ms` is `json.loads` of that text; `parse_ms`
is `parse_ad_catalog` of it (the JSON decode included); `state_ms` builds
`ServingState` from the parsed ads (and the model and map, if given);
`load_state_ms` is the whole `load_state`, as server start-up and a
`POST /reload` whose catalog changed run it; `reload_same_ms` is
`load_state` beside a live snapshot of the same catalog bytes, as a
`POST /reload` with only the model or the map changed runs it. Each time
is the best of --repeats runs, in ms, with the cyclic collector paused as
`load_state` pauses it. `max_step_ms` is the median, over --repeats loads,
of the longest single `load_steps` step, as the server's loop runs them on
a `POST /reload`: each load is beside the live snapshot it replaces, and
the catalog's bytes alternate between two versions (one more trailing
newline or not), so that every load parses it. `ads` is the number of ads
in the catalog.

    PYTHONPATH=src python3 scripts/load_stages.py --ads catalog.json \\
        --model model.json --map map.json --repeats 11
"""

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ctrserve.catalog import open_text, parse_ad_catalog
from ctrserve.regression import load_model_and_map
from ctrserve.server import ServerConfig, ServingState, load_state, load_steps


def best_ms(repeats: int, call):
    """The fastest of `repeats` calls of `call`, in ms, and its last result."""
    best = float("inf")
    for _ in range(repeats):
        gc.disable()
        try:
            start = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best * 1e3, result


def max_step_ms(config: ServerConfig, repeats: int) -> float:
    """The median over `repeats` loads of the longest step of each, in ms.
    The catalog at `config.catalog_path` is rewritten before each load."""
    path = Path(config.catalog_path)
    data = path.read_bytes()
    versions = (data + b"\n", data)
    live, longest = load_state(config), []
    for n in range(repeats):
        path.write_bytes(versions[n % 2])
        steps, step, step_ms = load_steps(config, live), None, []
        while step is None:
            start = time.perf_counter()
            step = next(steps)
            step_ms.append(time.perf_counter() - start)
        live = step
        longest.append(max(step_ms) * 1e3)
    return statistics.median(longest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ads", required=True, help="ad catalog JSON file")
    parser.add_argument("--model", help="model JSON file (with --map)")
    parser.add_argument("--map", help="keyword map JSON file (with --model)")
    parser.add_argument("--repeats", type=int, default=11, help="runs of each stage")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if (args.model is None) != (args.map is None):
        parser.error("--model and --map go together")

    def read():
        with open_text(args.ads) as fh:
            return fh.read()

    read_ms, text = best_ms(args.repeats, read)
    json_ms, _ = best_ms(args.repeats, lambda: json.loads(text))
    parse_ms, ads = best_ms(args.repeats, lambda: parse_ad_catalog(text))
    model, keyword_map = load_model_and_map(args.model, args.map)
    catalog = tuple(ads)
    state_ms, _ = best_ms(args.repeats, lambda: ServingState(catalog=catalog, model=model,
                                                             keyword_map=keyword_map))
    config = ServerConfig(catalog_path=args.ads, model_path=args.model, map_path=args.map)
    load_state_ms, live = best_ms(args.repeats, lambda: load_state(config))
    reload_same_ms, _ = best_ms(args.repeats, lambda: load_state(config, live))
    with tempfile.TemporaryDirectory() as scratch:
        copy = ServerConfig(catalog_path=shutil.copy(args.ads, scratch), model_path=args.model,
                            map_path=args.map)
        step_ms = max_step_ms(copy, args.repeats)
    print(json.dumps({"read_ms": read_ms, "json_ms": json_ms, "parse_ms": parse_ms,
                      "state_ms": state_ms, "load_state_ms": load_state_ms,
                      "reload_same_ms": reload_same_ms, "max_step_ms": step_ms,
                      "ads": len(ads)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
