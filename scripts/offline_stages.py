#!/usr/bin/env python3
"""Time the stages of `ctrserve train` on an event log, in one process.

Prints one JSON line. `tally_ms` is reading the log file as `train` reads
it (a large file in two processes); `csv_tally_ms` is the same text read
from a str, which `csv.reader` reads in one process; `aggregate_ms` folds
the tally into training rows and `fit_ms` fits them by the normal equation.
Each time is the best of --repeats runs, in ms. `keys` is the number of
distinct tallied keys and `rows` the number of event rows.

    PYTHONPATH=src python3 scripts/offline_stages.py --data events.csv \\
        --ads catalog.json --map map.json --repeats 5
"""

import argparse
import json
import sys
import time

from ctrserve.catalog import open_text, parse_ad_catalog, tally_event_log
from ctrserve.errors import CtrServeError
from ctrserve.features import aggregate_events
from ctrserve.keywords import load_keyword_map
from ctrserve.regression import NORMAL_EQUATION, TrainingConfig, train


def best_ms(repeats: int, call):
    """The fastest of `repeats` calls of `call`, in ms, and its last result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="event log CSV")
    parser.add_argument("--ads", required=True, help="ad catalog JSON file")
    parser.add_argument("--map", required=True, help="keyword map JSON file")
    parser.add_argument("--repeats", type=int, default=5, help="runs of each stage")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    def tally_file():
        with open_text(args.data) as fh:
            return tally_event_log(fh, bids=bids)

    try:
        with open_text(args.ads) as fh:
            bids = {ad.ad_id: ad.bid for ad in parse_ad_catalog(fh)}
        with open_text(args.map) as fh:
            keyword_map = load_keyword_map(fh)
        with open_text(args.data) as fh:
            text = fh.read()
        tally_ms, tally = best_ms(args.repeats, tally_file)
    except (CtrServeError, OSError) as exc:
        parser.error(str(exc))
    csv_tally_ms, csv_tally = best_ms(args.repeats, lambda: tally_event_log(text, bids=bids))
    if list(csv_tally.items()) != list(tally.items()):
        raise SystemExit("the file and the text gave different tallies")
    aggregate_ms, rows = best_ms(args.repeats, lambda: aggregate_events(tally, bids, keyword_map))
    fit_ms, _ = best_ms(args.repeats, lambda: train(rows, keyword_map,
                                                     TrainingConfig(method=NORMAL_EQUATION)))
    print(json.dumps({"tally_ms": tally_ms, "csv_tally_ms": csv_tally_ms,
                      "aggregate_ms": aggregate_ms, "fit_ms": fit_ms, "keys": len(tally),
                      "rows": sum(count for count, _ in tally.values())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
