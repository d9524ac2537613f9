"""Command-line entry point orchestrating the full pipeline:
simulate -> map-keywords -> train -> evaluate -> predict / serve."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# The HTTP server is imported by `serve` alone, and numpy only by the fitting
# functions that `train` calls, so that the other commands do not pay for
# loading them.
from . import keywords
from .catalog import (PAIRS_TABLE_HEADER, TRAINING_TABLE_HEADER, PLACEMENTS, keyword_set,
                      open_text, page_keywords, parse_ad_catalog, parse_pairs_table,
                      parse_training_table, tally_event_log)
from .errors import CtrServeError, ParseError
from .features import aggregate_events, encode_placement, encode_size


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. Each command declares only the flags it
    reads, and argparse requires those it cannot run without."""
    parser = argparse.ArgumentParser(prog="ctrserve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-keywords", help="mine a keyword->value map from an event log")
    p.add_argument("--data", required=True, help="event log CSV")
    p.add_argument("--out", required=True, help="keyword map JSON file to write")
    p.add_argument("--category", default="sports")
    p.add_argument("--k", type=int, default=3, help="number of centroids")

    p = sub.add_parser("train", help="fit the CTR model")
    p.add_argument("--data", required=True, help="event log or training table CSV")
    p.add_argument("--ads", help="ad catalog JSON file (with an event log)")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (with an event log)")
    p.add_argument("--out", required=True, help="model JSON file to write")
    p.add_argument("--method", choices=["gd", "normal"], default="gd")

    p = sub.add_parser("predict", help="predict CTR for one request")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (for a keyword token)")
    p.add_argument("placement", choices=PLACEMENTS)
    p.add_argument("size")
    p.add_argument("bid", type=float)
    p.add_argument("keyword", help="numeric keyword value, or a token resolved via --map")

    p = sub.add_parser("evaluate", help="score a model on a validation CSV")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--data", required=True, help="training table or (y, y_pred) pairs CSV")
    p.add_argument("--out", help="report JSON file to write")

    p = sub.add_parser("serve", help="run the ad-selection HTTP service")
    p.add_argument("--ads", required=True, help="ad catalog JSON file")
    p.add_argument("--model", help="model JSON file (for ctr mode)")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (for ctr mode)")
    p.add_argument("--out", help="event log CSV to append to (default events.csv)")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--mode", choices=["bid", "ctr"], default="bid")

    p = sub.add_parser("simulate", help="generate a seeded synthetic event log")
    p.add_argument("--out", required=True, help="directory to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=10000)

    return parser


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, ""):
            flag = "--map" if name == "map_path" else "--" + name
            raise CtrServeError(f"missing required flag {flag}")


@contextmanager
def _open_csv(path: str):
    """The CSV file at `path` and its first row, read by CSV rules, the file
    left at its start. newline="" keeps a carriage return inside a quoted
    field as it was written."""
    with open_text(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), [])
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ParseError(f"{path} header: {exc}") from exc
        fh.seek(0)
        yield fh, header


def _load_transactions(path: str, category: str) -> Counter:
    """Keyword transactions of `category` in one pass over the log, as a
    Counter of keyword sets. Every row is validated, whatever its category;
    each distinct `keywords` field is tokenized once."""
    with open_text(path, newline="") as fh:
        tally = tally_event_log(fh)
    fields = Counter()
    for (_, _, _, row_category, field, _), (count, _) in tally.items():
        if row_category == category:
            fields[field] += count
    transactions = Counter()
    for field, n in fields.items():
        tokens = page_keywords(field)
        if tokens:
            transactions[tokens] += n
    return transactions


def _load_training_rows(args, keyword_map):
    """--data is either a pre-aggregated training CSV or a raw event log
    (detected by header); the latter needs --map and --ads, and its tally
    is folded into groups."""
    with _open_csv(args.data) as (fh, header):
        if header == TRAINING_TABLE_HEADER:
            return parse_training_table(fh)
        _require(args, "map_path", "ads")
        with open_text(args.ads) as ads:
            bids = {ad.ad_id: ad.bid for ad in parse_ad_catalog(ads)}
        return aggregate_events(tally_event_log(fh, bids=bids), bids, keyword_map)


def cmd_map_keywords(args) -> int:
    transactions = _load_transactions(args.data, args.category)
    if not transactions:
        raise CtrServeError(f"no transactions for category {args.category!r} in {args.data}")
    stats = keywords.count_cooccurrences(transactions, args.category)
    keyword_map = keywords.build_keyword_map(stats, args.k)
    Path(args.out).write_text(keywords.save_keyword_map(keyword_map))
    print(f"centroids: {', '.join(keyword_map.centroids)}")
    for c in keyword_map.centroids:
        size = sum(1 for v in keyword_map.cluster_of.values() if v == c)
        print(f"cluster {c}: {size} keywords")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    from . import regression

    keyword_map = None
    if args.map_path:
        with open_text(args.map_path) as fh:
            keyword_map = keywords.load_keyword_map(fh)
    rows = _load_training_rows(args, keyword_map)
    method = regression.GRADIENT_DESCENT if args.method == "gd" else regression.NORMAL_EQUATION
    model = regression.train(rows, keyword_map, regression.TrainingConfig(method=method))
    Path(args.out).write_text(regression.save_model(model))
    print(f"theta: {list(model.theta)}")
    if model.cost_trace:
        trace_path = args.out + ".trace.csv"
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost"])
            writer.writerows(enumerate(model.cost_trace, start=1))
        print(f"final cost: {model.cost_trace[-1]}")
        print(f"trace: {trace_path}")
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    from . import regression

    with open_text(args.model) as fh:
        model = regression.load_model(fh)
    if args.map_path:
        with open_text(args.map_path) as fh:
            keyword_map = keywords.load_keyword_map(fh)
        regression.check_keyword_map(model, args.model, keyword_map, args.map_path)
    try:
        kw_value = float(args.keyword)
    except ValueError:
        _require(args, "map_path")
        kw_value = keywords.resolve_page_value(keyword_map, keyword_set([args.keyword]))
    for name, value in (("bid", args.bid), ("keyword value", kw_value)):
        if not math.isfinite(value):
            raise CtrServeError(f"{name} must be a finite number, got {value}")
    placement_code = encode_placement(PLACEMENTS[args.placement])
    size_code = encode_size(args.size)
    ctr = regression.predict(model, (placement_code, size_code, args.bid, kw_value))
    print(repr(ctr))
    return 0


def cmd_evaluate(args) -> int:
    from . import evaluation, regression

    with open_text(args.model) as fh:
        model = regression.load_model(fh)
    with _open_csv(args.data) as (fh, header):
        if header == PAIRS_TABLE_HEADER:  # a stored (observed, predicted) table is replayed
            report = evaluation.summarize(*parse_pairs_table(fh))
        else:
            report = evaluation.evaluate(model, parse_training_table(fh))
    r2 = evaluation.defined_r_squared(report)
    print(f"SE: {report.se}")
    print(f"R2: {r2}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    from . import server

    config = server.ServerConfig(
        catalog_path=args.ads, model_path=args.model, map_path=args.map_path,
        event_log_path=args.out, port=args.port, default_mode=args.mode)
    srv = server.AdServer(config)
    try:
        port = srv.start()
        print(f"serving on port {port} (mode {config.default_mode})", flush=True)
        threading.Event().wait()  # until Ctrl-C; the server runs on its own thread
    except KeyboardInterrupt:
        pass
    finally:
        srv.stop()
    return 0


def cmd_simulate(args) -> int:
    from . import simulate

    config = simulate.SimulationConfig(seed=args.seed, n_events=args.events)
    output = simulate.run_simulation(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "events.csv": output.events_csv,
        "catalog.json": output.catalog_json,
        "keyword_map.json": output.map_json,
        "truth.json": output.truth_json,
    }
    for name, content in files.items():
        (out_dir / name).write_text(content)
    print(f"wrote {', '.join(str(out_dir / n) for n in files)}")
    return 0


_COMMANDS = {
    "map-keywords": cmd_map_keywords,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    # so that text the locale cannot encode still prints; stderr already does
    reconfigure = getattr(sys.stdout, "reconfigure", None)  # a StringIO stand-in has none
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CtrServeError, OSError, OverflowError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
