"""Command-line entry point orchestrating the full pipeline:
simulate -> map-keywords -> train -> evaluate -> predict / serve."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# The HTTP server is imported by `serve` alone, and numpy only by the fitting
# functions that `train` calls, so that the other commands do not pay for
# loading them.
from . import keywords
from .catalog import (PAIRS_TABLE_HEADER, TRAINING_TABLE_HEADER, Placement, aggregate_events,
                      keyword_set, page_keywords, parse_ad_catalog, parse_pairs_table,
                      parse_training_table, read_event_log)
from .errors import CtrServeError

ENV_PREFIX = "CTRF_"


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser. Each command declares only the flags it
    reads; its namespace also carries `env_flags`, the actions of those
    flags, which are all that CTRF_* variables may override."""
    parser = argparse.ArgumentParser(prog="ctrserve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-keywords", help="mine a keyword->value map from an event log")
    p.add_argument("--data", help="event log CSV")
    p.add_argument("--out", help="keyword map JSON file to write")
    p.add_argument("--category", default="sports")
    p.add_argument("--k", type=int, default=3, help="number of centroids")

    p = sub.add_parser("train", help="fit the CTR model")
    p.add_argument("--data", help="event log or training table CSV")
    p.add_argument("--ads", help="ad catalog JSON file (with an event log)")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (with an event log)")
    p.add_argument("--out", help="model JSON file to write")
    p.add_argument("--method", choices=["gd", "normal"], default="gd")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=400)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--no-scaling", action="store_true")

    p = sub.add_parser("predict", help="predict CTR for one request")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (for a keyword token)")
    p.add_argument("placement", choices=[pl.value for pl in Placement])
    p.add_argument("size")
    p.add_argument("bid", type=float)
    p.add_argument("keyword", help="numeric keyword value, or a token resolved via --map")

    p = sub.add_parser("evaluate", help="score a model on a validation CSV")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--data", help="training table or (y, y_pred) pairs CSV")
    p.add_argument("--out", help="report JSON file to write")

    p = sub.add_parser("serve", help="run the ad-selection HTTP service")
    p.add_argument("--ads", help="ad catalog JSON file")
    p.add_argument("--model", help="model JSON file (for ctr mode)")
    p.add_argument("--map", dest="map_path", help="keyword map JSON file (for ctr mode)")
    p.add_argument("--out", help="event log CSV to append to (default events.csv)")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--mode", choices=["bid", "ctr"], default="bid")

    p = sub.add_parser("simulate", help="generate a seeded synthetic event log")
    p.add_argument("--out", help="directory to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=10000)
    p.add_argument("--category", default="sports")

    for p in sub.choices.values():
        p.set_defaults(env_flags=[a for a in p._actions
                                  if a.option_strings and a.default is not argparse.SUPPRESS])
    return parser


def _apply_env_overrides(args: argparse.Namespace) -> None:
    """CTRF_<DEST> overrides a flag of the chosen command (CTRF_ALPHA,
    CTRF_MAP_PATH, ...), checked like the flag: through its type and its
    choices. A switch is set by 1/true/yes and cleared by anything else."""
    for action in args.env_flags:
        name = ENV_PREFIX + action.dest.upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        if action.nargs == 0:
            value = raw.strip().lower() in ("1", "true", "yes")
        else:
            try:
                value = action.type(raw) if action.type else raw
            except ValueError:
                raise CtrServeError(f"{name}: expected {action.type.__name__}, "
                                    f"got {raw!r}") from None
            if action.choices is not None and value not in action.choices:
                raise CtrServeError(f"{name}: expected one of {', '.join(action.choices)}, "
                                    f"got {raw!r}")
        setattr(args, action.dest, value)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, ""):
            flag = "--map" if name == "map_path" else "--" + name.replace("_", "-")
            raise CtrServeError(f"missing required flag {flag}")


@contextmanager
def _open_csv(path: str):
    """The CSV file at `path` and its first row, read by CSV rules, the file
    left at its start. newline="" keeps a carriage return inside a quoted
    field as it was written."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        fh.seek(0)
        yield fh, header


def _load_transactions(path: str, category: str) -> Counter:
    """Keyword transactions of `category` in one pass over the log, as a
    Counter of keyword sets. Every row is validated, whatever its category;
    each distinct `keywords` field is tokenized once."""
    with open(path, newline="") as fh:
        fields = Counter(e.keywords for e in read_event_log(fh) if e.category == category)
    transactions = Counter()
    for field, n in fields.items():
        tokens = page_keywords(field)
        if tokens:
            transactions[tokens] += n
    return transactions


def _load_training_rows(args, keyword_map):
    """--data is either a pre-aggregated training CSV or a raw event log
    (detected by header); the latter needs --map and --ads and is folded
    into groups as it streams."""
    with _open_csv(args.data) as (fh, header):
        if header == TRAINING_TABLE_HEADER:
            return parse_training_table(fh)
        _require(args, "map_path", "ads")
        with open(args.ads) as ads:
            bids = {ad.ad_id: ad.bid for ad in parse_ad_catalog(ads)}
        return aggregate_events(read_event_log(fh, bids=bids), keyword_map)


def cmd_map_keywords(args) -> int:
    _require(args, "data", "out")
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
    from . import evaluation, regression

    _require(args, "data", "out")
    keyword_map = None
    if args.map_path:
        with open(args.map_path) as fh:
            keyword_map = keywords.load_keyword_map(fh)
    rows = _load_training_rows(args, keyword_map)
    method = regression.GRADIENT_DESCENT if args.method == "gd" else regression.NORMAL_EQUATION
    config = regression.TrainingConfig(
        method=method, alpha=args.alpha, iterations=args.iters,
        include_intercept=not args.no_intercept,
        scale_features=False if args.no_scaling else None,
    )
    model = regression.train(rows, keyword_map, config)
    Path(args.out).write_text(regression.save_model(model))
    matrix_cost = model.cost_trace[-1] if model.cost_trace else None
    print(f"theta: {list(model.theta)}")
    if matrix_cost is not None:
        trace_path = args.out + ".trace.csv"
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost"])
            writer.writerows(evaluation.export_cost_trace(model))
        print(f"final cost: {matrix_cost}")
        print(f"trace: {trace_path}")
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    from . import regression
    from .features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size

    _require(args, "model")
    with open(args.model) as fh:
        model = regression.load_model(fh)
    try:
        kw_value = float(args.keyword)
    except ValueError:
        _require(args, "map_path")
        with open(args.map_path) as fh:
            keyword_map = keywords.load_keyword_map(fh)
        kw_value = keywords.resolve_page_value(keyword_map, keyword_set([args.keyword]))
    for name, value in (("bid", args.bid), ("keyword value", kw_value)):
        if not math.isfinite(value):
            raise CtrServeError(f"{name} must be a finite number, got {value}")
    placement_code = encode_placement(Placement(args.placement))
    size_code = encode_size(args.size, DEFAULT_SIZE_REGISTRY)
    ctr = regression.predict(model, (placement_code, size_code, args.bid, kw_value))
    print(repr(ctr))
    return 0


def cmd_evaluate(args) -> int:
    from . import evaluation, regression

    _require(args, "model", "data")
    with open(args.model) as fh:
        model = regression.load_model(fh)
    with _open_csv(args.data) as (fh, header):
        if header == PAIRS_TABLE_HEADER:
            # replay a stored (observed, predicted) pair table directly
            y, y_pred = parse_pairs_table(fh)
            se = evaluation.standard_error(y, y_pred)
            r2 = evaluation.r_squared(y, y_pred)
            print(f"SE: {se}")
            print(f"R2: {r2}")
            if args.out:
                Path(args.out).write_text(json.dumps({"se": se, "r_squared": r2}, indent=2) + "\n")
            return 0
        rows = parse_training_table(fh)
    report = evaluation.evaluate(model, rows)
    print(f"SE: {report.se}")
    print(f"R2: {report.r_squared}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    from . import server

    _require(args, "ads")
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

    _require(args, "out")
    config = simulate.SimulationConfig(seed=args.seed, n_events=args.events,
                                       category=args.category)
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
    args = build_parser().parse_args(argv)
    try:
        _apply_env_overrides(args)
        return _COMMANDS[args.command](args)
    except (CtrServeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
