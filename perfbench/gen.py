"""Seeded input generator for the benchmark.

Kept apart from `ctrserve.simulate` so that a change to the simulator cannot
change a workload. Everything here is plain Python: the same (workload, seed)
pair always gives byte-identical files.

Run on its own:  python3 perfbench/gen.py --workload serve-ctr-10k --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from pathlib import Path

SIZES = ("300x250", "728x90", "160x600")
PLACEMENTS = ("above_fold", "below_fold")
COUNTRIES = ("PK", "US", "GB", "DE", "FR")
BROWSERS = ("chrome", "firefox", "safari")

# Each category has its own vocabulary; only sports is covered by the keyword
# map, so health pages resolve through the map's `fallback` value.
VOCAB = {
    "sports": ("football", "soccer", "epl", "ronaldo", "cricket", "afridi",
               "pakistan", "tennis", "federer", "nadal"),
    "health": ("fitness", "diet", "yoga", "vitamins", "running", "sleep",
               "cardio", "nutrition"),
    "news": ("election", "economy", "weather", "markets", "policy", "court"),
    "autos": ("sedan", "suv", "hybrid", "tyres", "engine", "dealer"),
    "travel": ("flights", "hotels", "beach", "visa", "cruise", "hiking"),
}
# Tokens no ad carries: a page made only of these has an empty pool.
OFF_VOCAB = ("gardening", "knitting", "origami")

# Planted sports clusters: centroid -> [(member, inclusion probability)].
CLUSTERS = {
    "football": (("soccer", 0.6), ("epl", 0.4), ("ronaldo", 0.3)),
    "cricket": (("afridi", 0.5), ("pakistan", 0.4)),
    "tennis": (("federer", 0.5), ("nadal", 0.4)),
}

# CTR model on raw (1, placement, size code, bid, keyword value): the planted
# truth of the training log and the model the serving workloads load.
THETA = (0.02, 0.01, 0.002, 0.001, 0.0003)

CTR_ADS = 10_000
CTR_OPS = 1_000
BID_ADS = 36
BID_OPS = 2_000
TRAIN_ADS = 24
TRAIN_EVENTS = 200_000
TRAIN_BIDS = (5.0, 10.0, 20.0, 40.0)

GEO_SHARE = 0.2            # share of serving ads with a country target
NO_FILL_SHARE = 0.03       # share of serving requests with off-vocabulary pages
CLICK_SHARE = 0.03         # share of bid-events impressions posted as clicks
MALFORMED_EVERY = 400      # one JSON-array POST /event per this many operations
# The malformed body does not depend on the seed: it fails the same way in
# every run until the handler answers it.
MALFORMED_BODY = '[{"ad_id": "malformed"}]'

BASE_TIMESTAMP = 1_700_000_000_000


def planted_map() -> dict:
    """Sports keyword map in the map-file format: centroid of rank r at
    50 + 10 r, members alternately above and below it."""
    values, cluster_of = {}, {}
    for r, centroid in enumerate(CLUSTERS):
        values[centroid] = 50.0 + 10.0 * r
        cluster_of[centroid] = centroid
    for centroid, members in CLUSTERS.items():
        for i, (member, _) in enumerate(members):
            sign = 1.0 if i % 2 == 0 else -1.0
            values[member] = values[centroid] + sign * (0.5 + 0.5 * i)
            cluster_of[member] = centroid
    return {"category": "sports", "centroids": list(CLUSTERS), "values": values,
            "cluster_of": cluster_of,
            "params": {"k": len(CLUSTERS), "base": 50.0, "spacing": 10.0,
                       "spread": 5.0, "min_offset": 0.1}}


def model_file(theta) -> dict:
    return {
        "version": 1, "method": "normal_equation", "theta": list(theta),
        "schema": {"features": ["placement", "size", "bid", "keyword_value"],
                   "include_intercept": True, "size_registry": list(SIZES)},
        "scaler": None, "config": {"alpha": 0.01, "iterations": 400},
        "cost_trace": [], "keyword_map_ref": "sports",
    }


def _bid(rng: random.Random) -> float:
    return rng.randrange(50, 5001) / 100.0


def _serving_catalog(rng: random.Random, n_ads: int, categories) -> list[dict]:
    """Ad i goes to category i mod C and size (i div C) mod 3, so every
    (size, category) bucket holds n_ads / (3 C) ads, give or take one."""
    ads = []
    for i in range(n_ads):
        category = categories[i % len(categories)]
        size = SIZES[(i // len(categories)) % len(SIZES)]
        vocab = VOCAB[category]
        locations = []
        if rng.random() < GEO_SHARE:
            locations = sorted(rng.sample(COUNTRIES, rng.randint(1, 2)))
        ads.append({
            "ad_id": f"ad{i:05d}", "campaign_id": f"camp{i % 50:02d}",
            "category": category, "size": size, "bid": _bid(rng),
            "landing_page": f"https://example.com/{category}/{i}",
            "keywords": sorted(rng.sample(vocab, rng.randint(1, 4))),
            "locations": locations,
        })
    return ads


def _page(rng: random.Random, categories) -> dict:
    category = categories[rng.randrange(len(categories))]
    if rng.random() < NO_FILL_SHARE:
        keywords = sorted(rng.sample(OFF_VOCAB, rng.randint(1, 2)))
    else:
        keywords = sorted(rng.sample(VOCAB[category], rng.randint(1, 3)))
    return {
        "placement": PLACEMENTS[rng.randrange(2)], "size": SIZES[rng.randrange(3)],
        "category": category, "keywords": keywords,
        "country": COUNTRIES[rng.randrange(len(COUNTRIES))],
        "ip": f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
        "browser": BROWSERS[rng.randrange(len(BROWSERS))],
    }


def gen_serve_ctr(rng: random.Random, out: Path) -> None:
    categories = tuple(VOCAB)
    _write_json(out / "catalog.json", _serving_catalog(rng, CTR_ADS, categories))
    _write_json(out / "model.json", model_file(THETA))
    _write_json(out / "map.json", planted_map())
    ops = [{"kind": "ad", "mode": "ctr", **_page(rng, ("sports", "health"))}
           for _ in range(CTR_OPS)]
    _write_json(out / "ops.json", ops)


def gen_serve_bid(rng: random.Random, out: Path) -> None:
    """Each bid request that fills is followed by a POST /event for the ad
    the oracle says wins; the list has exactly BID_OPS operations for every
    seed, with the malformed posts at fixed positions."""
    from oracle import ServingOracle  # the winner decides which ad is posted

    categories = ("sports", "health")
    catalog = _serving_catalog(rng, BID_ADS, categories)
    _write_json(out / "catalog.json", catalog)
    _write_json(out / "model.json", model_file(THETA))
    _write_json(out / "map.json", planted_map())
    oracle = ServingOracle(out)
    ops: list[dict] = []
    while len(ops) < BID_OPS:
        if len(ops) % MALFORMED_EVERY == MALFORMED_EVERY // 2:
            ops.append({"kind": "malformed", "body": MALFORMED_BODY})
            continue
        page = _page(rng, categories)
        ops.append({"kind": "ad", "mode": "bid", **page})
        winner = oracle.answer(ops[-1])
        if winner is not None and len(ops) < BID_OPS and \
                len(ops) % MALFORMED_EVERY != MALFORMED_EVERY // 2:
            ops.append({"kind": "event", "ad_id": winner["ad_id"],
                        "clicked": rng.random() < CLICK_SHARE, **page})
    _write_json(out / "ops.json", ops)


def gen_train(rng: random.Random, out: Path) -> None:
    """A sports-only event log whose click rate follows the planted linear
    CTR over the planted keyword map."""
    keyword_values = planted_map()["values"]
    rank = list(keyword_values)  # resolution order: the first listed keyword wins
    ads = []
    centroids = list(CLUSTERS)
    for i in range(TRAIN_ADS):
        centroid = centroids[i % len(centroids)]
        ads.append({
            "ad_id": f"ad-{i:04d}", "campaign_id": f"camp-{i % 5}",
            "category": "sports", "size": SIZES[i % len(SIZES)],
            "bid": TRAIN_BIDS[rng.randrange(len(TRAIN_BIDS))],
            "landing_page": f"https://example.com/{i}",
            "keywords": sorted([centroid] + [m for m, _ in CLUSTERS[centroid]]),
            "locations": [],
        })
    _write_json(out / "catalog.json", ads)
    theta = THETA
    # Clicks are drawn by systematic sampling within each (ad, placement,
    # keyword value) cell: a running sum of click probabilities from a random
    # start emits a click each time it crosses an integer. Every cell's CTR
    # stays within 1 / impressions of its planted value, so the recovery
    # check does not fail on an unlucky seed.
    carry: dict[tuple, float] = {}
    with open(out / "events.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "ad_id", "placement", "size", "category",
                         "keywords", "country", "city", "area", "ip", "browser",
                         "clicked"])
        for i in range(TRAIN_EVENTS):
            ad = ads[rng.randrange(TRAIN_ADS)]
            above = rng.random() < 0.5
            centroid = centroids[rng.randrange(len(centroids))]
            tokens = {centroid} if rng.random() < 0.9 else set()
            for member, p in CLUSTERS[centroid]:
                if rng.random() < p:
                    tokens.add(member)
            if not tokens:
                tokens.add(centroid)
            kw_value = keyword_values[next(k for k in rank if k in tokens)]
            p_click = (theta[0] + theta[1] * above + theta[2] * (SIZES.index(ad["size"]) + 1)
                       + theta[3] * ad["bid"] + theta[4] * kw_value)
            cell = (ad["ad_id"], above, kw_value)
            total = carry.get(cell)
            if total is None:
                total = rng.random()
            total += p_click
            clicked = total >= 1.0
            carry[cell] = total - clicked
            writer.writerow([
                BASE_TIMESTAMP + i, ad["ad_id"], PLACEMENTS[0] if above else PLACEMENTS[1],
                ad["size"], "sports", ";".join(sorted(tokens)),
                COUNTRIES[rng.randrange(3)], "", "", f"10.0.0.{rng.randrange(256)}",
                BROWSERS[rng.randrange(3)], "1" if clicked else "0",
            ])
    _write_json(out / "truth.json", {"theta": list(theta)})


GENERATORS = {
    "serve-ctr-10k": gen_serve_ctr,
    "serve-bid-events": gen_serve_bid,
    "train-200k": gen_train,
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](random.Random(f"{workload}:{seed}"), out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
