"""Seeded synthetic impression-log generator with a planted linear ground
truth, so every pipeline stage can be exercised at scale."""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .catalog import (EVENT_LOG_HEADER_LINE, FEATURE_NAMES, AdCreative, EventRow, Placement,
                      _Frozen, event_line, keywords_field, serialize_ad_catalog)
from .errors import CtrServeError
from .features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size
from .keywords import KeywordMap, place_values, resolve_page_value, save_keyword_map

# Planted vocabulary of CATEGORY: centroid -> [(member, inclusion probability)].
CATEGORY = "sports"
PLANTED_CLUSTERS = {
    "football": [("soccer", 0.6), ("epl", 0.4), ("ronaldo", 0.3)],
    "cricket": [("afridi", 0.5), ("pakistan", 0.4)],
    "tennis": [("federer", 0.5), ("nadal", 0.4)],
}

_BASE_TIMESTAMP = 1_700_000_000_000

N_ADS = 24
BIDS = (5.0, 10.0, 20.0, 40.0)

# The planted coefficients of raw (1, placement, size_code, bid, keyword_value),
# chosen so every click probability stays inside (0, 1).
TRUE_THETA = (0.02, 0.01, 0.002, 0.001, 0.0003)

_COUNTRIES = ["PK", "US", "GB"]
_BROWSERS = ["chrome", "firefox", "safari"]


class SimulationConfig(_Frozen):
    __slots__ = ("seed", "n_events")

    def __init__(self, seed: int, n_events: int):
        if n_events < 0:
            raise CtrServeError("n_events must be >= 0")
        super().__init__(seed, n_events)


class SimulationOutput(NamedTuple):
    catalog_json: str
    events_csv: str
    map_json: str
    truth_json: str


def planted_keyword_map() -> KeywordMap:
    """A hand-built map over the planted vocabulary, laid out by `place_values`:
    centroids at 50/60/70, each cluster's members at offsets 0.5, 1.0, 1.5.
    `values` resolves the centroids first, then each cluster's members in order."""
    clusters = {c: [(m, 0.5 + 0.5 * i) for i, (m, _) in enumerate(members)]
                for c, members in PLANTED_CLUSTERS.items()}
    cluster_of = {kw: c for c, members in PLANTED_CLUSTERS.items()
                  for kw in [c, *(m for m, _ in members)]}
    return KeywordMap(category=CATEGORY, centroids=tuple(clusters),
                      values=place_values(clusters)[0], cluster_of=cluster_of)


def _simulate_catalog(rng: random.Random) -> list[AdCreative]:
    centroids = list(PLANTED_CLUSTERS)
    ads = []
    for i in range(N_ADS):
        centroid = centroids[i % len(centroids)]
        keywords = frozenset([centroid] + [m for m, _ in PLANTED_CLUSTERS[centroid]])
        ads.append(AdCreative(
            ad_id=f"ad-{i:04d}",
            campaign_id=f"camp-{i % 5}",
            category=CATEGORY,
            size=DEFAULT_SIZE_REGISTRY[i % len(DEFAULT_SIZE_REGISTRY)],
            bid=BIDS[rng.randrange(len(BIDS))],
            landing_page=f"https://example.com/{i}",
            keywords=keywords,
        ))
    return ads


def _simulate_page_keywords(rng: random.Random, centroid: str) -> frozenset[str]:
    tokens = set()
    if rng.random() < 0.9:
        tokens.add(centroid)
    for member, p in PLANTED_CLUSTERS[centroid]:
        if rng.random() < p:
            tokens.add(member)
    if not tokens:
        tokens.add(centroid)
    return frozenset(tokens)


def run_simulation(config: SimulationConfig) -> SimulationOutput:
    """Deterministic for a given config: identical seeds give byte-identical
    outputs. Clicks are Bernoulli draws from the planted linear model."""
    rng = random.Random(config.seed)
    keyword_map = planted_keyword_map()
    ads = _simulate_catalog(rng)
    centroids = list(PLANTED_CLUSTERS)
    lines = [EVENT_LOG_HEADER_LINE]
    for i in range(config.n_events):
        ad = ads[rng.randrange(len(ads))]
        placement = Placement.ABOVE_FOLD if rng.random() < 0.5 else Placement.BELOW_FOLD
        centroid = centroids[rng.randrange(len(centroids))]
        page_keywords = _simulate_page_keywords(rng, centroid)
        # the rng draws keep the order country, ip, browser, click: outputs depend on it
        country = _COUNTRIES[rng.randrange(len(_COUNTRIES))]
        ip = f"10.0.0.{rng.randrange(256)}"
        browser = _BROWSERS[rng.randrange(len(_BROWSERS))]
        kw_value = resolve_page_value(keyword_map, page_keywords)
        x = (1.0, float(encode_placement(placement)), float(encode_size(ad.size)), ad.bid,
             kw_value)
        p_click = sum(t * xi for t, xi in zip(TRUE_THETA, x))
        lines.append(event_line(EventRow(
            timestamp=_BASE_TIMESTAMP + i, ad_id=ad.ad_id, placement=placement, size=ad.size,
            category=CATEGORY, keywords=keywords_field(page_keywords), country=country,
            city="", area="", ip=ip, browser=browser, clicked=rng.random() < p_click)))
    truth = {
        "seed": config.seed,
        "n_events": config.n_events,
        "true_theta": list(TRUE_THETA),
        "feature_order": ["intercept", *FEATURE_NAMES],
    }
    return SimulationOutput(
        catalog_json=serialize_ad_catalog(ads),
        events_csv="".join(lines),
        map_json=save_keyword_map(keyword_map),
        truth_json=json.dumps(truth, indent=2) + "\n",
    )
