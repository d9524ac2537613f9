"""Seeded synthetic impression-log generator with a planted linear ground
truth, so every pipeline stage can be exercised at scale."""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

from .catalog import (EVENT_LOG_HEADER, AdCreative, EventRow, Placement, keywords_field,
                      serialize_ad_catalog, write_event_row)
from .errors import CtrServeError
from .features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size
from .keywords import KeywordMap, resolve_page_value, save_keyword_map

# Planted sports vocabulary: centroid -> [(member, inclusion probability)].
PLANTED_CLUSTERS = {
    "football": [("soccer", 0.6), ("epl", 0.4), ("ronaldo", 0.3)],
    "cricket": [("afridi", 0.5), ("pakistan", 0.4)],
    "tennis": [("federer", 0.5), ("nadal", 0.4)],
}

_BASE_TIMESTAMP = 1_700_000_000_000

_COUNTRIES = ["PK", "US", "GB"]
_BROWSERS = ["chrome", "firefox", "safari"]


@dataclass(frozen=True)
class SimulationConfig:
    seed: int
    n_events: int
    category: str = "sports"
    n_ads: int = 24
    bids: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)
    # true_theta applies to raw (1, placement, size_code, bid, keyword_value);
    # chosen so every click probability stays inside (0, 1).
    true_theta: tuple[float, ...] = (0.02, 0.01, 0.002, 0.001, 0.0003)

    def __post_init__(self):
        if self.n_events < 0 or self.n_ads <= 0:
            raise CtrServeError("n_events must be >= 0 and n_ads > 0")


@dataclass(frozen=True)
class SimulationOutput:
    catalog_json: str
    events_csv: str
    map_json: str
    truth_json: str


def planted_keyword_map(category: str = "sports") -> KeywordMap:
    """A hand-built map over the planted vocabulary; centroids sit at the
    usual 50/60/70 bases and members nearby. `values` resolves the
    centroids first, then each cluster's members in order."""
    centroids = tuple(PLANTED_CLUSTERS)
    values = {c: 50.0 + 10.0 * r for r, c in enumerate(centroids)}
    cluster_of: dict[str, str] = {}
    for c in centroids:
        cluster_of[c] = c
        for i, (member, _) in enumerate(PLANTED_CLUSTERS[c]):
            sign = 1.0 if i % 2 == 0 else -1.0
            values[member] = values[c] + sign * (0.5 + 0.5 * i)
            cluster_of[member] = c
    return KeywordMap(category=category, centroids=centroids, values=values,
                      cluster_of=cluster_of)


def _simulate_catalog(rng: random.Random, config: SimulationConfig) -> list[AdCreative]:
    centroids = list(PLANTED_CLUSTERS)
    ads = []
    for i in range(config.n_ads):
        centroid = centroids[i % len(centroids)]
        keywords = frozenset([centroid] + [m for m, _ in PLANTED_CLUSTERS[centroid]])
        ads.append(AdCreative(
            ad_id=f"ad-{i:04d}",
            campaign_id=f"camp-{i % 5}",
            category=config.category,
            size=DEFAULT_SIZE_REGISTRY[i % len(DEFAULT_SIZE_REGISTRY)],
            bid=config.bids[rng.randrange(len(config.bids))],
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
    keyword_map = planted_keyword_map(config.category)
    ads = _simulate_catalog(rng, config)
    theta = config.true_theta
    centroids = list(PLANTED_CLUSTERS)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(EVENT_LOG_HEADER)
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
        x = (1.0, float(encode_placement(placement)),
             float(encode_size(ad.size, DEFAULT_SIZE_REGISTRY)), ad.bid, kw_value)
        p_click = sum(t * xi for t, xi in zip(theta, x))
        if not 0.0 < p_click < 1.0:
            raise CtrServeError(f"planted click probability {p_click} left (0,1); "
                                "adjust true_theta")
        write_event_row(writer, EventRow(
            timestamp=_BASE_TIMESTAMP + i, ad_id=ad.ad_id, placement=placement, size=ad.size,
            category=config.category, keywords=keywords_field(page_keywords), country=country,
            city="", area="", ip=ip, browser=browser, clicked=rng.random() < p_click,
            served_bid=ad.bid))
    truth = {
        "seed": config.seed,
        "n_events": config.n_events,
        "true_theta": list(theta),
        "feature_order": ["intercept", "placement", "size", "bid", "keyword_value"],
    }
    return SimulationOutput(
        catalog_json=serialize_ad_catalog(ads),
        events_csv=buf.getvalue(),
        map_json=save_keyword_map(keyword_map),
        truth_json=json.dumps(truth, indent=2) + "\n",
    )
