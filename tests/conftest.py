import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ctrserve import sample_data
from ctrserve.catalog import EventRow, Placement, RequestContext


@pytest.fixture(scope="session")
def table6_rows():
    return sample_data.training_sample()


@pytest.fixture(scope="session")
def table9_rows():
    return sample_data.validation_sample()


@pytest.fixture(scope="session")
def table10_pairs():
    return sample_data.validation_pairs()


@pytest.fixture(scope="session")
def sports_map():
    return sample_data.sports_keyword_map()


@pytest.fixture(scope="session")
def paper_model():
    return sample_data.normal_equation_model()


def make_context(placement=Placement.ABOVE_FOLD, size="300x250",
                 category="sports", keywords=("football",), country="PK"):
    return RequestContext(placement=placement, size=size, category=category,
                          page_keywords=frozenset(keywords), country=country)


def make_event(ad_id="a1", clicked=False, timestamp=1, placement=Placement.ABOVE_FOLD,
               size="300x250", category="sports", keywords=("football",), country="PK"):
    """An event row as the server writes it."""
    return EventRow(timestamp=timestamp, ad_id=ad_id, placement=placement, size=size,
                    category=category, keywords=";".join(sorted(keywords)), country=country,
                    city="", area="", ip="", browser="", clicked=clicked)


def weighted(txns):
    """Keyword transactions in the form `count_cooccurrences` takes: each
    distinct keyword set with how often it occurs."""
    return Counter(frozenset(t) for t in txns)


def map_for_category(tmp_path, category):
    """The bundled sports map, written to `tmp_path` with another category."""
    payload = json.loads(sample_data._read("keyword_map_sports.json"))
    payload["category"] = category
    path = tmp_path / f"map_{category}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def unresolvable_map(kind):
    """The bundled sports map edited so that it could not resolve a page as
    written: "no centroids", "centroid without value", "unnormalized key"
    (keys no normalized page keyword can match), or a non-finite value given
    as its float() spelling ("nan", "inf")."""
    payload = json.loads(sample_data._read("keyword_map_sports.json"))
    if kind == "no centroids":
        payload["centroids"] = []
    elif kind == "centroid without value":
        payload["centroids"] = ["curling"]
    elif kind == "unnormalized key":
        payload["centroids"] = ["Football", "Cricket "]
        payload["values"] = {"Football": 50, "Cricket ": 60}
        payload["cluster_of"] = {c: c for c in payload["centroids"]}
    else:
        payload["values"][next(iter(payload["values"]))] = float(kind)
    return json.dumps(payload)
