"""Memory of a serving snapshot: what a load retains, and what a reload frees.

The catalogs are generated here, seeded, in the make-up of a production
catalog: many ads over a few (size, category) buckets, keyword sets drawn
from a small vocabulary per category and a fifth of the ads targeting
countries.
"""

import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from ctrserve import sample_data
from ctrserve.errors import ParseError
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from ctrserve.server import AdServer, ServerConfig, load_state

VOCAB = {
    "sports": ("football", "soccer", "epl", "ronaldo", "cricket", "afridi", "pakistan",
               "tennis", "federer", "nadal"),
    "health": ("fitness", "diet", "yoga", "vitamins", "running", "sleep", "cardio",
               "nutrition"),
    "news": ("election", "economy", "weather", "markets", "policy", "court"),
    "autos": ("sedan", "suv", "hybrid", "tyres", "engine", "dealer"),
    "travel": ("flights", "hotels", "beach", "visa", "cruise", "hiking"),
}
COUNTRIES = ("PK", "US", "GB", "DE", "FR")


def catalog_records(n_ads: int, seed: int) -> list[dict]:
    """Ad i goes to category i mod 5 and size (i div 5) mod 3, bids 0.50 to
    50.00, 1 to 4 keywords of its category and, for a fifth of the ads, 1 or
    2 target countries. Ten thousand ads hold about 700 distinct keyword
    sets."""
    rng = random.Random(seed)
    categories = list(VOCAB)
    records = []
    for i in range(n_ads):
        category = categories[i % len(categories)]
        locations = []
        if rng.random() < 0.2:
            locations = sorted(rng.sample(COUNTRIES, rng.randint(1, 2)))
        records.append({
            "ad_id": f"ad{i:05d}", "campaign_id": f"camp{i % 50:02d}", "category": category,
            "size": DEFAULT_SIZE_REGISTRY[(i // len(categories)) % len(DEFAULT_SIZE_REGISTRY)],
            "bid": rng.randrange(50, 5001) / 100, "landing_page": f"https://example.com/{i}",
            "keywords": sorted(rng.sample(VOCAB[category], rng.randint(1, 4))),
            "locations": locations,
        })
    return records


def config_for(tmp_path, records) -> ServerConfig:
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(records, indent=1))
    return ServerConfig(catalog_path=str(path),
                        model_path=sample_data.fixture_path("model_normal_eq.json"),
                        map_path=sample_data.fixture_path("keyword_map_sports.json"),
                        event_log_path=str(tmp_path / "events.csv"), port=0)


def test_a_loaded_10k_catalog_retains_at_most_5_mb(tmp_path):
    """Measured on Python 3.11.7: a snapshot of this catalog retains 3.5 MB
    where one that held a keyword set, a location set and an instance dict
    per ad retained 10.7 MB."""
    config = config_for(tmp_path, catalog_records(10_000, seed=1))
    load_state(ServerConfig(catalog_path=sample_data.fixture_path("ad_catalog_sample.json")))
    tracemalloc.start()
    try:
        state = load_state(config)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(state.ad_ids) == 10_000
    assert retained <= 5 * 1024 * 1024


@pytest.fixture()
def server(tmp_path):
    srv = AdServer(config_for(tmp_path, catalog_records(1_000, seed=2)))
    yield srv
    srv.stop()


def test_a_hundred_reloads_free_the_snapshots_they_replace(server):
    enabled = gc.isenabled()
    gc.disable()  # an old snapshot must go by reference counting alone
    tracemalloc.start()
    try:
        server.state = load_state(server.config, server.state)
        after_first = tracemalloc.get_traced_memory()[0]
        for _ in range(99):
            server.state = load_state(server.config, server.state)
        after_last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert len(server.state.ad_ids) == 1_000
    # One snapshot of this catalog is about 450 KB. What does grow, about
    # 20 KB, is blocks that CPython keeps on its free lists for reuse.
    assert after_last - after_first < 64 * 1024


def test_a_hundred_reloads_of_a_changed_catalog_free_the_snapshots_they_replace(server):
    """As above, but the catalog's bytes change before every reload (one
    trailing newline more or less), so that each reload parses it."""
    path = Path(server.config.catalog_path)
    versions = (path.read_bytes() + b"\n", path.read_bytes())
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        parsed = []
        for n in range(100):
            if n == 1:
                after_first = tracemalloc.get_traced_memory()[0]
            path.write_bytes(versions[n % 2])
            replaced = server.state.index
            server.state = load_state(server.config, server.state)
            parsed.append(server.state.index is not replaced)
            del replaced
        after_last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert parsed == [True] * 100
    assert len(server.state.ad_ids) == 1_000
    assert after_last - after_first < 64 * 1024


@pytest.mark.parametrize("bad", ["invalid JSON", "bad last record", "not UTF-8"])
def test_a_failed_reload_keeps_the_old_snapshot_and_the_collector(server, tmp_path, bad):
    """POST /reload of a catalog that a load refuses answers 500 with the
    load's refusal text, and the live snapshot stays."""
    from test_http import http_post  # imported here: test_http imports this module
    records = catalog_records(1_000, seed=2)
    if bad == "bad last record":
        records[-1]["bid"] = "20"
    text = json.dumps(records).encode()
    path = tmp_path / "bad.json"
    path.write_bytes({"invalid JSON": text[:-1], "bad last record": text,
                      "not UTF-8": text.replace(b"ad00999", b"ad\xff0999")}[bad])
    snapshot = server.state
    server.config.catalog_path = str(path)
    with pytest.raises(ParseError) as err:
        load_state(server.config, snapshot)
    assert gc.isenabled()
    status, body = http_post(f"http://127.0.0.1:{server.start()}/reload")
    assert (status, json.loads(body)) == (500, {"error": str(err.value)})
    assert server.state is snapshot and gc.isenabled()
    if bad == "bad last record":
        assert str(err.value) == "catalog record 999: bid must be a number, got '20'"
    elif bad == "not UTF-8":
        assert str(path) in str(err.value)
