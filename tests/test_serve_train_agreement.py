"""Serving and training value a request the same way (Breck et al., "The ML
test score": training and serving features compute the same values). A log
that a ctr-mode server wrote trains on the features `serve` computed for its
events, and `predict` scores a request as `serve` does."""

import json
import random
from urllib.parse import urlencode

import pytest

from conftest import make_context
from ctrserve import cli, sample_data, server
from ctrserve.catalog import Placement, parse_ad_catalog, serialize_ad_catalog
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from test_http import http_get, http_post
from test_server import VOCAB, random_catalog, random_request

MODEL = sample_data.fixture_path("model_normal_eq.json")
MAP = sample_data.fixture_path("keyword_map_sports.json")


@pytest.fixture()
def ctr_server(tmp_path):
    """A ctr-mode server on the bundled model and map and a seeded catalog
    of sports and health ads in every size, whose keywords include tokens
    the map does not name; yields (server, base URL, catalog path)."""
    catalog = tmp_path / "catalog.json"
    catalog.write_text(serialize_ad_catalog(random_catalog(random.Random(2026), 60)))
    config = server.ServerConfig(catalog_path=str(catalog), model_path=MODEL, map_path=MAP,
                                 event_log_path=str(tmp_path / "events.csv"), port=0,
                                 default_mode="ctr")
    srv = server.AdServer(config)
    port = srv.start()
    try:
        yield srv, f"http://127.0.0.1:{port}", str(catalog)
    finally:
        srv.stop()


def catalog_bids(path):
    with open(path, encoding="utf-8") as fh:
        return {ad.ad_id: ad.bid for ad in parse_ad_catalog(fh)}


def get_ad(base, request):
    """The ctr /ad answer to `request` as a dict, or None on a no-fill."""
    query = urlencode({"placement": request.placement.value, "size": request.size,
                       "category": request.category, "country": request.country,
                       "keywords": ",".join(sorted(request.page_keywords)), "mode": "ctr"})
    status, body = http_get(f"{base}/ad?{query}")
    assert status in (200, 204), body
    return json.loads(body) if status == 200 else None


def test_a_log_that_serve_wrote_trains_on_the_features_serve_computed(ctr_server, tmp_path,
                                                                      monkeypatch):
    srv, base, catalog = ctr_server
    bids = catalog_bids(catalog)
    scored = []  # the raw feature vectors `serve` scored for the current request
    real_predict = server.predict
    monkeypatch.setattr(server, "predict",
                        lambda model, raw: scored.append(tuple(raw)) or real_predict(model, raw))
    rng = random.Random(22)
    expected = {}  # (placement, size, bid, page value) -> [impressions, clicks]
    unmapped_fills, categories = 0, set()
    for _ in range(300):
        request = random_request(rng)
        scored.clear()
        answer = get_ad(base, request)
        if answer is None:
            continue
        bid = bids[answer["ad_id"]]
        (features,) = {raw for raw in scored if raw[2] == bid}
        clicked = rng.random() < 0.3
        status, _ = http_post(base + "/event", {
            "ad_id": answer["ad_id"], "placement": request.placement.value,
            "size": request.size, "category": request.category,
            "keywords": sorted(request.page_keywords), "country": request.country,
            "clicked": clicked})
        assert status == 202
        counts = expected.setdefault(features, [0, 0])
        counts[0] += 1
        counts[1] += clicked
        unmapped_fills += request.page_keywords.isdisjoint(srv.state.keyword_map.values)
        categories.add(request.category)
    assert unmapped_fills and categories == {"sports", "health"}

    folded = []
    real_aggregate = cli.aggregate_events
    monkeypatch.setattr(cli, "aggregate_events",
                        lambda *args: folded.append(real_aggregate(*args)) or folded[-1])
    assert cli.main(["train", "--data", str(srv.event_log.path), "--ads", catalog,
                     "--map", MAP, "--out", str(tmp_path / "model.json")]) == 0
    (rows,) = folded
    assert len(rows) == len(expected)
    assert {(r.placement_code, r.size_code, r.bid, r.keyword_value): r.ctr for r in rows} == {
        key: clicks / impressions for key, (impressions, clicks) in expected.items()}


def test_predict_prints_the_score_that_serve_answers(ctr_server, capsys):
    srv, base, catalog = ctr_server
    bids = catalog_bids(catalog)
    filled = set()  # (token is mapped, placement, size) of each filled request
    for token in VOCAB:
        for placement in Placement:
            for size in DEFAULT_SIZE_REGISTRY:
                answer = get_ad(base, make_context(placement=placement, size=size,
                                                   keywords=(token,)))
                if answer is None:
                    continue
                assert cli.main(["predict", "--model", MODEL, "--map", MAP, placement.value,
                                 size, repr(bids[answer["ad_id"]]), token]) == 0
                assert capsys.readouterr().out == f"{answer['score']!r}\n"
                filled.add((token in srv.state.keyword_map.values, placement, size))
    assert {mapped for mapped, _, _ in filled} == {True, False}
    assert {(placement, size) for _, placement, size in filled} == {
        (placement, size) for placement in Placement for size in DEFAULT_SIZE_REGISTRY}
