import dataclasses
import json
import socket
import time
import urllib.request
from pathlib import Path

import pytest

from conftest import unresolvable_map
from ctrserve import sample_data
from ctrserve.errors import ValidationError
from ctrserve.server import MAX_EVENT_BODY, AdServer, ServerConfig


@pytest.fixture()
def running_server(tmp_path):
    config = ServerConfig(
        catalog_path=sample_data.fixture_path("ad_catalog_sample.json"),
        model_path=sample_data.fixture_path("model_normal_eq.json"),
        map_path=sample_data.fixture_path("keyword_map_sports.json"),
        event_log_path=str(tmp_path / "events.csv"),
        port=0,
        default_mode="bid",
    )
    srv = AdServer(config)
    port = srv.start()
    yield srv, f"http://127.0.0.1:{port}"
    srv.stop()


def http_get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def http_post(url, payload=None):
    data = json.dumps(payload or {}).encode()
    req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def test_healthz(running_server):
    _, base = running_server
    status, body = http_get(base + "/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok"


def test_ad_request_bid_mode(running_server):
    _, base = running_server
    status, body = http_get(
        base + "/ad?placement=above_fold&size=300x250&category=sports"
               "&keywords=football,epl&country=PK&mode=bid")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "filled"
    assert payload["mode"] == "bid"
    assert payload["score"] > 0


def test_ad_request_ctr_mode(running_server):
    _, base = running_server
    status, body = http_get(
        base + "/ad?placement=above_fold&size=300x250&category=sports"
               "&keywords=football&country=PK&mode=ctr")
    assert status == 200
    assert json.loads(body)["mode"] == "ctr"


def test_no_fill_is_204(running_server):
    _, base = running_server
    status, _ = http_get(
        base + "/ad?placement=above_fold&size=300x250&category=news"
               "&keywords=stocks&country=PK&mode=bid")
    assert status == 204


def test_event_logging(running_server, tmp_path):
    srv, base = running_server
    status, _ = http_post(base + "/event", {
        "ad_id": "boots-01", "clicked": True, "placement": "above_fold",
        "size": "300x250", "category": "sports", "keywords": ["football"],
    })
    assert status == 202
    assert "boots-01" in srv.event_log.path.read_text()


def test_event_unknown_ad_is_400(running_server):
    _, base = running_server
    status, _ = http_post(base + "/event", {"ad_id": "ghost", "clicked": False})
    assert status == 400


def test_reload_swaps_snapshot(running_server, tmp_path):
    srv, base = running_server
    # point the server at a different catalog and reload
    new_catalog = json.dumps([{
        "ad_id": "swap-01", "campaign_id": "c", "category": "sports",
        "size": "300x250", "bid": 99, "landing_page": "", "keywords": ["football"],
    }])
    path = tmp_path / "catalog.json"
    path.write_text(new_catalog)
    srv.config.catalog_path = str(path)
    status, _ = http_post(base + "/reload")
    assert status == 200
    status, body = http_get(
        base + "/ad?placement=above_fold&size=300x250&category=sports"
               "&keywords=football&mode=bid")
    assert status == 200
    assert json.loads(body)["ad_id"] == "swap-01"


def test_unknown_route_404(running_server):
    _, base = running_server
    assert http_get(base + "/nope")[0] == 404


def raw_post_event(base, headers, body=b""):
    """POST /event with hand-written headers; returns the status code, or
    None if the server closed the connection without one."""
    host, port = base.removeprefix("http://").split(":")
    head = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(f"POST /event HTTP/1.1\r\nHost: {host}\r\n{head}\r\n".encode() + body)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return int(response.split()[1]) if response else None


AD_QUERY = ("/ad?placement=above_fold&size=300x250&category=sports"
            "&keywords=football&country=PK&mode=")


def served_ctr(base):
    """(ad_id, score) of a filled ctr-mode request."""
    status, body = http_get(base + AD_QUERY + "ctr")
    assert status == 200
    payload = json.loads(body)
    return payload["ad_id"], payload["score"]


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_request_target_that_is_not_a_url_is_400(running_server, capsys, method):
    _, base = running_server
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(f"{method} a://[x HTTP/1.0\r\nContent-Length: 0\r\n\r\n".encode())
        with sock.makefile("rb") as response:
            status_line, *_, body = response.read().split(b"\r\n")
    assert status_line.split()[1] == b"400"
    assert "Invalid IPv6 URL" in json.loads(body)["error"]
    assert http_get(base + "/healthz")[0] == 200
    assert "Traceback" not in capsys.readouterr().err


def test_stop_returns_at_once(running_server):
    srv, base = running_server
    assert http_get(base + "/healthz")[0] == 200
    start = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("length", ["-1", "abc", "", None])
def test_event_bad_content_length_is_400(running_server, length):
    srv, base = running_server
    headers = {"Content-Type": "application/json"}
    if length is not None:
        headers["Content-Length"] = length
    assert raw_post_event(base, headers, b'{"ad_id": "boots-01"}') == 400
    assert "boots-01" not in srv.event_log.path.read_text()


def test_event_body_over_cap_is_413(running_server):
    _, base = running_server
    assert raw_post_event(base, {"Content-Length": str(MAX_EVENT_BODY + 1)}) == 413


@pytest.mark.parametrize("payload", [
    [{"ad_id": "boots-01"}],
    "boots-01",
    {"ad_id": "boots-01", "keywords": "football"},
    {"ad_id": "boots-01", "keywords": ["football", 7]},
    {"ad_id": ["boots-01"]},
    {"ad_id": "boots-01", "size": 300},
    {"ad_id": "boots-01", "placement": ["above_fold"]},
    {"ad_id": "boots-01", "clicked": "false"},
    {"ad_id": "boots-01", "keywords": ["foot;ball"]},
    {"ad_id": "boots-01", "keywords": ["football", "foot;ball"]},
    {"ad_id": "boots-01"},
    {"ad_id": "boots-01", "keywords": []},
    {"ad_id": "boots-01", "keywords": ["", "  "]},
    {"ad_id": "boots-01", "size": "999x1", "keywords": ["football"]},
])
def test_event_malformed_body_is_400(running_server, payload):
    srv, base = running_server
    status, _ = http_post(base + "/event", payload)
    assert status == 400
    assert "boots-01" not in srv.event_log.path.read_text()


def test_event_deeply_nested_body_is_400(running_server):
    _, base = running_server
    body = b"[" * 20000 + b"]" * 20000
    assert raw_post_event(base, {"Content-Length": str(len(body))}, body) == 400


def test_unknown_mode_is_400(running_server):
    _, base = running_server
    status, body = http_get(base + AD_QUERY + "foo")
    assert status == 400 and "foo" in json.loads(body)["error"]


def test_failed_reload_is_500_and_keeps_snapshot(running_server, tmp_path):
    srv, base = running_server

    before, snapshot = served_ctr(base), srv.state
    model = json.loads(Path(srv.config.model_path).read_text())
    model["theta"] = model["theta"][:4]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    srv.config.model_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500 and "theta" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


@pytest.mark.parametrize("field, value", [("include_intercept", "false"),
                                          ("keyword_map_ref", None)])
def test_reload_of_mistyped_model_is_500_and_keeps_snapshot(running_server, tmp_path,
                                                            field, value):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    model = json.loads(Path(srv.config.model_path).read_text())
    (model["schema"] if field in model["schema"] else model)[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    srv.config.model_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500 and field in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


@pytest.mark.parametrize("kind", ["no centroids", "centroid without value", "nan"])
def test_reload_of_unresolvable_map_is_500_and_keeps_snapshot(running_server, tmp_path, kind):
    srv, base = running_server

    before, snapshot = served_ctr(base), srv.state
    path = tmp_path / "map.json"
    path.write_text(unresolvable_map(kind))
    srv.config.map_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500 and "keyword-map" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


def test_unexpected_fault_is_500_and_the_server_keeps_serving(running_server, monkeypatch):
    srv, base = running_server

    def fail(*args, **kwargs):
        raise OSError("disk on fire")

    monkeypatch.setattr(srv.event_log, "record_event", fail)
    status, body = http_post(base + "/event", {
        "ad_id": "boots-01", "size": "300x250", "keywords": ["football"]})
    assert status == 500 and "disk on fire" in json.loads(body)["error"]
    assert http_get(base + "/healthz")[0] == 200


@pytest.mark.parametrize("field, value", [
    ("keywords", "football"), ("keywords", [1]), ("ad_id", None),
    ("bid", True), ("locations", "PK"),
])
def test_reload_of_mistyped_catalog_is_500_and_keeps_snapshot(running_server, tmp_path,
                                                              field, value):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    records = json.loads(sample_data._read("ad_catalog_sample.json"))
    records[-1][field] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(records))
    srv.config.catalog_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500
    assert f"catalog record {len(records) - 1}" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


def map_for_category(tmp_path, category):
    payload = json.loads(sample_data._read("keyword_map_sports.json"))
    payload["category"] = category
    path = tmp_path / f"map_{category}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_model_and_map_of_different_categories_do_not_load(running_server, tmp_path):
    srv, _ = running_server
    config = dataclasses.replace(srv.config, map_path=map_for_category(tmp_path, "news"))
    with pytest.raises(ValidationError, match="'sports' keyword map.*'news'"):
        AdServer(config)


def test_model_without_map_ref_loads_with_any_map(running_server, tmp_path):
    srv, _ = running_server
    model = json.loads(Path(srv.config.model_path).read_text())
    model["keyword_map_ref"] = ""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    config = dataclasses.replace(srv.config, model_path=str(path),
                                 map_path=map_for_category(tmp_path, "news"))
    other = AdServer(config)
    try:
        assert other.state.keyword_map.category == "news"
    finally:
        other.stop()


def test_reload_of_map_of_another_category_is_500_and_keeps_snapshot(running_server, tmp_path):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    srv.config.map_path = map_for_category(tmp_path, "news")
    status, body = http_post(base + "/reload")
    assert status == 500 and "'news'" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before
