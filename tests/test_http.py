import csv
import errno
import json
import select
import selectors
import signal
import socket
import struct
import threading
import time
import types
import urllib.request
from pathlib import Path

import pytest

from conftest import map_for_category, unresolvable_map
from ctrserve import sample_data, server as server_module
from ctrserve.catalog import tally_event_log
from ctrserve.errors import ContractError, EncodingError, ValidationError
from ctrserve.server import MAX_EVENT_BODY, AdServer, ServerConfig
from test_cli import child_python
from test_snapshot_memory import catalog_records, config_for


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
    assert http_post(base + "/nope") == (404, json.dumps({"error": "not found"}))


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


@pytest.mark.parametrize("field, value", [
    ("ad_id", ["boots-01"] * 5000), ("size", 300), ("city", {"name": "Lahore"}),
    ("clicked", "false"),
])
def test_mistyped_event_field_is_400_naming_it_briefly(running_server, field, value):
    _, base = running_server
    status, body = http_post(base + "/event", {"ad_id": "boots-01", "keywords": ["football"],
                                               field: value})
    assert status == 400
    error = json.loads(body)["error"]
    assert field in error and len(error) < 200


@pytest.mark.parametrize("bad, named", [
    ({"keywords": ["\ud800"]}, "keywords"),
    ({"city": "\udfff"}, "city"),
    ({"browser": "\ud800", "city": "\udfff"}, "city"),  # the first in log column order
])
def test_event_text_utf8_cannot_encode_is_400_and_not_logged(running_server, capsys,
                                                             bad, named):
    srv, base = running_server
    before = srv.event_log.path.read_bytes()
    event = {"ad_id": "boots-01", "size": "300x250", "keywords": ["football"]}
    status, body = http_post(base + "/event", {**event, **bad})
    assert status == 400
    assert json.loads(body)["error"].startswith(f"{named} cannot be stored as UTF-8: ")
    assert srv.event_log.path.read_bytes() == before
    assert "Traceback" not in capsys.readouterr().err
    assert http_post(base + "/event", event)[0] == 202


def test_a_non_ascii_keyword_is_logged_as_utf8_under_an_ascii_locale(tmp_path):
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    probe = child_python("-c", "import locale; print(locale.getpreferredencoding(False))",
                         **ascii_locale)
    assert probe.communicate(timeout=30)[0].strip() == "ANSI_X3.4-1968"
    log = tmp_path / "events.csv"
    proc = child_python("-m", "ctrserve.cli", "serve", "--port", "0",
                        "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                        "--out", str(log), **ascii_locale)
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on port "), line + proc.stderr.read()
        status, _ = http_post(f"http://127.0.0.1:{int(line.split()[3])}/event", {
            "ad_id": "boots-01", "size": "300x250", "category": "sports",
            "keywords": ["fútbol"]})
    finally:
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    assert status == 202
    with open(log, encoding="utf-8", newline="") as fh:
        assert [key[4] for key in tally_event_log(fh)] == ["fútbol"]


def test_event_deeply_nested_body_is_400(running_server):
    _, base = running_server
    body = b"[" * 20000 + b"]" * 20000
    assert raw_post_event(base, {"Content-Length": str(len(body))}, body) == 400


def test_unknown_mode_is_400(running_server):
    _, base = running_server
    status, body = http_get(base + AD_QUERY + "foo")
    assert status == 400 and "foo" in json.loads(body)["error"]


def test_unknown_mode_body_names_the_mode(running_server):
    _, base = running_server
    assert http_get(base + AD_QUERY + "x") == (400, json.dumps({"error": "unknown mode 'x'"}))


def test_a_bad_query_value_is_400(running_server):
    _, base = running_server
    status, body = http_get(base + AD_QUERY.replace("above_fold", "sidebar") + "bid")
    assert status == 400 and "'sidebar'" in json.loads(body)["error"]


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_a_long_placement_is_named_briefly(running_server, method):
    _, base = running_server
    placement = "x" * 60_000
    if method == "GET":
        response = raw_exchange(base, f"GET /ad?placement={placement} HTTP/1.0\r\n\r\n".encode())
    else:
        body = json.dumps({"ad_id": "boots-01", "keywords": ["football"], "placement": placement})
        response = raw_exchange(base, b"POST /event HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
                                % (len(body), body.encode()))
    assert status_of_one_complete_response(response) == 400
    assert len(response) < 300
    error = json.loads(response.partition(b"\r\n\r\n")[2])["error"]
    assert error == f"'{placement[:99]} is not a valid Placement"


def test_ctr_mode_without_a_model_and_map_is_400(tmp_path):
    srv = AdServer(ServerConfig(catalog_path=sample_data.fixture_path("ad_catalog_sample.json"),
                                event_log_path=str(tmp_path / "events.csv"), port=0))
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        ctr = http_get(base + AD_QUERY + "ctr")
        bid = http_get(base + AD_QUERY + "bid")
    finally:
        srv.stop()
    assert ctr == (400, json.dumps({"error": "ctr mode requires a model and keyword map"}))
    assert bid[0] == 200


def test_a_client_that_leaves_mid_request_line_is_closed_unanswered(running_server):
    """The server sees the end of the stream and closes at once, well
    before REQUEST_TIMEOUT_S, and goes on serving."""
    _, base = running_server
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"GET /heal")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""
    assert server_module.REQUEST_TIMEOUT_S > 5
    assert http_get(base + "/healthz")[0] == 200


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_reload_of_a_theta_that_is_not_finite_is_500_and_keeps_snapshot(running_server,
                                                                         tmp_path, literal):
    """json reads these literals as floats; the model refuses them."""
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    model = json.loads(Path(srv.config.model_path).read_text())
    model["theta"][3] = "THETA"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model).replace('"THETA"', literal))
    srv.config.model_path = str(path)
    status, body = http_post(base + "/reload")
    assert (status, json.loads(body)) == (500, {"error": "invalid model payload: "
                                                         "theta must be finite"})
    assert srv.state is snapshot and served_ctr(base) == before


def test_reload_of_a_model_of_another_version_is_500_and_keeps_snapshot(running_server,
                                                                        tmp_path):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    model = json.loads(Path(srv.config.model_path).read_text())
    model["version"] = 2
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    srv.config.model_path = str(path)
    status, body = http_post(base + "/reload")
    assert (status, body) == (500, '{"error": "unsupported model version 2"}')
    assert srv.state is snapshot and served_ctr(base) == before


@pytest.mark.parametrize("field, value", [("include_intercept", "false"),
                                          ("keyword_map_ref", None),
                                          ("size_registry", ["728x90", "300x250", "160x600"]),
                                          ("size_registry", ["300x250", "728x90"]),
                                          ("include_intercept", False),
                                          ("include_intercept", 1)])
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


@pytest.mark.parametrize("kind", ["no centroids", "centroid without value", "nan",
                                  "unnormalized key"])
def test_reload_of_unresolvable_map_is_500_and_keeps_snapshot(running_server, tmp_path, kind):
    srv, base = running_server

    before, snapshot = served_ctr(base), srv.state
    path = tmp_path / "map.json"
    path.write_text(unresolvable_map(kind))
    srv.config.map_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500 and "keyword-map" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


def test_reload_of_mistyped_map_is_500_and_keeps_snapshot(running_server, tmp_path):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    keyword_map = json.loads(Path(srv.config.map_path).read_text())
    keyword_map["values"]["england"] = True
    path = tmp_path / "map.json"
    path.write_text(json.dumps(keyword_map))
    srv.config.map_path = str(path)
    status, body = http_post(base + "/reload")
    assert status == 500 and "values['england']" in json.loads(body)["error"]
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


def test_event_on_a_closed_log_is_500_and_a_bad_event_still_400(running_server):
    srv, base = running_server
    srv.event_log.close()
    status, body = http_post(base + "/event", {
        "ad_id": "boots-01", "size": "300x250", "keywords": ["football"]})
    assert status == 500 and "closed file" in json.loads(body)["error"]
    assert http_post(base + "/event", {"ad_id": "boots-01", "keywords": "football"})[0] == 400
    assert http_post(base + "/event", {"ad_id": "ghost", "keywords": ["football"]})[0] == 400


@pytest.mark.parametrize("field, value", [
    ("keywords", "football"), ("keywords", [1]), ("ad_id", None),
    ("bid", True), ("locations", "PK"),
    pytest.param("bid", 10 ** 400, id="bid-too-large-for-a-float"),
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


def test_model_and_map_of_different_categories_do_not_load(running_server, tmp_path):
    srv, _ = running_server
    config = ServerConfig(srv.config.catalog_path, srv.config.model_path,
                          map_for_category(tmp_path, "news"), srv.config.event_log_path)
    with pytest.raises(ValidationError, match="'sports' keyword map.*'news'"):
        AdServer(config)


def test_model_without_map_ref_loads_with_any_map(running_server, tmp_path):
    srv, _ = running_server
    model = json.loads(Path(srv.config.model_path).read_text())
    model["keyword_map_ref"] = ""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    config = ServerConfig(srv.config.catalog_path, str(path), map_for_category(tmp_path, "news"),
                          srv.config.event_log_path)
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


@pytest.mark.parametrize("field", ["catalog_path", "model_path", "map_path"])
def test_reload_of_a_file_that_is_not_utf8_is_500_naming_it(running_server, tmp_path, field):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + Path(getattr(srv.config, field)).read_bytes())
    setattr(srv.config, field, str(path))
    status, body = http_post(base + "/reload")
    assert status == 500 and f"{path} is not UTF-8 text" in json.loads(body)["error"]
    assert srv.state is snapshot and served_ctr(base) == before


@pytest.mark.parametrize("text", ["[" * 100_000, "[1" + "0" * 5_000 + "]"],
                         ids=["deep nesting", "integer over the digit limit"])
@pytest.mark.parametrize("field, message", [("catalog_path", "catalog is not valid JSON: "),
                                            ("model_path", "corrupt model stream: "),
                                            ("map_path", "invalid keyword-map file: ")],
                         ids=["catalog", "model", "map"])
def test_reload_of_json_the_parser_refuses_is_500_and_keeps_snapshot(running_server, tmp_path,
                                                                     field, message, text):
    srv, base = running_server
    before, snapshot = served_ctr(base), srv.state
    path = tmp_path / "bad.json"
    path.write_text(text)
    setattr(srv.config, field, str(path))
    status, body = http_post(base + "/reload")
    assert status == 500 and json.loads(body)["error"].startswith(message)
    assert srv.state is snapshot and served_ctr(base) == before


@pytest.mark.parametrize("text", ["", " \n\t"], ids=["empty", "blank"])
def test_reload_of_an_emptied_catalog_is_500_and_keeps_snapshot(running_server, tmp_path, text):
    """A reload that reads the catalog between its truncate and its write is
    refused: a catalog file is one JSON array, and the live snapshot serves on."""
    srv, base = running_server
    path = tmp_path / "catalog.json"
    path.write_bytes(Path(srv.config.catalog_path).read_bytes())
    ad_ids = {record["ad_id"] for record in json.loads(path.read_text())}
    srv.config.catalog_path = str(path)
    assert http_post(base + "/reload")[0] == 200
    snapshot = srv.state
    path.write_text(text)  # the truncate, then a write of nothing or of blanks
    status, body = http_post(base + "/reload")
    assert status == 500 and json.loads(body)["error"].startswith("catalog is not valid JSON: ")
    assert srv.state is snapshot and snapshot.ad_ids == ad_ids
    status, body = http_get(base + AD_QUERY + "bid")
    assert status == 200 and json.loads(body)["ad_id"] in ad_ids


def raw_exchange(base, data, timeout=5):
    """Send `data` on a fresh connection and read until the server closes it."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(data)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


def status_of_one_complete_response(response, head_request=False):
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep and head.startswith(b"HTTP/1."), response[:300]
    lengths = [line.split(b":", 1)[1] for line in head.split(b"\r\n")[1:]
               if line.lower().startswith(b"content-length:")]
    assert len(lengths) == 1, response[:300]
    # A HEAD answer may announce the length of a body it leaves out.
    assert int(lengths[0]) == len(body) or head_request and not body, response[:300]
    return int(head.split()[1])


LINE_LIMIT = 64 * 1024  # bytes of a request or header line, its line break included


@pytest.mark.parametrize("data, status", [
    pytest.param(b"\r\n", 400, id="blank request line"),
    pytest.param(b"GET /healthz HTTP/0.9\r\n\r\n", 400, id="explicit HTTP/0.9"),
    pytest.param(b"GET /healthz HTTP/1.0 x\r\n\r\n", 400, id="four words"),
    pytest.param(b"GET /healthz HTTP/1.x\r\n\r\n", 400, id="version not HTTP/x.y"),
    pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, id="HTTP/2.0"),
    pytest.param(b"PUT /healthz HTTP/1.0\r\n\r\n", 501, id="PUT"),
    pytest.param(b"HEAD /healthz HTTP/1.0\r\n\r\n", 501, id="HEAD"),
    # The over-long lines stop just past the limit, so nothing is left
    # unread when the server answers and closes.
    pytest.param(b"GET /" + b"a" * LINE_LIMIT, 414, id="request line over 64 KiB"),
    pytest.param(b"GET /healthz HTTP/1.0\r\nX: " + b"a" * LINE_LIMIT, 431,
                 id="header line over 64 KiB"),
    pytest.param(b"GET /healthz HTTP/1.0\r\n" + b"X: y\r\n" * 101 + b"\r\n", 431,
                 id="more than 100 headers"),
    pytest.param(b"GET a://[x HTTP/1.0\r\n\r\n", 400, id="bad target"),
    pytest.param(b"POST /event HTTP/1.0\r\nContent-Length: 1e3\r\n\r\n", 400,
                 id="Content-Length not an integer"),
    pytest.param(b"POST /event HTTP/1.0\r\nContent-Length: -2\r\n\r\n{}", 400,
                 id="negative Content-Length"),
    pytest.param(b"POST /event HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % (MAX_EVENT_BODY + 1),
                 413, id="body over 64 KiB"),
    pytest.param(b"GET /healthz\r\n\r\n", 200, id="GET without a version"),
    pytest.param(b"GET /healthz HTTP/1.0\r\nno colon\r\n\r\n", 200, id="header without a colon"),
    pytest.param(b"GET /healthz HTTP/1.0\r\nX: y\r\n", None, id="stall in the headers"),
])
def test_status_of_each_protocol_error(running_server, monkeypatch, data, status):
    """Every class of malformed request keeps its status code; a client
    that stalls mid-request is closed unanswered."""
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.5)
    _, base = running_server
    response = raw_exchange(base, data, timeout=server_module.REQUEST_TIMEOUT_S + 15)
    if status is None:
        assert response == b""
    else:
        assert status_of_one_complete_response(response, data.startswith(b"HEAD ")) == status
    assert http_get(base + "/healthz")[0] == 200


def parsed(data):
    """What `_parse_request` makes of the whole request `data`: its
    (method, path, query, body), or the status and text it refuses with."""
    parser = server_module._parse_request(bytearray(data))
    try:
        next(parser)
    except StopIteration as done:
        return done.value
    except server_module._Refused as exc:
        return exc.code, str(exc)
    raise AssertionError(f"{data!r} asks for more bytes")


NOT_A_LENGTH = (400, "Content-Length must be a non-negative integer")


@pytest.mark.parametrize("headers, expected", [
    pytest.param(b"Content-Length: 14\r\n", ("POST", "/event", "", b"x" * 14), id="14"),
    pytest.param(b"Content-Length:\t 14 \t\r\n", ("POST", "/event", "", b"x" * 14),
                 id="spaces and tabs around"),
    pytest.param(b"Content-Length: 014\n", ("POST", "/event", "", b"x" * 14), id="leading zero"),
    pytest.param(b"Content-Length: 14\r\ncontent-length:14\r\n",
                 ("POST", "/event", "", b"x" * 14), id="the same value twice"),
    pytest.param(b"Content-Length: 1_4\r\n", NOT_A_LENGTH, id="underscore"),
    pytest.param(b"Content-Length: +14\r\n", NOT_A_LENGTH, id="sign"),
    pytest.param(b"Content-Length: 14\x0b\r\n", NOT_A_LENGTH, id="vertical tab"),
    pytest.param(b"Content-Length: 14, 14\r\n", NOT_A_LENGTH, id="list"),
    pytest.param(b"Content-Length: \xd9\xa1\xd9\xa4\r\n", NOT_A_LENGTH, id="Arabic-Indic digits"),
    pytest.param(b"Content-Length: \r\n", NOT_A_LENGTH, id="empty"),
    pytest.param(b"Content-Length: " + b"0" * 5000 + b"14\r\n", NOT_A_LENGTH,
                 id="more digits than int() reads"),
    pytest.param(b"Content-Length: 14\r\nContent-Length: 3\r\n",
                 (400, "Content-Length headers differ"), id="14 then 3"),
    pytest.param(b"Content-Length: 3\r\nContent-Length: 14\r\n",
                 (400, "Content-Length headers differ"), id="3 then 14"),
])
def test_content_length_is_ascii_digits_and_one_value(headers, expected):
    """RFC 9110 section 8.6 and RFC 9112 section 6.3: a Content-Length is
    1*DIGIT with optional spaces or tabs around it, and a repeat must carry
    the same value; any other makes the framing unknown, so it is refused."""
    assert parsed(b"POST /event HTTP/1.0\r\n" + headers + b"\r\n" + b"x" * 20) == expected


def test_stalled_clients_delay_neither_requests_nor_a_reload(tmp_path, monkeypatch):
    """One loop serves every connection, so stalled clients must not hold
    it, and a reload of a 10,000-ad catalog runs on it in short steps."""
    monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.5)
    srv = AdServer(config_for(tmp_path, catalog_records(10_000, seed=3)))
    base = f"http://127.0.0.1:{srv.start()}"
    host, port = base.removeprefix("http://").split(":")
    query = "/ad?placement=above_fold&size=300x250&category=sports&keywords=football,epl&mode=ctr"

    def served():
        status, body = http_get(base + query)
        return status, json.loads(body)["ad_id"], json.loads(body)["score"]

    try:
        stalled = [socket.create_connection((host, int(port)), timeout=5) for _ in range(2)]
        try:
            stalled[0].sendall(b"GET /healthz HTT")
            stalled[1].sendall(b"POST /event HTTP/1.0\r\nContent-Length: 100\r\n\r\n{\"ad")
            start = time.monotonic()
            for path in ("/healthz", query):
                assert http_get(base + path)[0] == 200
                assert time.monotonic() - start < 1.0
                start = time.monotonic()
            for sock in stalled:
                assert sock.recv(65536) == b""
            assert time.monotonic() - start < 0.5 + 1.0
        finally:
            for sock in stalled:
                sock.close()

        before = served()
        new_catalog = tmp_path / "new_catalog.json"
        new_catalog.write_text(json.dumps(catalog_records(10_000, seed=4)))
        srv.config.catalog_path = str(new_catalog)
        with socket.create_connection((host, int(port)), timeout=10) as reload:
            reload.sendall(b"POST /reload HTTP/1.0\r\nContent-Length: 0\r\n\r\n")
            during = served()
            assert select.select([reload], [], [], 0)[0] == []  # the reload has not answered
            reload.settimeout(10)
            response = b""
            while chunk := reload.recv(65536):
                response += chunk
        assert status_of_one_complete_response(response) == 200
        assert during in (before, served()) and before != served()
    finally:
        srv.stop()


def test_stop_under_event_traffic_loses_no_accepted_event(running_server):
    srv, base = running_server
    answers, lock = [], threading.Lock()

    def post_events(worker):
        for n in range(10_000):
            ip = f"10.0.{worker}.{n}"
            try:
                status, body = http_post(base + "/event", {
                    "ad_id": "boots-01", "size": "300x250", "keywords": ["football"], "ip": ip})
            except OSError:  # refused or reset: the server has stopped
                return
            with lock:
                answers.append((ip, status, body))

    threads = [threading.Thread(target=post_events, args=(worker,)) for worker in range(3)]
    for thread in threads:
        thread.start()
    time.sleep(0.3)
    srv.stop()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert [answer for answer in answers if answer[1] != 202] == []
    with open(srv.event_log.path, newline="") as fh:
        logged = [row["ip"] for row in csv.DictReader(fh)]
    assert sorted(logged) == sorted(ip for ip, _, _ in answers)


# A header after the request line, so that a request can break inside one.
AD_REQUEST = f"GET {AD_QUERY}bid HTTP/1.0\r\nUser-Agent: pieces\r\n\r\n".encode()


def event_request(ip):
    body = json.dumps({"ad_id": "boots-01", "size": "300x250", "keywords": ["football"],
                       "ip": ip}).encode()
    return b"POST /event HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


def pieces_of(case):
    """(the pieces of one request, the one-piece request it must answer as)."""
    if case == "inside the request line":
        return [AD_REQUEST[:12], AD_REQUEST[12:]], AD_REQUEST
    if case == "inside a header line":
        cut = AD_REQUEST.index(b"User-Agent") + 4
        return [AD_REQUEST[:cut], AD_REQUEST[cut:]], AD_REQUEST
    if case == "byte by byte":
        return [AD_REQUEST[i:i + 1] for i in range(len(AD_REQUEST))], AD_REQUEST
    request = event_request("10.9.0.2")
    cut = len(request) - 20
    return [request[:cut], request[cut:]], event_request("10.9.0.1")


@pytest.mark.parametrize("case", ["inside the request line", "inside a header line",
                                  "byte by byte", "inside the event body"])
def test_a_request_in_pieces_gets_the_one_piece_answer(running_server, monkeypatch, case):
    """The server reads each piece as it arrives and resumes the request
    where it stopped; the answer is the one the whole request gets."""
    srv, base = running_server
    # A clock that stands still, so that latency_micros reads 0 in both answers.
    monkeypatch.setattr(server_module, "time", types.SimpleNamespace(
        perf_counter_ns=lambda: 0, monotonic=time.monotonic, time_ns=time.time_ns))
    line_ends = []
    line_end = server_module._line_end

    def counted_line_end(buf, start, code):
        end = yield from line_end(buf, start, code)
        line_ends.append(end)
        return end

    monkeypatch.setattr(server_module, "_line_end", counted_line_end)
    pieces, whole = pieces_of(case)
    expected = raw_exchange(base, whole)
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in pieces:
            sock.sendall(piece)
            time.sleep(0.02 if len(pieces) == 2 else 0.002)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert response == expected
    assert status_of_one_complete_response(response) == (202 if "event" in case else 200)
    if "event" in case:
        with open(srv.event_log.path, newline="") as fh:
            logged = [row["ip"] for row in csv.DictReader(fh)]
        assert logged == ["10.9.0.1", "10.9.0.2"]
    else:
        assert line_ends  # a line was incomplete and resumed when the rest arrived


def test_a_slow_reader_gets_the_whole_answer_while_the_loop_serves_others(tmp_path,
                                                                          monkeypatch):
    """A 4 MiB answer to a client with a small receive buffer that waits
    before it reads: the loop sends what the socket takes, turns from
    waiting to read to waiting to write the rest, and answers another
    connection meanwhile."""
    landing_page = "https://example.com/" + "a" * (4 << 20)
    records = [{"ad_id": "long", "campaign_id": "c", "category": "sports", "size": "300x250",
                "bid": 1.0, "landing_page": landing_page, "keywords": ["football"]}]
    srv = AdServer(config_for(tmp_path, records))
    waits = []
    wait = srv._wait

    def counted_wait(conn, events):
        waits.append(events)
        wait(conn, events)

    monkeypatch.setattr(srv, "_wait", counted_wait)
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect(("127.0.0.1", int(base.rsplit(":", 1)[1])))
            time.sleep(0.05)  # accepted with nothing to read, the connection waits to read
            sock.sendall(AD_REQUEST)
            time.sleep(0.3)
            assert waits[:2] == [selectors.EVENT_READ, selectors.EVENT_WRITE]
            assert http_get(base + "/healthz")[0] == 200
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
    finally:
        srv.stop()
    assert status_of_one_complete_response(response) == 200
    assert json.loads(response.partition(b"\r\n\r\n")[2])["landing_page"] == landing_page


def test_stop_closes_a_connection_mid_request_unanswered(running_server):
    srv, base = running_server
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"GET /healthz HT")
        deadline = time.monotonic() + 5
        while not srv._deadlines and time.monotonic() < deadline:  # the server waits for more
            time.sleep(0.01)
        assert srv._deadlines
        start = time.perf_counter()
        srv.stop()
        assert time.perf_counter() - start < 1.0 < server_module.REQUEST_TIMEOUT_S
        assert sock.recv(65536) == b""
    assert srv.event_log._fh.closed


@pytest.mark.parametrize("port", [70000, -1])
def test_start_refuses_a_port_out_of_range_before_any_socket_opens(tmp_path, monkeypatch, port):
    srv = AdServer(ServerConfig(catalog_path=sample_data.fixture_path("ad_catalog_sample.json"),
                                event_log_path=str(tmp_path / "events.csv"), port=port))
    opened = []

    class CountedSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(socket, "socket", CountedSocket)
    with pytest.raises(ContractError) as refused:
        srv.start()
    assert str(refused.value) == f"port must be 0-65535, got {port}"
    assert opened == []
    srv.stop()
    assert srv.event_log._fh.closed


def test_an_event_of_an_unregistered_size_is_400_with_the_registry_text(running_server):
    srv, base = running_server
    assert issubclass(EncodingError, ValidationError)
    before = srv.event_log.path.read_bytes()
    status, body = http_post(base + "/event", {"ad_id": "boots-01", "size": "999x1",
                                               "keywords": ["football"]})
    assert (status, json.loads(body)) == (400, {
        "error": "size '999x1' is not in the registry ['300x250', '728x90', '160x600']"})
    assert srv.event_log.path.read_bytes() == before


def reset(sock):
    """Close `sock` with a reset instead of the orderly close."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def wait_until(ready, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert ready()


def test_a_client_that_resets_its_connection_is_dropped_quietly(tmp_path, monkeypatch,
                                                                 capsys):
    """Resets in the middle of the request line, in the middle of a 4 MiB
    answer and right after POST /reload: `recv`, `send` and `shutdown` each
    raise, and each connection is dropped with no traceback and no socket
    left open."""
    records = [{"ad_id": "long", "campaign_id": "c", "category": "sports", "size": "300x250",
                "bid": 1.0, "landing_page": "https://example.com/" + "a" * (4 << 20),
                "keywords": ["football"]}]
    srv = AdServer(config_for(tmp_path, records))
    reloading = threading.Event()
    load_steps = server_module.load_steps

    def held_load(config, live):  # answers only once the client has reset
        while not reloading.is_set():
            yield
        yield from load_steps(config, live)

    monkeypatch.setattr(server_module, "load_steps", held_load)
    raised = []

    def trace(frame, event, arg):  # the errors the loop catches
        if frame.f_code.co_filename == server_module.__file__ and \
                frame.f_code.co_name in ("_receive", "_send"):
            def local(frame, event, arg):
                if event == "exception" and issubclass(arg[0], OSError) and \
                        arg[0] is not BlockingIOError:
                    raised.append((frame.f_code.co_name, arg[0]))
                return local
            return local
        return None

    threading.settrace(trace)
    try:
        address = ("127.0.0.1", srv.start())
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"GET /he")
            wait_until(lambda: srv._deadlines)
            reset(sock)
        wait_until(lambda: not srv._deadlines)

        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5)
            sock.connect(address)
            sock.sendall(AD_REQUEST)
            wait_until(lambda: [conn for conn in srv._deadlines
                                if conn.events == selectors.EVENT_WRITE])
            assert len(sock.recv(1000)) > 0
            reset(sock)
        wait_until(lambda: not srv._deadlines)

        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"POST /reload HTTP/1.0\r\n\r\n")
            wait_until(lambda: srv._load)
            reset(sock)
        reloading.set()
        wait_until(lambda: not srv._load)
        assert not srv._deadlines
        assert http_get(f"http://127.0.0.1:{address[1]}/healthz")[0] == 200
    finally:
        reloading.set()
        threading.settrace(None)
        srv.stop()
    assert [name for name, _ in raised] == ["_receive", "_send", "_send", "_send", "_send"]
    assert capsys.readouterr().err == ""


DESCRIPTOR_CHILD = """
import os, resource, sys, threading, time
from ctrserve import sample_data
from ctrserve.server import AdServer, ServerConfig

srv = AdServer(ServerConfig(catalog_path=sample_data.fixture_path("ad_catalog_sample.json"),
                            event_log_path=sys.argv[1], port=0))
port = srv.start()
free = [os.open(os.devnull, os.O_RDONLY) for _ in range(2)]  # the two lowest free descriptors
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (max(free) + 1, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
for fd in free:
    os.close(fd)
print(port, flush=True)
while len(srv._deadlines) < 2:  # two connections hold the two descriptors
    time.sleep(0.01)
time.sleep(0.2)  # and a third is queued, which accept cannot take
cpu = time.process_time()
time.sleep(1.0)
print(time.process_time() - cpu, flush=True)
try:
    threading.Event().wait()
except KeyboardInterrupt:
    srv.stop()
"""


def test_out_of_descriptors_the_loop_waits_instead_of_spinning(tmp_path):
    """A server whose process may open two more descriptors, with two
    connections mid-request and a third queued: the loop does not spin on
    the listener it cannot accept from, still answers the connections it
    holds, and takes the queued one once a descriptor frees."""
    proc = child_python("-c", DESCRIPTOR_CHILD, str(tmp_path / "events.csv"))
    try:
        line = proc.stdout.readline()
        assert line.strip().isdigit(), line + proc.stderr.read()
        address = ("127.0.0.1", int(line))
        with socket.create_connection(address, timeout=5) as a, \
                socket.create_connection(address, timeout=5) as b, \
                socket.create_connection(address, timeout=5) as queued:
            a.sendall(b"GET /healthz HTTP/1.0\r\n")
            b.sendall(b"GET /healthz HTTP/1.0\r\n")
            queued.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            cpu_seconds = float(proc.stdout.readline())
            a.sendall(b"\r\n")
            for sock in (a, queued):
                sock.settimeout(1.0)
                response = b""
                while chunk := sock.recv(65536):
                    response += chunk
                assert status_of_one_complete_response(response) == 200
        with socket.create_connection(address, timeout=1.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        assert status_of_one_complete_response(response) == 200
    finally:
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    assert cpu_seconds < 0.1
    assert proc.returncode == 0 and err == ""


def refuse_accepts(monkeypatch, times):
    """Make the next `times` calls of `accept` fail as a process out of
    descriptors does; returns the monotonic time of each failed call."""
    failed = []
    accept = socket.socket.accept

    def out_of_descriptors(sock):
        if len(failed) < times:
            failed.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
    return failed


def test_an_accept_out_of_descriptors_is_retried_after_the_backoff(running_server, monkeypatch):
    """Each accept that fails unwatches the listener for ACCEPT_RETRY_S:
    the loop sleeps through it instead of spinning, and then accepts."""
    srv, base = running_server
    monkeypatch.setattr(server_module, "ACCEPT_RETRY_S", 0.3)
    selects = []
    select_ = srv._selector.select

    def counted_select(timeout=None):
        selects.append(timeout)
        return select_(timeout)

    monkeypatch.setattr(srv._selector, "select", counted_select)
    failed = refuse_accepts(monkeypatch, 3)
    assert http_get(base + "/healthz")[0] == 200
    assert len(failed) == 3
    assert all(b - a >= 0.3 for a, b in zip(failed, [*failed[1:], time.monotonic()]))
    assert len(selects) < 20  # a loop that watched the listener would select thousands of times


def test_an_accept_out_of_descriptors_is_retried_once_a_connection_closes(running_server,
                                                                          monkeypatch):
    """A connection that closes frees a descriptor, so the listener is
    watched again at once, long before ACCEPT_RETRY_S ends."""
    srv, base = running_server
    monkeypatch.setattr(server_module, "ACCEPT_RETRY_S", 60.0)
    address = ("127.0.0.1", int(base.rsplit(":", 1)[1]))
    with socket.create_connection(address, timeout=5) as held:
        held.sendall(b"GET /he")
        wait_until(lambda: srv._deadlines)
        failed = refuse_accepts(monkeypatch, 1)
        with socket.create_connection(address, timeout=5) as queued:
            queued.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            wait_until(lambda: srv._accept_resume is not None)
            held.close()
            closed = time.monotonic()
            response = b""
            while chunk := queued.recv(65536):
                response += chunk
    assert status_of_one_complete_response(response) == 200
    assert len(failed) == 1 and time.monotonic() - closed < 2.0


def test_stop_finishes_the_load_in_flight_and_its_follow_up(running_server, monkeypatch,
                                                           tmp_path):
    """A /reload whose load is still running when `stop` is called, and one
    that waits for the follow-up, are both answered, and the snapshot is
    the new catalog's."""
    srv, base = running_server
    load_steps = server_module.load_steps

    def held_load(config, live):  # runs only once the loop is stopping
        while not srv._stopping:
            yield
        yield  # a step the loop leaves to `stop`
        yield from load_steps(config, live)

    monkeypatch.setattr(server_module, "load_steps", held_load)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(catalog_records(50, seed=5)))
    srv.config.catalog_path = str(catalog)
    address = ("127.0.0.1", int(base.rsplit(":", 1)[1]))
    with socket.create_connection(address, timeout=5) as first, \
            socket.create_connection(address, timeout=5) as second:
        first.sendall(b"POST /reload HTTP/1.0\r\n\r\n")
        wait_until(lambda: srv._load)
        second.sendall(b"POST /reload HTTP/1.0\r\n\r\n")
        wait_until(lambda: srv._queued)
        srv.stop()
        for sock in (first, second):
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
            assert status_of_one_complete_response(response) == 200
    assert srv.state.ad_ids == {record["ad_id"] for record in catalog_records(50, seed=5)}


@pytest.mark.parametrize("data, status, error", [
    pytest.param(b"GET\r\n\r\n", 400, "a request line has a method, a target and a version",
                 id="one word"),
    pytest.param(b"GET /healthz x HTTP/1.0\r\n\r\n", 400,
                 "a request line has a method, a target and a version", id="four words"),
    pytest.param(b"POST /reload\r\n\r\n", 400, "a request line without a version must be a GET",
                 id="two words, not a GET"),
    pytest.param(b"GET //healthz HTTP/1.0\r\n\r\n", 200, None, id="leading double slash"),
    pytest.param(b"GET //127.0.0.1/healthz HTTP/1.0\r\n\r\n", 404, "not found",
                 id="a host after the double slash is a path"),
])
def test_request_line_rules_past_the_version(running_server, data, status, error):
    """The word-count rules, which apply once the version is read, and the
    `//` rule, which keeps a target from naming a host."""
    _, base = running_server
    response = raw_exchange(base, data)
    assert status_of_one_complete_response(response) == status
    if error is not None:
        assert json.loads(response.partition(b"\r\n\r\n")[2]) == {"error": error}
