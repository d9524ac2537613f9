"""Fuzzing the HTTP front end over raw sockets: whatever arrives, each
request gets one complete response with a 2xx, 4xx or 5xx status, and a
client that stalls is disconnected once the request timeout passes."""

import re
import socket
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings, strategies as st

from ctrserve import sample_data
from ctrserve import server
from ctrserve.server import AdServer, ServerConfig

TIMEOUT_S = 0.5  # the server's request timeout during these tests
CLIENT_TIMEOUT_S = 5.0  # how long a client waits for a response before failing

STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([245]\d\d) ")


@pytest.fixture(scope="module")
def port(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "REQUEST_TIMEOUT_S", TIMEOUT_S)
        srv = AdServer(ServerConfig(
            catalog_path=sample_data.fixture_path("ad_catalog_sample.json"),
            model_path=sample_data.fixture_path("model_normal_eq.json"),
            map_path=sample_data.fixture_path("keyword_map_sports.json"),
            event_log_path=str(tmp_path_factory.mktemp("fuzz") / "events.csv"),
            port=0))
        try:
            yield srv.start()
        finally:
            srv.stop()


def exchange(port, data):
    """Send `data` on a fresh connection and read until the server closes
    it; returns everything it sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=CLIENT_TIMEOUT_S) as sock:
        sock.sendall(data)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


def assert_one_complete_response(response, head_request):
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, f"no complete header block in {response[:300]!r}"
    assert STATUS_LINE.match(head), f"bad status line in {response[:300]!r}"
    lengths = re.findall(rb"\r\ncontent-length: *(\d+)", head, re.IGNORECASE)
    assert len(lengths) == 1, head
    if not head_request:  # a HEAD answer announces the length of a body it leaves out
        assert int(lengths[0]) == len(body), response[:300]


TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12)
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=40)
QUERY = st.one_of(
    st.dictionaries(st.sampled_from(["placement", "size", "category", "keywords", "country",
                                     "mode", "ip", "browser"]),
                    st.one_of(TEXT, st.sampled_from(["above_fold", "300x250", "sports",
                                                     "football,epl", "PK", "ctr", "bid"])))
    .map(urlencode),
    TOKEN,
)
TARGET = st.builds(lambda path, query: path + (f"?{query}" if query else ""),
                   st.sampled_from(["/ad", "/event", "/healthz", "/reload", "/nope", "*", "//ad"])
                   | TOKEN,
                   st.none() | QUERY)
REQUEST_LINE = st.one_of(
    st.builds(" ".join, st.tuples(
        st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE"]) | TOKEN, TARGET,
        st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/0.9", "HTTP/2.0", "HTTP/1"]) | TOKEN)),
    st.builds(" ".join, st.lists(TOKEN, max_size=4)),
    TEXT,
)
FRAMING = {"content-length", "transfer-encoding"}
HEADERS = st.lists(st.tuples(TOKEN.filter(lambda name: ":" not in name
                                          and name.lower() not in FRAMING), TEXT),
                   max_size=8)
BODY = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda ad_id, keywords, clicked, size: (
        '{"ad_id": "%s", "keywords": %s, "clicked": %s, "size": "%s"}'
        % (ad_id, keywords, clicked, size)).encode(),
        st.sampled_from(["boots-01", "ghost"]),
        st.sampled_from(['["football"]', "[]", '"football"', "[1]"]),
        st.sampled_from(["true", "false", '"no"']),
        st.sampled_from(["300x250", "999x1"])),
)


@settings(max_examples=300, deadline=None)
@given(line=REQUEST_LINE, headers=HEADERS, body=st.none() | BODY)
def test_every_request_gets_one_complete_response(port, line, headers, body):
    head = line + "\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers)
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    data = (head + "\r\n").encode("utf-8") + (body or b"")
    response = exchange(port, data)
    assert_one_complete_response(response, line.split()[:1] == ["HEAD"])


@pytest.mark.parametrize("data", [
    b"",  # idle: nothing after connecting
    b"GET /healthz HTTP/1.0",  # a request line that never ends
    b"POST /event HTTP/1.0\r\nContent-Length: 100\r\n\r\n{}",  # a body shorter than announced
])
def test_a_stalled_client_is_disconnected_within_the_timeout(port, data):
    start = time.monotonic()
    assert exchange(port, data) == b""
    assert time.monotonic() - start < TIMEOUT_S + 2.0


def test_still_healthy_after_fuzzing(port):
    response = exchange(port, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert_one_complete_response(response, False)
    assert response.startswith(b"HTTP/1.0 200 ")
