"""How the front end reads an /ad request: the query decoding rules (those
of `urllib.parse.parse_qs`, first value winning) and the routing of each
request-target form (by `urlparse`'s path), pinned over HTTP, and the
server's own query and target readers checked against `urllib.parse` on
generated input."""

import json
import socket
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings, strategies as st

from ctrserve import sample_data
from ctrserve.server import AdServer, ServerConfig, _query_fields, _split_target

# One ad per decoding rule, all in the sports/300x250 bucket, each holding a
# keyword that only the right reading of its query matches.
CATALOG = [
    {"ad_id": ad_id, "campaign_id": f"camp-{ad_id}", "category": "sports", "size": "300x250",
     "bid": bid, "landing_page": f"https://example.com/{ad_id}", "keywords": keywords}
    for ad_id, bid, keywords in [
        ("boots", 20, ["football"]),
        ("real-madrid", 3, ["real madrid"]),
        ("alpha-beta", 4, ["alpha", "beta"]),
        ("plus", 5, ["a+b"]),
        ("percent", 6, ["%zz"]),
        ("replacement", 7, ["\ufffd"]),
    ]
]

BASE_QUERY = "placement=above_fold&size=300x250&category=sports"


@pytest.fixture(scope="module")
def port(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("parsing")
    (tmp / "catalog.json").write_text(json.dumps(CATALOG))
    srv = AdServer(ServerConfig(
        catalog_path=str(tmp / "catalog.json"),
        model_path=sample_data.fixture_path("model_normal_eq.json"),
        map_path=sample_data.fixture_path("keyword_map_sports.json"),
        event_log_path=str(tmp / "events.csv"), port=0, default_mode="bid"))
    try:
        yield srv.start()
    finally:
        srv.stop()


def answer(port, target):
    """(status, body) of `GET target HTTP/1.0`, the body decoded from JSON
    without its `latency_micros`, which varies from run to run."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode("latin-1"))
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    payload = json.loads(body) if body else None
    if isinstance(payload, dict):
        payload.pop("latency_micros", None)
    return int(head.split()[1]), payload


def filled(ad_id):
    """The body of a filled bid-mode answer for a CATALOG ad."""
    ad = next(ad for ad in CATALOG if ad["ad_id"] == ad_id)
    return {"status": "filled", "mode": "bid", "ad_id": ad_id, "campaign_id": ad["campaign_id"],
            "landing_page": ad["landing_page"], "size": ad["size"], "score": float(ad["bid"])}


@pytest.mark.parametrize("query, ad_id", [
    pytest.param("keywords=football&mode=bid&mode=ctr", "boots", id="first value wins"),
    pytest.param("keywords=real+madrid", "real-madrid", id="plus is a space"),
    pytest.param("keywords=alpha%2Cbeta", "alpha-beta", id="escaped comma splits keywords"),
    pytest.param("keywords=a%2Bb", "plus", id="escaped plus is a plus"),
    pytest.param("keywords=football&mode=", "boots", id="blank mode is the default"),
    pytest.param("keywords=football&mode=&mode=ctr&mode=bid", None, id="blank value dropped"),
    pytest.param("keywords=football&mode", "boots", id="name without equals ignored"),
    pytest.param("keywords=football&mode&mode=ctr", None, id="bare name then value"),
    pytest.param("keywords=%ZZ", "percent", id="invalid escape stays literal"),
    pytest.param("keywords=%FF", "replacement", id="invalid UTF-8 is U+FFFD"),
    pytest.param("keywords=football&m%6Fde=ctr", None, id="escaped name"),
    pytest.param("keywords=football&&=x&mode=bid", "boots", id="empty pair and empty name"),
])
def test_query_decoding_rules(port, query, ad_id):
    """Each rule reads the query as parse_qs does; a None ad_id is a ctr
    answer, which must equal the one to the plain `mode=ctr` query."""
    status, body = answer(port, f"/ad?{BASE_QUERY}&{query}")
    assert status == 200
    if ad_id is None:
        assert body == answer(port, f"/ad?{BASE_QUERY}&keywords=football&mode=ctr")[1]
        assert body["mode"] == "ctr" and body["ad_id"] == "boots"
    else:
        assert body == filled(ad_id)


def test_a_bad_escape_in_a_placement_is_400_naming_the_decoded_value(port):
    status, body = answer(port, "/ad?size=300x250&category=sports&keywords=football"
                                "&placement=above%5Ffold%FF")
    assert status == 400 and "'above_fold\ufffd'" in body["error"]


AD = f"ad?{BASE_QUERY}&keywords=football"
NOT_FOUND = (404, {"error": "not found"})


@pytest.mark.parametrize("target, expected", [
    pytest.param(f"/ad;p?{BASE_QUERY}&keywords=football", (200, filled("boots")),
                 id="path parameters"),
    pytest.param(f"http://127.0.0.1/{AD}", (200, filled("boots")), id="absolute form"),
    pytest.param(f"/{AD}#f", (200, filled("boots")), id="fragment"),
    pytest.param(f"/{AD}#f&mode=ctr", (200, filled("boots")), id="query in the fragment"),
    pytest.param("/healthz#x", (200, {"status": "ok"}), id="healthz with a fragment"),
    pytest.param(f"//{AD}", (200, filled("boots")), id="leading double slash"),
    pytest.param(f"///{AD}", (200, filled("boots")), id="leading triple slash"),
    pytest.param("*", NOT_FOUND, id="asterisk form"),
    pytest.param("/ad%3Fq", NOT_FOUND, id="escaped question mark"),
    pytest.param(f"/ad?x=?&{BASE_QUERY}&keywords=football", (200, filled("boots")),
                 id="second question mark"),
    pytest.param("/ad", (204, None), id="no query"),
    pytest.param("/ad/", NOT_FOUND, id="trailing slash"),
])
def test_routing_of_each_target_form(port, target, expected):
    assert answer(port, target) == expected


# Pieces that each reader treats specially: separators, '+', escapes valid,
# invalid and cut short, escaped UTF-8 whole and cut short, and plain text
# ASCII and not, a control character and a lone surrogate among it.
PIECES = ["%", "+", "=", "&", ";", "#", "?", "/", "//", ":", "@", "[", "]", "*", "http:",
          "%2C", "%2B", "%3D", "%26", "%6F", "%ZZ", "%F", "%FF", "%C3%A9", "%C3", "%E2%82",
          "%u00e9", "%%", "mode", "ad", "a", "B", "7", "-", ".", "~", "\x00", "\x7f", "\xe9",
          "\xff", "\u20ac", "\U0001f600", "\ud800"]
# A request line is latin-1 text split on whitespace, so no target holds
# whitespace or a character past U+00FF.
TARGET_PIECES = [p for p in PIECES if p.split() == [p] and max(map(ord, p)) <= 0xFF]


def joined(pieces):
    return st.lists(st.sampled_from(pieces), max_size=16).map("".join)


@settings(max_examples=10_000, deadline=None)
@given(joined(PIECES))
def test_query_fields_read_as_parse_qs_first_values(query):
    assert _query_fields(query) == {k: v[0] for k, v in parse_qs(query).items()}


@settings(max_examples=10_000, deadline=None)
@given(joined(TARGET_PIECES))
def test_split_target_reads_as_urlparse(target):
    try:
        url = urlparse(target)
    except ValueError:
        with pytest.raises(ValueError):
            _split_target(target)
    else:
        assert _split_target(target) == (url.path, url.query)
