"""A reload whose catalog bytes are unchanged reuses the live snapshot's
buckets, and one whose model and map bytes are both unchanged reuses its
model and map; every other load parses the files whose bytes changed and
refuses them as a first load would. Every file is read on every load, once."""

import builtins
import hashlib
import io
import json
import math
import os
import random
import threading
from pathlib import Path
from urllib.parse import urlencode

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import make_context
from ctrserve import catalog, sample_data
from ctrserve.catalog import SPLIT_MIN_BYTES, Placement, open_text, parse_ad_catalog
from ctrserve.errors import ParseError, ValidationError
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from ctrserve.regression import load_model_and_map
from ctrserve.server import (MODE_BID, MODE_CTR, NO_FILL, AdServer, catalog_digest, load_state,
                             serve)
from test_cli import child_python
from test_http import http_get, http_post
from test_server import oracle_bid, oracle_ctr
from test_snapshot_memory import COUNTRIES, VOCAB, catalog_records, config_for

MODEL = json.loads(sample_data._read("model_normal_eq.json"))


def write_model(path: Path, bid_weight: float) -> str:
    """The fixture model with theta's bid weight replaced."""
    model = dict(MODEL, theta=[*MODEL["theta"][:3], bid_weight, MODEL["theta"][4]])
    path.write_text(json.dumps(model))
    return str(path)


def requests(seed: int, n: int = 300) -> list:
    """Requests over the catalogs' categories, keywords and countries, with
    an unregistered size and an untargeted country among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        category = rng.choice(sorted(VOCAB))
        out.append(make_context(
            placement=rng.choice(list(Placement)),
            size=rng.choice([*DEFAULT_SIZE_REGISTRY, "1x1"]), category=category,
            keywords=rng.sample(VOCAB[category], rng.randint(1, 3)),
            country=rng.choice([*COUNTRIES, "ZZ"])))
    return out


def assert_serves_as_the_oracles(state, catalog_path: str) -> None:
    """Every request is answered in bid and in ctr mode as the exhaustive
    oracles answer it over the catalog file's ads."""
    with open_text(catalog_path) as fh:
        catalog = parse_ad_catalog(fh)
    for request in requests(seed=11):
        ad = oracle_bid(catalog, request)
        best = oracle_ctr(catalog, request, state.model, state.keyword_map)
        for mode, expected in ((MODE_BID, None if ad is None else (ad.ad_id, ad.bid)),
                               (MODE_CTR, None if best is None else (best[0].ad_id, best[1]))):
            response = serve(request, mode, state)
            assert (None if response.status == NO_FILL
                    else (response.ad_id, response.score)) == expected


def tree_digest(data: bytes) -> bytes:
    """The catalog digest, computed here: the SHA-256 of the length as 8
    big-endian bytes, then the SHA-256 of each half, the first half
    len // 2 bytes long."""
    middle = len(data) // 2
    return hashlib.sha256(len(data).to_bytes(8, "big") + hashlib.sha256(data[:middle]).digest()
                          + hashlib.sha256(data[middle:]).digest()).digest()


def test_unchanged_bytes_share_the_live_buckets(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=5))
    live = load_state(config)
    state = load_state(config, live)
    digest = tree_digest(Path(config.catalog_path).read_bytes())
    assert state.catalog_digest == live.catalog_digest == digest
    assert state.index.keys() == live.index.keys()
    assert all(state.index[key] is live.index[key] for key in live.index)
    assert state.ad_ids is live.ad_ids
    assert state.model is live.model and state.keyword_map is live.keyword_map
    assert_serves_as_the_oracles(state, config.catalog_path)
    fresh = load_state(config)  # no live snapshot: the catalog is parsed
    assert all(fresh.index[key] is not live.index[key] for key in live.index)
    assert fresh.index == live.index and fresh.catalog_digest == digest


def test_a_rewrite_of_the_same_length_and_mtime_is_parsed(tmp_path):
    records = catalog_records(600, seed=6)
    records[0].update(bid=111.11, locations=[])
    config = config_for(tmp_path, records)
    path = Path(config.catalog_path)
    request = make_context(size=records[0]["size"], category=records[0]["category"],
                           keywords=records[0]["keywords"], country="ZZ")
    live = load_state(config)
    assert (serve(request, MODE_BID, live).ad_id, serve(request, MODE_BID, live).score) == \
        ("ad00000", 111.11)
    before = path.stat()
    text = path.read_text()
    assert text.count('"bid": 111.11') == 1
    path.write_text(text.replace('"bid": 111.11', '"bid": 999.99'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    state = load_state(config, live)
    assert state.catalog_digest != live.catalog_digest
    assert (serve(request, MODE_BID, state).ad_id, serve(request, MODE_BID, state).score) == \
        ("ad00000", 999.99)
    assert_serves_as_the_oracles(state, config.catalog_path)


@pytest.mark.parametrize("bid_weight", [-0.002, 0.004])
def test_a_new_model_beside_the_same_catalog_is_served(tmp_path, bid_weight):
    config = config_for(tmp_path, catalog_records(600, seed=7))
    live = load_state(config)
    config.model_path = write_model(tmp_path / "model.json", bid_weight)
    state = load_state(config, live)
    assert all(state.index[key] is live.index[key] for key in live.index)
    assert state.model.bid_weight == bid_weight and not live.bid_ascending
    assert state.bid_ascending == (bid_weight < 0)
    assert_serves_as_the_oracles(state, config.catalog_path)


def test_over_http_a_bad_model_or_map_beside_the_same_catalog_keeps_the_snapshot(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=8))
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(dict(MODEL, theta=MODEL["theta"][:4])))
    bad_map = tmp_path / "bad_map.json"
    bad_map.write_text("{")
    srv = AdServer(config)
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        assert http_post(base + "/reload") == (200, json.dumps({"status": "reloaded"}))
        snapshot = srv.state
        for field, bad in (("model_path", bad_model), ("map_path", bad_map)):
            good = getattr(config, field)
            setattr(config, field, str(bad))
            status, body = http_post(base + "/reload")
            assert status == 500 and json.loads(body)["error"]
            assert srv.state is snapshot
            setattr(config, field, good)
        config.model_path = write_model(tmp_path / "model.json", -0.002)
        assert http_post(base + "/reload")[0] == 200
        assert srv.state is not snapshot and srv.state.bid_ascending
        assert srv.state.ad_ids is snapshot.ad_ids
        assert_serves_as_the_oracles(srv.state, config.catalog_path)
        query = "/ad?size=300x250&category=sports&keywords=football,epl&mode=ctr"
        with open_text(config.catalog_path) as fh:
            best = oracle_ctr(parse_ad_catalog(fh), make_context(keywords=("football", "epl")),
                              srv.state.model, srv.state.keyword_map)
        status, body = http_get(base + query)
        assert status == 200
        assert (json.loads(body)["ad_id"], json.loads(body)["score"]) == \
            (best[0].ad_id, best[1])
    finally:
        srv.stop()


def test_a_model_rewritten_to_the_same_length_and_mtime_is_parsed(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=14))
    config.model_path = write_model(tmp_path / "model.json", 0.0042)
    path = Path(config.model_path)
    live = load_state(config)
    assert live.model.bid_weight == 0.0042 and not live.bid_ascending
    before = path.stat()
    text = path.read_text()
    path.write_text(text.replace("0.0042", "-0.004"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    state = load_state(config, live)
    assert state.model is not live.model
    assert state.model.bid_weight == -0.004 and state.bid_ascending
    assert all(state.index[key] is live.index[key] for key in live.index)
    assert_serves_as_the_oracles(state, config.catalog_path)


BAD_FILES = {"model": ("model_path", b'{"version": 1}', "invalid model payload: missing field "
                                                        "'schema'"),
             "map": ("map_path", b"{\n", "invalid keyword-map file: Expecting property name "
                                           "enclosed in double quotes: line 2 column 1 (char 2)"),
             "map, not UTF-8": ("map_path", b'{"category": "sp\xf6rts"}',
                                "{path} is not UTF-8 text: 'utf-8' codec can't decode byte "
                                "0xf6 in position 16: invalid start byte")}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_refused_bytes_sent_again_are_refused_again(tmp_path, name):
    """A refused pair never becomes the live one, so the same bytes are
    parsed and refused again, in the text of a first load, while the
    snapshot keeps serving."""
    field, data, message = BAD_FILES[name]
    config = config_for(tmp_path, catalog_records(600, seed=15))
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    srv = AdServer(config)
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        snapshot = srv.state
        setattr(config, field, str(path))
        with pytest.raises(ParseError) as first_load:
            load_state(config)
        assert str(first_load.value) == message.format(path=path)
        for _ in range(2):
            assert http_post(base + "/reload") == \
                (500, json.dumps({"error": str(first_load.value)}))
            assert srv.state is snapshot
            assert_serves_as_the_oracles(srv.state, config.catalog_path)
    finally:
        srv.stop()


def test_a_map_of_another_category_beside_an_unchanged_model_is_refused(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=16))
    live = load_state(config)
    news = tmp_path / "news_map.json"
    news.write_text(Path(config.map_path).read_text().replace('"sports"', '"news"'))
    config.map_path = str(news)
    message = (f"model {config.model_path} was trained with the 'sports' keyword map, "
               f"but map {news} is for 'news'")
    for snapshot in (live, None, live):
        with pytest.raises(ValidationError) as err:
            load_state(config, snapshot)
        assert str(err.value) == message


def test_a_refused_model_is_named_before_an_unreadable_map(tmp_path):
    """As the files are taken one by one, a model refused for its bytes is
    the fault named, not a map that cannot be read after it."""
    config = config_for(tmp_path, catalog_records(50, seed=17))
    live = load_state(config)
    bad = tmp_path / "bad_model.json"
    bad.write_bytes(b"[]")
    config.model_path, config.map_path = str(bad), str(tmp_path / "missing_map.json")
    for snapshot in (live, None):
        with pytest.raises(ParseError, match="^invalid model payload: list indices"):
            load_state(config, snapshot)
    config.model_path = write_model(tmp_path / "model.json", 0.004)
    with pytest.raises(FileNotFoundError, match="missing_map.json"):
        load_state(config, live)


def test_a_model_from_a_pipe_is_refused_at_the_place_of_its_bad_byte(tmp_path):
    """A model is read whole, as bytes, so a pipe's bad byte is named at its
    place, as a regular file's is."""
    data = b'{"version": \xff}'
    plain, pipe = tmp_path / "model.json", tmp_path / "model.fifo"
    plain.write_bytes(data)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,))
    writer.start()
    try:
        with pytest.raises(ParseError) as from_pipe:
            load_model_and_map(str(pipe), None)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    with pytest.raises(ParseError) as from_file:
        load_model_and_map(str(plain), None)
    for err, path in ((from_pipe, pipe), (from_file, plain)):
        assert str(err.value) == (f"{path} is not UTF-8 text: 'utf-8' codec can't decode "
                                  "byte 0xff in position 12: invalid start byte")


def test_one_load_opens_the_model_and_the_map_once_each(tmp_path, monkeypatch):
    config = config_for(tmp_path, catalog_records(50, seed=18))
    live = load_state(config)
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    for module in (builtins, io):  # pathlib opens through io.open
        monkeypatch.setattr(module, "open", counted)
    model_path = write_model(tmp_path / "model.json", -0.002)
    for model in (config.model_path, config.model_path, model_path):
        config.model_path = model
        opened.clear()
        live = load_state(config, live)
        assert sorted(opened) == sorted([config.catalog_path, model, config.map_path])
    assert live.model.bid_weight == -0.002


REFUSED = {
    "CRLF, a syntax error": (b'[\r\n {"ad_id": "a1",\r\n  "bid" 2}\r\n]\r\n',
                             "catalog is not valid JSON: Expecting ':' delimiter: "
                             "line 3 column 9 (char 29)"),
    "lone CR": (b'[\r{"ad_id": "a1"\r "x": 1}]',
                "catalog is not valid JSON: Expecting ',' delimiter: line 1 column 19 (char 18)"),
    "not UTF-8 after CRLF": (b'[\r\n{"ad_id": "a\xff"}]',
                             "{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                             "in position 15: invalid start byte"),
    "cut inside a character": ('["é'.encode()[:-1],
                               "{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xc3 "
                               "in position 2: unexpected end of data"),
    "BOM, CRLF": (b"\xef\xbb\xbf[\r\n]", "catalog is not valid JSON: Unexpected UTF-8 BOM "
                                         "(decode using utf-8-sig): line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_catalog_keeps_the_text_of_a_text_mode_read(tmp_path, name):
    """The texts are those of the catalog read through `open_text`, as
    every load read it before loads hashed the catalog's bytes."""
    data, message = REFUSED[name]
    config = config_for(tmp_path, catalog_records(50, seed=9))
    live = load_state(config)
    path = tmp_path / "refused.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as read_as_text, open_text(path) as fh:
        parse_ad_catalog(fh)
    config.catalog_path = str(path)
    for snapshot in (None, live):
        with pytest.raises(ParseError) as err:
            load_state(config, snapshot)
        assert str(err.value) == str(read_as_text.value) == message.format(path=path)


LENGTHS = st.one_of(st.sampled_from([0, 1, 2]),
                    st.integers(0, 4096).map(lambda n: 2 * n + 1),  # odd: the halves differ
                    st.integers(0, 4096).map(lambda n: SPLIT_MIN_BYTES + n))


@seed(20170344)
@settings(max_examples=40, deadline=None)
@given(length=LENGTHS, data_seed=st.integers(0, 2**32 - 1), at=st.integers(0, 2**32 - 1))
def test_the_digest_is_one_definition_on_one_thread_or_two(length, data_seed, at):
    """Whether the second half is hashed on a helper thread or not, the
    digest is the one `tree_digest` computes, and one flipped byte in
    either half changes it."""
    data = random.Random(data_seed).randbytes(length)
    expected = tree_digest(data)
    start = threading.Thread.start
    for threshold, cpus, threads in ((SPLIT_MIN_BYTES, None, None), (0, {0, 1}, 1),
                                     (math.inf, {0, 1}, 0), (0, {0}, 0)):
        started = []

        def counted(thread):
            started.append(thread)
            start(thread)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog, "SPLIT_MIN_BYTES", threshold)
            patch.setattr(threading.Thread, "start", counted)
            if cpus is not None:
                patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert catalog_digest(data) == expected
        assert threads is None or len(started) == threads
    middle = length // 2
    for low, high in ((0, middle), (middle, length)):
        if low < high:
            i = low + at % (high - low)
            flipped = data[:i] + bytes([data[i] ^ 1 << at % 8]) + data[i + 1:]
            assert catalog_digest(flipped) != expected


def split_the_digest(monkeypatch) -> None:
    """Every catalog digest from here on starts a helper thread."""
    monkeypatch.setattr(catalog, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_a_helper_that_cannot_start_leaves_the_digest_and_the_reload(tmp_path, monkeypatch):
    config = config_for(tmp_path, catalog_records(600, seed=12))
    srv = AdServer(config)
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        live = srv.state
        refused = []

        def no_thread(thread):
            refused.append(thread)
            raise RuntimeError("can't start new thread")

        split_the_digest(monkeypatch)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert http_post(base + "/reload") == (200, json.dumps({"status": "reloaded"}))
        monkeypatch.undo()
        assert len(refused) == 1
        assert srv.state is not live and srv.state.ad_ids is live.ad_ids
        assert srv.state.catalog_digest == live.catalog_digest == \
            tree_digest(Path(config.catalog_path).read_bytes())
    finally:
        srv.stop()


def test_a_helper_that_raises_fails_the_reload_and_keeps_the_snapshot(tmp_path, monkeypatch):
    records = catalog_records(600, seed=13)
    config = config_for(tmp_path, records)
    srv = AdServer(config)
    base = f"http://127.0.0.1:{srv.start()}"
    try:
        live = srv.state
        sha256, raised = hashlib.sha256, []

        def failing(data=b""):
            if threading.current_thread().name == "ctrserve-digest":
                raised.append(len(data))
                raise OSError("the helper failed")
            return sha256(data)

        split_the_digest(monkeypatch)
        monkeypatch.setattr(hashlib, "sha256", failing)
        assert http_post(base + "/reload") == (500, json.dumps({"error": "the helper failed"}))
        monkeypatch.undo()
        assert len(raised) == 1 and srv.state is live
        ad = next(record for record in records if not record["locations"])
        query = urlencode({"size": ad["size"], "category": ad["category"],
                           "keywords": ",".join(ad["keywords"]), "country": "ZZ"})
        status, body = http_get(f"{base}/ad?{query}")
        assert status == 200 and json.loads(body)["status"] == "filled"
    finally:
        srv.stop()


def test_the_cli_import_loads_neither_hashlib_nor_the_server():
    proc = child_python("-c", "import sys, ctrserve.cli; "
                              "print(sorted({'hashlib', 'ctrserve.server'} & set(sys.modules)))")
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert out.strip() == "[]"
