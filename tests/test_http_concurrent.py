"""A concurrent, model-based test of the running server: seeded client
threads send /ad in both modes, /event and /reload against one AdServer, and
every answer is checked against a model of what the server may answer.

- An /ad answer equals the exhaustive oracle for a snapshot that was live
  at some point between the request's send and its answer.
- Every event answered 202 is in the log exactly once, and nothing else is.
- A reload of a broken file set answers 500 and never serves any of its
  files: its catalog names ads that no valid set has.
"""

import csv
import json
import math
import random
import socket
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

from conftest import make_context
from ctrserve import sample_data
from ctrserve.catalog import Placement, parse_ad_catalog
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from ctrserve.server import AdServer, ServerConfig
from test_server import oracle_bid, oracle_ctr
from test_snapshot_memory import COUNTRIES, VOCAB, catalog_records

THREADS = 4
OPS_PER_THREAD = 150
CAP_S = 10.0  # the clients stop sending once this much time has passed


def exchange(port, method, path, body=b""):
    """(status, body) of one request on a fresh connection."""
    head = f"{method} {path} HTTP/1.0\r\n"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


def file_sets(tmp_path):
    """Two valid file sets that share their ad_ids but not their bids, and a
    broken one: a catalog of other ad_ids with a model that does not load."""
    model = sample_data.fixture_path("model_normal_eq.json")
    keyword_map = sample_data.fixture_path("keyword_map_sports.json")
    valid = catalog_records(300, seed=5)
    rebid = [dict(record, bid=random.Random(i).randrange(50, 5001) / 100)
             for i, record in enumerate(valid)]
    broken = [dict(record, ad_id="broken-" + record["ad_id"]) for record in valid]
    broken_model = json.loads(Path(model).read_text())
    broken_model["theta"] = broken_model["theta"][:4]
    (tmp_path / "broken_model.json").write_text(json.dumps(broken_model))
    sets = {}
    for name, records, model_path in (("a", valid, model), ("b", rebid, model),
                                      ("broken", broken, str(tmp_path / "broken_model.json"))):
        path = tmp_path / f"catalog_{name}.json"
        path.write_text(json.dumps(records))
        sets[name] = ServerConfig(catalog_path=str(path), model_path=model_path,
                                  map_path=keyword_map,
                                  event_log_path=str(tmp_path / "events.csv"), port=0)
    return sets


def random_query(rng):
    category = rng.choice(list(VOCAB))
    return {"placement": rng.choice([p.value for p in Placement]),
            "size": rng.choice(DEFAULT_SIZE_REGISTRY), "category": category,
            "keywords": rng.sample(VOCAB[category], rng.randint(1, 3)),
            "country": rng.choice(COUNTRIES + ("",))}


def expected_answers(config, queries):
    """{(query index, mode): (ad_id, score) or None} over one valid set."""
    with open(config.catalog_path) as fh:
        catalog = list(parse_ad_catalog(fh))
    model = sample_data.normal_equation_model()
    keyword_map = sample_data.sports_keyword_map()
    answers = {}
    for i, query in enumerate(queries):
        request = make_context(placement=Placement(query["placement"]), size=query["size"],
                               category=query["category"], keywords=query["keywords"],
                               country=query["country"])
        best = oracle_ctr(catalog, request, model, keyword_map)
        answers[i, "ctr"] = None if best is None else (best[0].ad_id, best[1])
        ad = oracle_bid(catalog, request)
        answers[i, "bid"] = None if ad is None else (ad.ad_id, ad.bid)
    return answers


class Client:
    """One seeded client thread. Reloads take turns through `reload_lock`,
    because a reload points the server at its file set before it asks, so
    the test knows which set each successful reload made live."""

    def __init__(self, seed, srv, port, sets, queries, ad_ids, history, reload_lock, stop_at):
        self.rng = random.Random(seed)
        self.seed = seed
        self.srv, self.port, self.sets = srv, port, sets
        self.queries, self.ad_ids = queries, ad_ids
        self.history, self.reload_lock, self.stop_at = history, reload_lock, stop_at
        self.ads: list[tuple] = []  # (sent, answered, query index, mode, status, body)
        self.accepted: list[str] = []  # ip of each event answered 202
        self.refused_events = 0
        self.errors: list[str] = []

    def run(self):
        try:
            for n in range(OPS_PER_THREAD):
                if time.monotonic() > self.stop_at:
                    return
                kind = self.rng.choices(["ad", "event", "reload"], weights=[6, 3, 1])[0]
                getattr(self, kind)(n)
        except Exception as exc:  # reported by the test, which fails on it
            self.errors.append(repr(exc))

    def ad(self, n):
        i = self.rng.randrange(len(self.queries))
        mode = self.rng.choice(["bid", "ctr"])
        query = dict(self.queries[i], keywords=",".join(self.queries[i]["keywords"]), mode=mode)
        path = "/ad?" + urlencode(query)
        sent = time.monotonic()
        status, body = exchange(self.port, "GET", path)
        self.ads.append((sent, time.monotonic(), i, mode, status, body))

    def event(self, n):
        ip = f"10.{self.seed}.{n // 256}.{n % 256}"
        known = self.rng.random() < 0.8
        payload = dict(self.queries[self.rng.randrange(len(self.queries))], ip=ip,
                       ad_id=self.rng.choice(self.ad_ids) if known else "ghost",
                       clicked=self.rng.random() < 0.5)
        payload["size"] = self.rng.choice(DEFAULT_SIZE_REGISTRY)
        status, body = exchange(self.port, "POST", "/event", json.dumps(payload).encode())
        if status == 202:
            self.accepted.append(ip)
        elif status == 400 and not known:
            self.refused_events += 1
        else:
            self.errors.append(f"event {payload['ad_id']} answered {status} {body[:200]!r}")

    def reload(self, n):
        name = self.rng.choice(["a", "b", "broken"])
        with self.reload_lock:
            self.srv.config = self.sets[name]
            sent = time.monotonic()
            status, body = exchange(self.port, "POST", "/reload")
            self.history.append((sent, time.monotonic(), name, status))
        if status != (500 if name == "broken" else 200):
            self.errors.append(f"reload of {name} answered {status} {body[:200]!r}")


def live_sets(history, sent, answered):
    """The valid sets whose snapshot was live at some point in [sent,
    answered]: the last one made live before `sent`, and every one whose
    reload was in flight at some point in the interval."""
    done = [(end, name) for start, end, name, status in history
            if status == 200 and end < sent]
    live = {max(done)[1]}
    live.update(name for start, end, name, status in history
                if status == 200 and start < answered and end > sent)
    return live


def test_concurrent_clients_see_only_live_snapshots_and_every_accepted_event(tmp_path):
    sets = file_sets(tmp_path)
    rng = random.Random(23)
    queries = [random_query(rng) for _ in range(60)]
    expected = {name: expected_answers(sets[name], queries) for name in ("a", "b")}
    ad_ids = [record["ad_id"] for record in json.loads(Path(sets["a"].catalog_path).read_text())]
    srv = AdServer(sets["a"])
    history = [(-math.inf, -math.inf, "a", 200)]
    reload_lock = threading.Lock()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        port = srv.start()
        stop_at = time.monotonic() + CAP_S
        clients = [Client(seed, srv, port, sets, queries, ad_ids, history, reload_lock, stop_at)
                   for seed in range(THREADS)]
        threads = [threading.Thread(target=client.run) for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CAP_S + 20)
    finally:
        sys.setswitchinterval(interval)
        srv.stop()
    assert not any(thread.is_alive() for thread in threads)
    assert [error for client in clients for error in client.errors] == []

    ads = [ad for client in clients for ad in client.ads]
    assert len(ads) > 100
    for sent, answered, i, mode, status, body in ads:
        got = None if status == 204 else (json.loads(body)["ad_id"], json.loads(body)["score"])
        assert status in (200, 204), body
        live = live_sets(history, sent, answered)
        assert any(expected[name][i, mode] == got for name in live), (queries[i], mode, got)

    accepted = [ip for client in clients for ip in client.accepted]
    with open(srv.event_log.path, newline="") as fh:
        logged = [row["ip"] for row in csv.DictReader(fh)]
    assert sorted(logged) == sorted(accepted) and len(set(accepted)) == len(accepted)
    assert sum(client.refused_events for client in clients) > 0
    assert {name for _, _, name, status in history[1:] if status == 200} == {"a", "b"}
    assert any(name == "broken" for _, _, name, _ in history)
