"""POST /reload on the loop: the snapshot loads in `load_steps` steps that
the loop runs between its other work, and each /reload is answered by a
load that read the files after the /reload arrived."""

import csv
import gc
import io
import json
import random
import signal
import socket
import threading
from pathlib import Path
from urllib.parse import urlencode

import pytest

from ctrserve import sample_data, server as server_module
from ctrserve.errors import ParseError
from ctrserve.server import AdServer, ServerConfig, load_state, load_steps
from test_cli import child_python
from test_http import wait_until
from test_http_concurrent import exchange, expected_answers, random_query
from test_snapshot_memory import catalog_records, config_for

RELOAD = b"POST /reload HTTP/1.0\r\nContent-Length: 0\r\n\r\n"


def held_loads(monkeypatch, release):
    """Make each load take its first step, which reads the files, and then
    wait until `release()` is true. Returns the first step each load took
    and the snapshot each load made."""
    started, made = [], []
    load_steps = server_module.load_steps

    def held(config, live):
        steps = load_steps(config, live)
        started.append(next(steps))  # a changed catalog yields "read" after its read and its digest
        yield started[-1]
        while not release():
            yield
        for step in steps:
            if isinstance(step, server_module.ServingState):
                made.append(step)
            yield step

    monkeypatch.setattr(server_module, "load_steps", held)
    return started, made


def send_reload(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(RELOAD)
    return sock


def answer(sock):
    """The status and body of the response on `sock`, read to its close."""
    with sock:
        response = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def write_catalog(config, n_ads):
    """Rewrite the catalog with `n_ads` ads, so the live ad count tells which
    version a load read."""
    Path(config.catalog_path).write_text(json.dumps(catalog_records(n_ads, seed=2)))


def test_a_reload_during_a_load_is_answered_by_a_load_that_reads_the_files_after_it(
        tmp_path, monkeypatch):
    srv = AdServer(config_for(tmp_path, catalog_records(600, seed=2)))
    release = threading.Event()
    started, made = held_loads(monkeypatch, release.is_set)
    port = srv.start()
    try:
        write_catalog(srv.config, 700)
        first = send_reload(port)
        wait_until(lambda: started)  # it has read the 700-ad catalog
        write_catalog(srv.config, 800)
        second = send_reload(port)
        wait_until(lambda: srv._queued)
        release.set()
        assert answer(first) == answer(second) == (200, {"status": "reloaded"})
        assert [len(state.ad_ids) for state in made] == [700, 800]
        assert len(srv.state.ad_ids) == 800
    finally:
        release.set()
        srv.stop()


def test_a_burst_of_reloads_during_one_load_runs_one_follow_up_load(tmp_path, monkeypatch):
    srv = AdServer(config_for(tmp_path, catalog_records(600, seed=2)))
    release = threading.Event()
    started, made = held_loads(monkeypatch, release.is_set)
    port = srv.start()
    try:
        write_catalog(srv.config, 700)
        first = send_reload(port)
        wait_until(lambda: started)
        write_catalog(srv.config, 800)
        burst = [send_reload(port) for _ in range(10)]
        wait_until(lambda: len(srv._queued) == 10)
        release.set()
        assert [answer(sock) for sock in [first, *burst]] == [(200, {"status": "reloaded"})] * 11
        assert [len(state.ad_ids) for state in made] == [700, 800]
    finally:
        release.set()
        srv.stop()


def test_stop_during_a_load_runs_it_and_its_follow_up_and_answers_both(tmp_path, monkeypatch):
    srv = AdServer(config_for(tmp_path, catalog_records(600, seed=2)))
    started, made = held_loads(monkeypatch, lambda: srv._stopping)  # each load waits for stop()
    port = srv.start()
    write_catalog(srv.config, 700)
    first = send_reload(port)
    wait_until(lambda: started)
    write_catalog(srv.config, 800)
    second = send_reload(port)
    wait_until(lambda: srv._queued)
    srv.stop()
    assert answer(first) == answer(second) == (200, {"status": "reloaded"})
    assert [len(state.ad_ids) for state in made] == [700, 800]
    assert len(srv.state.ad_ids) == 800 and srv.event_log._fh.closed


@pytest.mark.parametrize("was_enabled", [True, False])
def test_a_load_pauses_the_collector_from_its_first_step_to_its_last(tmp_path, was_enabled):
    """The collector is off at every step of a changed-catalog load, and
    after a load that ends, one that raises and one closed mid-load it is as
    it was before the load."""
    config = config_for(tmp_path, catalog_records(1_000, seed=2))
    live = load_state(config)
    path = Path(config.catalog_path)
    path.write_bytes(path.read_bytes() + b"\n")  # the catalog changed: every step parses
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(catalog_records(1_000, seed=2))[:-1])
    (gc.enable if was_enabled else gc.disable)()
    try:
        steps = [gc.isenabled() for step in load_steps(config, live) if isinstance(step, str)]
        assert len(steps) > 4 and not any(steps) and gc.isenabled() == was_enabled
        config.catalog_path = str(bad)
        with pytest.raises(ParseError):
            load_state(config, live)
        assert gc.isenabled() == was_enabled
        config.catalog_path = str(path)
        steps = load_steps(config, live)
        for _ in range(3):
            assert isinstance(next(steps), str) and not gc.isenabled()
        steps.close()
        assert gc.isenabled() == was_enabled
    finally:
        gc.enable()


# A `ctrserve serve` child whose loads report how many GET requests the loop
# answered between their first and their last step.
COUNTING_CHILD = """
import sys
from ctrserve import server
from ctrserve.cli import main

answered = [0]
get, load_steps = server._get, server.load_steps

def counted_get(path, query, app):
    answered[0] += 1
    return get(path, query, app)

def counted_load(config, live):
    first = answered[0]
    for step in load_steps(config, live):
        if isinstance(step, server.ServingState):
            print(f"answered during load: {answered[0] - first}", file=sys.stderr, flush=True)
        yield step

server._get, server.load_steps = counted_get, counted_load
sys.exit(main(sys.argv[1:]))
"""

RELOADS = 10


def test_the_loop_answers_requests_between_the_steps_of_every_reload(tmp_path):
    """Ten reloads alternate two catalogs of 3,000 ads that differ in their
    bids while a client sends GET /ad. Every answer is one snapshot's
    exhaustive-oracle answer, and the loop answers at least one request
    between the first and the last step of every reload."""
    model = sample_data.fixture_path("model_normal_eq.json")
    keyword_map = sample_data.fixture_path("keyword_map_sports.json")
    records = catalog_records(3_000, seed=5)
    rebid = [dict(record, bid=random.Random(i).randrange(50, 5001) / 100)
             for i, record in enumerate(records)]
    versions = [json.dumps(version).encode() for version in (records, rebid)]
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(versions[0])
    for i, version in enumerate(versions):
        (tmp_path / f"catalog_{i}.json").write_bytes(version)
    rng = random.Random(7)
    queries = [random_query(rng) for _ in range(40)]
    expected = [expected_answers(ServerConfig(catalog_path=str(tmp_path / f"catalog_{i}.json")),
                                 queries) for i in range(2)]
    proc = child_python("-c", COUNTING_CHILD, "serve", "--ads", str(catalog), "--model", model,
                        "--map", keyword_map, "--mode", "ctr", "--port", "0",
                        "--out", str(tmp_path / "events.csv"))
    answers, done = [], threading.Event()
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on port "), line
        port = int(line.split()[3])

        def client():
            while not done.is_set():
                i = len(answers) % len(queries)
                query = dict(queries[i], keywords=",".join(queries[i]["keywords"]))
                status, body = exchange(port, "GET", "/ad?" + urlencode(query))
                answers.append((i, None if status == 204 else
                                (json.loads(body)["ad_id"], json.loads(body)["score"])))

        thread = threading.Thread(target=client)
        thread.start()
        try:
            for n in range(RELOADS):
                catalog.write_bytes(versions[(n + 1) % 2])
                assert exchange(port, "POST", "/reload") == (200, b'{"status": "reloaded"}')
        finally:
            done.set()
            thread.join(timeout=30)
    finally:
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    counts = [int(line.rsplit(" ", 1)[1]) for line in err.splitlines()
              if line.startswith("answered during load: ")]
    assert len(counts) == 1 + RELOADS  # start-up loads too
    assert all(count >= 1 for count in counts[1:]), counts
    assert answers and all(answer in (expected[0][i, "ctr"], expected[1][i, "ctr"])
                           for i, answer in answers)
    assert {expected[0][i, "ctr"] for i in range(len(queries))} != \
        {expected[1][i, "ctr"] for i in range(len(queries))}


# A `ctrserve serve` child whose reloads, after their first step, wait for
# `AdServer.stop()` to begin; it reports on stderr when a reload waits.
STOP_HELD_CHILD = """
import sys
from ctrserve import server
from ctrserve.cli import main

stopping = []
load_steps, stop = server.load_steps, server.AdServer.stop

def held(config, live):
    steps = load_steps(config, live)
    yield next(steps)
    if live is not None:  # a reload, not the start-up load
        print("reload held", file=sys.stderr, flush=True)
        while not stopping:
            yield
    yield from steps

def stopped(self):
    stopping.append(True)
    stop(self)

server.load_steps, server.AdServer.stop = held, stopped
sys.exit(main(sys.argv[1:]))
"""

EVENT = {"ad_id": "boots-01", "clicked": True, "placement": "above_fold", "size": "300x250",
         "category": "sports", "keywords": ["football"]}


def test_sigterm_stops_serve_as_ctrl_c_does(tmp_path):
    """SIGTERM during a held /reload: the load runs to its end and is
    answered, the events answered 202 are in the log, whose last row is
    whole, and the exit status is 0."""
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(Path(sample_data.fixture_path("ad_catalog_sample.json")).read_bytes())
    log = tmp_path / "events.csv"
    proc = child_python("-c", STOP_HELD_CHILD, "serve", "--ads", str(catalog), "--port", "0",
                        "--out", str(log))
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on port "), line + proc.stderr.read()
        port = int(line.split()[3])
        for _ in range(3):
            assert exchange(port, "POST", "/event", json.dumps(EVENT).encode())[0] == 202
        catalog.write_bytes(catalog.read_bytes() + b"\n")  # a changed catalog: the load has steps
        reload = send_reload(port)
        assert proc.stderr.readline() == "reload held\n"
        proc.send_signal(signal.SIGTERM)
        assert answer(reload) == (200, {"status": "reloaded"})
    except BaseException:
        proc.kill()
        raise
    finally:
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    data = log.read_bytes()
    assert data.endswith(b"\n")
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    assert len(rows) == 4 and [row[1] for row in rows[1:]] == ["boots-01"] * 3
    assert {len(row) for row in rows} == {12}
