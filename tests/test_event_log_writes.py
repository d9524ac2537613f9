"""The event log's answers match its bytes: a row `record_event` returned
(an /event answered 202) is whole in the file, and one it raised for (a
500) left no byte there, even when the write fails part way. Each write
fault is made in a child process that limits its own file size, never in
the test process."""

import errno
import http.client
import json
import os
import signal
import threading
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from _oracles import event_key, read_event_log
from conftest import make_context
from ctrserve import sample_data
from ctrserve.catalog import (EVENT_LOG_HEADER_LINE, Placement, RequestContext, event_line,
                              keyword_set, tally_event_log)
from ctrserve.errors import ParseError, ValidationError
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from ctrserve.server import EventLogWriter, ServingState
from test_cli import child_python
from test_http import http_post
from test_server import make_ad

# Run first by every child: SIGXFSZ is ignored, so a write past the limit
# fails with EFBIG or falls short instead of killing the child, and
# `limit_file_size(n)` lowers the soft limit only, which the child can lift.
LIMIT_PRELUDE = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
HARD = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
def limit_file_size(soft):
    resource.setrlimit(resource.RLIMIT_FSIZE, (soft, HARD))
"""

# Logs `reference_lines`' nine rows to argv[1], the first eight under a file
# size limit of argv[2] bytes and the ninth after lifting it, and prints for
# each call [its error or None, the file before, the file after].
LIBRARY_CHILD = LIMIT_PRELUDE + """
import json
from pathlib import Path
from ctrserve.catalog import AdCreative, Placement, RequestContext
from ctrserve.server import EventLogWriter, ServingState
path, limit = Path(sys.argv[1]), int(sys.argv[2])
state = ServingState(catalog=(AdCreative("a1", "c1", "sports", "300x250", 20.0, "https://x",
                                         frozenset({"football"})),))
context = RequestContext(Placement.ABOVE_FOLD, "300x250", "sports", frozenset({"football"}),
                         country="PK")
log = EventLogWriter(path)
calls = []
for i in range(9):
    if i == 0:
        limit_file_size(limit)
    if i == 8:
        limit_file_size(HARD)
    before = path.read_text()
    try:
        log.record_event(state, "a1", context, clicked=i % 2 == 1, timestamp=10**6 + i)
        error = None
    except OSError as exc:
        error = [exc.errno, str(exc)]
    calls.append([error, before, path.read_text()])
log.close()
print(json.dumps(calls))
"""


def reference_lines(path, n_rows, ad_id="a1", context=make_context(), first=10**6):
    """The lines of a log that EventLogWriter writes, without a limit, with
    `n_rows` rows: the i-th clicked if i is odd, at timestamp `first` + i."""
    log = EventLogWriter(path)
    state = ServingState(catalog=(make_ad(ad_id),))
    for i in range(n_rows):
        log.record_event(state, ad_id, context, clicked=i % 2 == 1, timestamp=first + i)
    log.close()
    return path.read_text().splitlines(keepends=True)


def test_a_row_refused_for_the_file_size_limit_leaves_no_byte(tmp_path):
    header, *lines = reference_lines(tmp_path / "reference.csv", 9)
    limit = len(header) + len(lines[0]) * 5 // 2  # room for two and a half rows
    child = child_python("-c", LIBRARY_CHILD, str(tmp_path / "events.csv"), str(limit),
                         PYTHONDONTWRITEBYTECODE="1")
    out, err = child.communicate(timeout=60)
    assert child.returncode == 0, err
    calls = json.loads(out)
    accepted = [i for i, (error, _, _) in enumerate(calls) if error is None]
    assert accepted == [0, 1, 8]
    for i, (error, before, after) in enumerate(calls):
        if error is None:
            assert after == before + lines[i]
        else:
            assert after == before  # nothing of the refused row, not even a part
    assert calls[-1][2] == header + lines[0] + lines[1] + lines[8]


def serve_child(log, *prelude):
    """`ctrserve serve` on the sample catalog, logging to `log`, after the
    prelude's statements; returns the child and the port it bound."""
    code = "\n".join([LIMIT_PRELUDE, *prelude, "from ctrserve.cli import main",
                      "sys.exit(main(sys.argv[1:]))"])
    proc = child_python("-c", code, "serve", "--port", "0", "--out", str(log),
                        "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                        PYTHONDONTWRITEBYTECODE="1")
    line = proc.stdout.readline()
    if not line.startswith("serving on port "):
        proc.kill()
        pytest.fail(line + proc.communicate(timeout=30)[1])
    return proc, int(line.split()[3])


def event_body(i):
    return {"ad_id": "boots-01", "size": "300x250", "category": "sports", "country": "PK",
            "keywords": ["football"], "city": f"c{i:04d}", "clicked": i % 2 == 1}


def test_an_event_answered_500_for_the_file_size_limit_left_no_byte(tmp_path):
    header, row = reference_lines(tmp_path / "reference.csv", 1, "boots-01",
                                  make_context()._replace(city="c0000"), 1_700_000_000_000)
    limit = len(header) + len(row) * 5 // 2
    log = tmp_path / "events.csv"
    proc, port = serve_child(log, f"limit_file_size({limit})")
    statuses = []
    try:
        for i in range(8):
            before = log.read_bytes()
            status, _ = http_post(f"http://127.0.0.1:{port}/event", event_body(i))
            statuses.append(status)
            after = log.read_bytes()
            if status == 202:
                (event,) = read_event_log(header + after[len(before):].decode())
                assert after.startswith(before) and event.city == f"c{i:04d}"
            else:
                assert status == 500 and after == before
    finally:
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    assert statuses == [202, 202] + [500] * 6


def test_a_row_left_partial_by_a_failed_cut_closes_the_log(tmp_path, monkeypatch):
    path = tmp_path / "events.csv"
    log = EventLogWriter(path)
    state = ServingState(catalog=(make_ad("a1"),))
    log.record_event(state, "a1", make_context(), clicked=False, timestamp=1)
    before = path.read_bytes()
    write = os.write

    def write_half(fd, data):
        return write(fd, data[:len(data) // 2])

    def refuse(fd, length):
        raise OSError(errno.EIO, "cannot cut")

    monkeypatch.setattr(os, "write", write_half)
    monkeypatch.setattr(os, "ftruncate", refuse)
    with pytest.raises(OSError, match="took"):
        log.record_event(state, "a1", make_context(), clicked=True, timestamp=2)
    monkeypatch.undo()
    assert len(path.read_bytes()) > len(before)  # the half row the cut left
    with pytest.raises(ValueError):  # closed: no row follows the partial one
        log.record_event(state, "a1", make_context(), clicked=True, timestamp=3)
    with pytest.raises(ParseError, match="the last row lacks its line terminator"):
        EventLogWriter(path)


def test_a_header_that_cannot_be_written_leaves_an_empty_file_and_no_handle(tmp_path,
                                                                          monkeypatch):
    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    with pytest.raises(OSError, match="No space"):
        EventLogWriter(tmp_path / "events.csv")  # a handle left open fails as a ResourceWarning
    monkeypatch.undo()
    assert (tmp_path / "events.csv").read_bytes() == b""


def test_a_server_killed_under_event_traffic_restarts_with_each_accepted_row_once(tmp_path):
    log = tmp_path / "events.csv"
    proc, port = serve_child(log)
    accepted, in_flight = [], []
    enough = threading.Event()

    def client():
        i = 0
        while True:
            try:
                status, _ = http_post(f"http://127.0.0.1:{port}/event", event_body(i))
            except (OSError, http.client.HTTPException):
                in_flight.append(i)
                return
            assert status == 202
            accepted.append(i)
            if len(accepted) == 20:
                enough.set()
            i += 1

    thread = threading.Thread(target=client, daemon=True)
    try:
        thread.start()
        assert enough.wait(30)
    finally:
        proc.kill()
        proc.communicate(timeout=30)
    thread.join(30)
    assert not thread.is_alive() and len(in_flight) == 1
    proc, port = serve_child(log)  # the killed server's log is taken up again
    try:
        assert http_post(f"http://127.0.0.1:{port}/event", event_body(9999))[0] == 202
    finally:
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    cities = Counter(event.city for event in read_event_log(log.read_text()))
    assert [cities.pop(f"c{i:04d}") for i in accepted] == [1] * len(accepted)
    assert cities.pop("c9999") == 1
    assert cities.pop(f"c{in_flight[0]:04d}", 0) <= 1
    assert not cities


# The characters a CSV field must quote, non-ASCII text and, now and then,
# the lone surrogate that UTF-8 refuses.
FIELD_CHARS = (st.sampled_from([*',"\r\n;é中𐏿 '] * 4 + ["\ud800"])
               | st.characters(exclude_categories=()))
FIELD_TEXT = st.text(FIELD_CHARS, max_size=8)


@pytest.fixture(scope="module")
def property_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("property") / "events.csv"
    log = EventLogWriter(path)
    yield log, path
    log.close()


@seed(20141006)
@settings(max_examples=200, deadline=None)
@given(ad_id=st.sampled_from(["a1", 'a,"\r\né']), placement=st.sampled_from(Placement),
       size=st.sampled_from(DEFAULT_SIZE_REGISTRY), category=FIELD_TEXT,
       keywords=st.lists(st.text(FIELD_CHARS, min_size=1, max_size=8), min_size=1, max_size=3),
       area=FIELD_TEXT, city=FIELD_TEXT, country=FIELD_TEXT, ip=FIELD_TEXT, browser=FIELD_TEXT,
       clicked=st.booleans(),
       timestamp=st.integers(min_value=-1, max_value=10**13))
def test_a_logged_row_reads_back_as_returned(property_log, ad_id, placement, size, category,
                                             keywords, area, city, country, ip, browser,
                                             clicked, timestamp):
    log, path = property_log
    state = ServingState(catalog=(make_ad("a1"), make_ad('a,"\r\né')))
    context = RequestContext(placement, size, category, keyword_set(keywords), area, city,
                             country, ip, browser)
    before = path.read_bytes()
    try:
        row = log.record_event(state, ad_id, context, clicked, timestamp)
    except ValidationError:
        assert path.read_bytes() == before
        return
    line = path.read_bytes()[len(before):]
    assert line == event_line(row).encode("utf-8")
    text = EVENT_LOG_HEADER_LINE + line.decode("utf-8")
    assert list(read_event_log(text)) == [row]
    assert {key: count for key, (count, _) in tally_event_log(text).items()} == {event_key(row): 1}
