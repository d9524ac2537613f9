"""Contextual ad selection: an ordered scan of presorted (size, category)
buckets for bid/CTR ranking, and the HTTP front end, one selectors loop on
one thread, with atomic snapshot reload."""

from __future__ import annotations

import codecs
import csv
import errno
import gc
import hashlib
import json
import os
import selectors
import socket
import threading
import time
import traceback
from http import HTTPStatus
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence
from urllib.parse import unquote_plus, urlparse

from .catalog import (EVENT_LOG_HEADER, EVENT_LOG_HEADER_LINE, PLACEMENTS, AdCreative, EventRow,
                      Placement, RequestContext, _all_strings, catalog_ads, catalog_records,
                      check_field, decode_text, event_line, keyword_set, keywords_field,
                      worth_splitting)
from .errors import ContractError, EncodingError, ParseError, ValidationError
from .features import encode_placement, encode_size
from .keywords import KeywordMap, resolve_page_value
from .regression import RegressionModel, load_model_and_map, predict, read_file

MODE_BID = "bid"
MODE_CTR = "ctr"

NO_FILL = "no_fill"
FILLED = "filled"


class AdResponse(NamedTuple):
    status: str
    mode: str
    latency_micros: int = 0
    ad_id: str = ""
    campaign_id: str = ""
    landing_page: str = ""
    size: str = ""
    score: float = 0.0

    def to_json(self) -> str:
        """The bytes of `json.dumps(self._asdict())`, with the fixed keys spelled out."""
        score = self.score  # a float; NaN and the infinities take json's spelling
        score = float.__repr__(score) if score - score == 0 else json.dumps(score)
        return (f'{{"status": {_json_str(self.status)}, "mode": {_json_str(self.mode)}, '
                f'"latency_micros": {self.latency_micros}, "ad_id": {_json_str(self.ad_id)}, '
                f'"campaign_id": {_json_str(self.campaign_id)}, '
                f'"landing_page": {_json_str(self.landing_page)}, '
                f'"size": {_json_str(self.size)}, "score": {score}}}')


class _Bucket(tuple):
    """One (size, category) bucket's ads, with every keyword they carry."""

    keywords: frozenset = frozenset()


_NO_ADS = _Bucket(())


def _eligible(bucket: _Bucket, request: RequestContext, reverse=False) -> Iterator[AdCreative]:
    """The ads of one (size, category) bucket, in its order or reversed, that
    pass the country target (an empty set means untargeted) and share at
    least one page keyword. For a page that shares none of the bucket's
    keywords no ad can, so none is read."""
    country, page = request.country, request.page_keywords
    if bucket.keywords.isdisjoint(page):
        return
    for ad in reversed(bucket) if reverse else bucket:
        if (not ad.locations or country in ad.locations) and not ad.keywords.isdisjoint(page):
            yield ad


def _rank_by_bid(bucket: _Bucket, request: RequestContext) -> Optional[tuple[AdCreative, float]]:
    """Maximal keyword overlap, then maximal bid, then smallest ad_id. The
    bucket is in that (bid, ad_id) order, so the first ad to reach a new
    maximal overlap wins; no ad can beat an overlap of every page keyword."""
    best, best_overlap, page = None, 0, request.page_keywords
    for ad in _eligible(bucket, request):
        overlap = len(ad.keywords & page)
        if overlap > best_overlap:
            best, best_overlap = ad, overlap
            if overlap == len(page):
                break
    return None if best is None else (best, best.bid)


def _rank_by_ctr(state: "ServingState",
                 request: RequestContext) -> Optional[tuple[AdCreative, float]]:
    """Argmax of predicted CTR; ties break by higher bid, then smallest ad_id.

    Every ad of a bucket shares the request's placement, size and page
    keyword value, so the score varies only through theta_bid * bid and,
    rounding being monotone, never rises along the bucket's scan order. The
    first eligible ad therefore has the top score. When the score rises with
    bid it also has the highest bid, and the smallest ad_id among ads of
    that bid, so it wins. When the score falls with bid the scan runs bid
    ascending, and higher bids whose score rounds to the same top value win
    the tie, so the scan goes on while the score holds."""
    model = state.model
    try:
        size_code = encode_size(request.size)
    except EncodingError:
        return None
    ads = _eligible(state.bucket(request), request, state.bid_ascending)
    best = next(ads, None)
    if best is None:
        return None
    placement_code = encode_placement(request.placement)
    kw_value = resolve_page_value(state.keyword_map, request.page_keywords)
    best_score = predict(model, (placement_code, size_code, best.bid, kw_value))
    if state.bid_ascending:
        # Ascending bid puts equal bids in descending ad_id order, so a
        # later ad of the same bid is the smaller ad_id and also wins.
        for ad in ads:
            if ad.bid != best.bid and \
                    predict(model, (placement_code, size_code, ad.bid, kw_value)) != best_score:
                break
            best = ad
    return best, best_score


class ServingState:
    """Immutable snapshot of the state one request reads, complete when the
    constructor returns: the catalog's (size, category) buckets, each sorted
    by (bid descending, ad_id) with the set of every keyword its ads carry,
    which makes a page that shares none a no-fill without a scan; its ad_ids;
    the model; the keyword map; the bytes they were parsed from
    (`model_files`) and the `catalog_digest` of the catalog's, both empty
    unless `load_steps` read them. The buckets are the catalog's only copy:
    given `shares`, a snapshot of the same catalog, it takes those and ad_ids."""

    __slots__ = ("model", "keyword_map", "catalog_digest", "model_files", "index", "ad_ids",
                 "bid_ascending")

    def __init__(self, catalog: Sequence[AdCreative], model: Optional[RegressionModel] = None,
                 keyword_map: Optional[KeywordMap] = None, catalog_digest: bytes = b"",
                 model_files: tuple = (), shares: Optional[ServingState] = None):
        self.model, self.keyword_map, self.catalog_digest = model, keyword_map, catalog_digest
        self.model_files = model_files
        self.bid_ascending = model is not None and model.bid_weight < 0  # ctr scans from the end
        if shares is not None:
            self.index, self.ad_ids = shares.index, shares.ad_ids
            return
        index: dict[tuple[str, str], list[AdCreative]] = {}
        for ad in catalog:
            index.setdefault((ad.size, ad.category), []).append(ad)
        self.index = {}
        for key, ads in index.items():
            ads.sort(key=attrgetter("ad_id"))
            ads.sort(key=attrgetter("bid"), reverse=True)  # stable: ties keep ad_id order
            bucket = self.index[key] = _Bucket(ads)
            bucket.keywords = frozenset().union(*set(map(attrgetter("keywords"), ads)))
        self.ad_ids = frozenset(ad.ad_id for ad in catalog)

    def bucket(self, request: RequestContext) -> _Bucket:
        return self.index.get((request.size, request.category), _NO_ADS)


def serve(request: RequestContext, mode: str, state: ServingState) -> AdResponse:
    """Rank the request's (size, category) bucket in one ordered scan; a
    no-fill is a status, not an error. An unknown mode, or ctr on a snapshot
    without both a model and a keyword map, raises ContractError."""
    start = time.perf_counter_ns()
    if mode == MODE_CTR:
        if state.model is None or state.keyword_map is None:
            raise ContractError("ctr mode requires a model and keyword map")
        best = _rank_by_ctr(state, request)
    elif mode == MODE_BID:
        best = _rank_by_bid(state.bucket(request), request)
    else:
        raise ContractError(f"unknown mode {mode!r}")
    latency = int((time.perf_counter_ns() - start) // 1000)
    if best is None:
        return AdResponse(status=NO_FILL, mode=mode, latency_micros=latency)
    ad, score = best
    return AdResponse(status=FILLED, mode=mode, latency_micros=latency,
                      ad_id=ad.ad_id, campaign_id=ad.campaign_id,
                      landing_page=ad.landing_page, size=ad.size, score=score)


class EventLogWriter:
    """Append-only event log in the event-log CSV format, held open from
    construction to `close()`. An empty file gets `EVENT_LOG_HEADER_LINE`. Any
    other must start with the header line and end with a line terminator, so
    that the rows appended to it read back, or it raises ParseError naming the
    path and keeps its bytes; only those two places are read. Each row goes to
    the file in one write on its O_APPEND descriptor, so the file holds whole
    every row `record_event` returned and no byte of one it raised for: a write
    that fails is cut back off (`_append`). Rows are never fsynced, so a host
    crash can lose recent rows."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "ab+", buffering=0)
        reason = None
        try:
            fd = self._fh.fileno()
            head = os.pread(fd, 1024, 0)  # the header is ~90 bytes; another file may be one line
            # Only the first line is decoded, less a character the read cut short.
            first = codecs.utf_8_decode(head.splitlines(True)[0])[0] if head else ""
            if not head:
                self._append(EVENT_LOG_HEADER_LINE.encode())
            elif next(csv.reader([first])) != EVENT_LOG_HEADER:
                reason = f"unexpected event-log header: {first!r:.100}"
            elif os.pread(fd, 1, os.fstat(fd).st_size - 1) not in (b"\n", b"\r"):
                reason = "the last row lacks its line terminator"
        except UnicodeDecodeError as exc:
            reason = f"not event-log text: {exc.reason}"
        except BaseException:
            self._fh.close()
            raise
        if reason:
            self._fh.close()
            raise ParseError(f"cannot append to event log {self.path}: {reason}")

    def record_event(self, state: ServingState, ad_id: str,
                     request: RequestContext, clicked: bool,
                     timestamp: Optional[int] = None) -> EventRow:
        """Log one impression. An unknown ad_id, a size `train` cannot encode,
        page keywords the log could not read back, text UTF-8 cannot encode (a
        lone surrogate, which a JSON escape can spell) and a timestamp <= 0
        raise ValidationError, in that order, and nothing is written. A write
        that fails raises OSError, and `_append` cuts off what it wrote."""
        if ad_id not in state.ad_ids:
            raise ValidationError(f"unknown ad_id {ad_id!r}")
        encode_size(request.size)
        row = EventRow(
            timestamp=timestamp if timestamp is not None else time.time_ns() // 1_000_000,
            ad_id=ad_id, placement=request.placement, size=request.size,
            category=request.category, keywords=keywords_field(request.page_keywords),
            country=request.country, city=request.city, area=request.area, ip=request.ip,
            browser=request.browser, clicked=clicked)
        try:  # one encode checks every field: UTF-8 refuses a surrogate whatever is beside it
            data = event_line(row).encode("utf-8")
        except (UnicodeEncodeError, ValidationError):  # UTF-8 is refused before the timestamp
            for name, value in zip(row._fields, row):
                if isinstance(value, str):
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ValidationError(f"{name} cannot be stored as UTF-8: "
                                              f"{value!r:.100}") from None
            raise
        self._append(data)
        return row

    def _append(self, data: bytes) -> None:
        """Write `data` at the end of the log in one call. A write that fails
        or falls short is cut back off and raises OSError; if the cut fails
        too, the log closes, so that no row can follow a partial one."""
        fd = self._fh.fileno()
        end = os.lseek(fd, 0, os.SEEK_END)
        try:
            if (written := os.write(fd, data)) != len(data):
                raise OSError(f"the event log took {written} of {len(data)} bytes")
        except OSError:
            try:
                os.ftruncate(fd, end)
            except OSError:
                self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()


class ServerConfig:
    def __init__(self, catalog_path: str, model_path: Optional[str] = None,
                 map_path: Optional[str] = None, event_log_path: str = "events.csv",
                 port: int = 8080, default_mode: str = MODE_BID):
        self.catalog_path, self.model_path, self.map_path = catalog_path, model_path, map_path
        self.event_log_path, self.port, self.default_mode = event_log_path, port, default_mode


def catalog_digest(data: bytes) -> bytes:
    """SHA-256 over the length of `data` as 8 big-endian bytes and the SHA-256
    of each half, the first `len(data) // 2` bytes long. When it is
    `worth_splitting`, a helper thread hashes the second half meanwhile
    (hashlib releases the GIL); if none can start, this thread hashes both,
    and if the helper raises, so does this. No view of `data` outlives it."""
    middle, leaves = len(data) // 2, [None, None]

    def leaf(i: int, part: memoryview) -> None:
        try:
            leaves[i] = hashlib.sha256(part).digest()
        except BaseException as exc:  # raised below, on the calling thread
            leaves[i] = exc

    with memoryview(data) as view, view[:middle] as head, view[middle:] as tail:
        helper = None
        if worth_splitting(len(data)):
            helper = threading.Thread(target=leaf, args=(1, tail), name="ctrserve-digest")
            try:
                helper.start()
            except RuntimeError:  # such as too many threads: this one hashes both halves
                helper = None
        leaf(0, head)
        if helper is None:
            leaf(1, tail)
        else:
            helper.join()
    for part in leaves:
        if isinstance(part, BaseException):
            raise part
    return hashlib.sha256(len(data).to_bytes(8, "big") + leaves[0] + leaves[1]).digest()


def load_steps(config: ServerConfig, live: Optional[ServingState] = None):
    """Load a snapshot from the configured files in steps. Each step but the
    last yields the name of the stage it ran: "read" (the catalog's bytes and
    their digest, `catalog_digest`), "decode" (UTF-8, then JSON) or "ads"
    (each 256 ads, and the rest); the last yields the snapshot. A catalog
    with the digest of `live`'s, the snapshot being replaced, is not parsed
    again: the snapshot shares `live`'s buckets, in one step. The model and
    the map are read once each, and if both hold `live`'s bytes, `live`'s pair
    is taken unparsed; else a pair `load_model_and_map` refuses does not load.
    A file that is not UTF-8 raises ParseError naming its path.

    The cyclic collector is paused from the first step to the last, however
    the load ends. A load allocates tens of thousands of containers, which
    would start collections that also scan the live snapshot, and one such
    collection makes a step several ms longer; a snapshot holds no cycles,
    so reference counting alone frees the one a reload replaces. A collector
    that was off stays off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(config.catalog_path, "rb") as fh:
            data = fh.read()
        digest = catalog_digest(data)
        shares = live if live is not None and live.catalog_digest == digest else None
        ads: list[AdCreative] = []
        if shares is None:
            yield "read"
            data = decode_text(data, config.catalog_path)  # frees the bytes before the decode
            records, data = catalog_records(data), None
            yield "decode"
            for ad in catalog_ads(records):
                ads.append(ad)
                if not len(ads) % 256:
                    yield "ads"
            yield "ads"
        model_data = read_file(config.model_path)
        try:
            files = model_data, read_file(config.map_path)
        except OSError:  # as file by file, a refused model comes before an unreadable map
            load_model_and_map(config.model_path, None, model_data)
            raise
        same = live is not None and live.model_files == files  # a pair that passed every check
        model, keyword_map = (live.model, live.keyword_map) if same else load_model_and_map(
            config.model_path, config.map_path, *files)
        state = ServingState(catalog=ads, model=model, keyword_map=keyword_map,
                             catalog_digest=digest, model_files=files, shares=shares)
    finally:
        if enabled:
            gc.enable()
    yield state


def load_state(config: ServerConfig, live: Optional[ServingState] = None) -> ServingState:
    """Every step of `load_steps` at once, for start-up and library callers."""
    *_, state = load_steps(config, live)
    return state


_TEXT_FIELDS = ("size", "category", "area", "city", "country", "ip", "browser")

MAX_EVENT_BODY = 64 * 1024  # bytes; a larger POST /event body is refused unread
REQUEST_TIMEOUT_S = 10.0  # a connection idle this long, mid-request, is closed
MAX_LINE = 64 * 1024  # bytes of a request or header line, its line break included
MAX_HEADER_LINES = 100  # lines after the request line, the blank one that ends them included
ACCEPT_RETRY_S = 0.1  # out of resources, the listener is unwatched this long or until a close

_OUT_OF_RESOURCES = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)


def _request_context(fields: Mapping, page_keywords: frozenset[str]) -> RequestContext:
    """The RequestContext of an /ad query or an /event body; a field of the
    wrong type or value raises ValueError."""
    placement = fields.get("placement", Placement.ABOVE_FOLD.value)
    try:
        placement = PLACEMENTS[placement]
    except (KeyError, TypeError):  # the value is cut short, as `check_field` cuts it
        raise ValueError(f"{placement!r:.100} is not a valid Placement") from None
    text = [fields.get(name, "") for name in _TEXT_FIELDS]
    if not _all_strings(text):
        for name, value in zip(_TEXT_FIELDS, text):
            check_field(isinstance(value, str), name, value)
    size, category, *viewer = text
    return RequestContext(placement, size, category, page_keywords, *viewer)


def _query_fields(query: str) -> dict[str, str]:
    """Each name's first value in a query string, read as `parse_qs` reads
    it: pairs split on '&' and their first '=', a pair without a value
    dropped, '+' a space and %-escapes UTF-8 with replacement."""
    fields: dict[str, str] = {}
    for pair in query.split("&"):
        name, _, value = pair.partition("=")
        if value:
            if "%" in pair or "+" in pair:
                name, value = unquote_plus(name), unquote_plus(value)
            if name not in fields:
                fields[name] = value
    return fields


def _parse_event(body: bytes) -> tuple[str, RequestContext, bool]:
    """(ad_id, context, clicked) of a POST /event body; raises ValueError
    unless the body is a JSON object with a string ad_id, a list of string
    keywords and a boolean clicked."""
    try:
        payload = json.loads(body or b"{}")
    except RecursionError:
        raise ValueError("event body nests too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("event body must be a JSON object")
    ad_id = payload.get("ad_id")
    check_field(isinstance(ad_id, str), "ad_id", ad_id)
    keywords = keyword_set(payload.get("keywords", []))
    clicked = payload.get("clicked", False)
    check_field(isinstance(clicked, bool), "clicked", clicked)
    return ad_id, _request_context(payload, keywords), clicked


_OK, _ACCEPTED, _RELOADED = (json.dumps({"status": s}) for s in ("ok", "accepted", "reloaded"))


def _error(code: int, message: str) -> tuple[int, str]:
    return code, json.dumps({"error": message})


def _get(path: str, query: str, app: "AdServer") -> tuple[int, str]:
    if path == "/healthz":
        return 200, _OK
    if path != "/ad":
        return _error(404, "not found")
    try:
        fields = _query_fields(query)
        context = _request_context(fields, keyword_set(fields.get("keywords", "").split(",")))
    except ValueError as exc:
        return _error(400, str(exc))
    # RegressionModel fixes theta's length and the scaler's width at load, so ranking
    # cannot raise ContractError: one from serve() refuses the mode the client chose.
    try:
        response = serve(context, fields.get("mode") or app.config.default_mode, app.state)
    except ContractError as exc:
        return _error(400, str(exc))
    return (204, "") if response.status == NO_FILL else (200, response.to_json())


def _post(path: str, body: bytes, app: "AdServer") -> tuple[int, str]:
    """POST /event. POST /reload never comes here: the loop runs its load."""
    if path != "/event":
        return _error(404, "not found")
    try:
        ad_id, context, clicked = _parse_event(body)
    except ValueError as exc:
        return _error(400, str(exc))
    try:  # a fault of the log itself, such as a closed file, is a 500
        app.event_log.record_event(app.state, ad_id, context, clicked)
    except ValidationError as exc:
        return _error(400, str(exc))
    return 202, _ACCEPTED


_PHRASES = {status.value: status.phrase for status in HTTPStatus}


def _response(code: int, body: str) -> bytes:
    """An HTTP/1.0 response; the connection closes after it."""
    payload = body.encode("utf-8")
    head = f"HTTP/1.0 {code} {_PHRASES[code]}\r\n"
    if payload:
        head += "Content-Type: application/json\r\n"
    return f"{head}Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload


class _Refused(Exception):
    """A request the front end answers with `code` before any route runs."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _line_end(buf: bytearray, start: int, code: int):
    """Wait, by yielding, until `buf` holds a whole line from `start`, and
    return the offset just past its line break. A line over MAX_LINE bytes
    is refused with `code` as soon as that many bytes have arrived."""
    scan = start
    while (end := buf.find(b"\n", scan) + 1) == 0 and len(buf) - start <= MAX_LINE:
        scan = len(buf)
        yield
    if end == 0 or end - start > MAX_LINE:
        raise _Refused(code, f"line over {MAX_LINE} bytes")
    return end


def _check_request_line(words: list[str]) -> None:
    """The request-line rules of the standard library's http.server: a
    version must be HTTP/major.minor, 2.0 and later are refused 505, and a
    line without a version must be a GET. A blank line and an explicit
    HTTP/0.9 are refused too."""
    if not words:
        raise _Refused(400, "blank request line")
    if len(words) >= 3:
        version = words[-1]
        numbers = version[5:].split(".") if version.startswith("HTTP/") else []
        if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
            raise _Refused(400, f"bad request version {version[:20]!r}")
        if int(numbers[0]) >= 2:
            raise _Refused(505, f"HTTP version {version[5:]} is not supported")
        if version == "HTTP/0.9":
            raise _Refused(400, "HTTP/0.9 is not supported")
    if not 2 <= len(words) <= 3:
        raise _Refused(400, "a request line has a method, a target and a version")
    if len(words) == 2 and words[0] != "GET":
        raise _Refused(400, "a request line without a version must be a GET")


def _split_target(target: str) -> tuple[str, str]:
    """The path and query of a request target, as `urlparse` reads them,
    whose ValueError a malformed target raises. A target with no whitespace
    that starts with one '/' and holds no ';' (path parameters) or '#' (a
    fragment) splits on its first '?'; any other goes through `urlparse`."""
    if target[:1] == "/" and target[1:2] != "/" and ";" not in target and "#" not in target:
        path, _, query = target.partition("?")
        return path, query
    url = urlparse(target)
    return url.path, url.query


def _parse_request(buf: bytearray):
    """Read one request from `buf` as bytes arrive: a generator that yields
    while it needs more and returns (method, path, query, body), or raises
    _Refused. A line already whole in `buf` is read in place; only one still
    incomplete, or over MAX_LINE, waits in `_line_end`. Only a POST /event
    reads its Content-Length body; any other body is left unread."""
    pos = buf.find(b"\n") + 1
    if not 0 < pos <= MAX_LINE:
        pos = yield from _line_end(buf, 0, 414)
    words = buf[:pos].decode("latin-1").split()
    _check_request_line(words)
    method, target = words[0], words[1]
    lengths, lines = set(), 0
    while True:
        end = buf.find(b"\n", pos) + 1
        if not pos < end <= pos + MAX_LINE:
            end = yield from _line_end(buf, pos, 431)
        line, pos = buf[pos:end], end
        lines += 1
        if lines > MAX_HEADER_LINES:
            raise _Refused(431, "too many header lines")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if colon and name.lower() == b"content-length":
            lengths.add(bytes(value).strip(b" \t\r\n"))  # spaces and tabs may surround a value
    if method not in ("GET", "POST"):
        raise _Refused(501, f"unsupported method {method[:20]!r}")
    if target.startswith("//"):  # as http.server: no open redirect through //host
        target = "/" + target.lstrip("/")
    try:
        path, query = _split_target(target)
    except ValueError as exc:
        raise _Refused(400, f"bad request target: {exc}") from None
    if method != "POST" or path != "/event":
        return method, path, query, b""
    if len(lengths) > 1:
        raise _Refused(400, "Content-Length headers differ")
    length = lengths.pop() if lengths else b""
    try:  # only ASCII digits: int() would also read "+14", "1_4" and "14\x0b"
        size = int(length) if length.isdigit() else -1
    except ValueError:  # more digits than int() converts
        size = -1
    if size < 0:
        raise _Refused(400, "Content-Length must be a non-negative integer")
    if size > MAX_EVENT_BODY:
        raise _Refused(413, f"event body over {MAX_EVENT_BODY} bytes")
    while len(buf) - pos < size:
        yield
    return method, path, query, bytes(buf[pos:pos + size])


class _Connection:
    """A client connection on the loop: the bytes read so far, the parser
    that consumes them, the response bytes not yet sent, and the events the
    selector watches for it (0 while it is not registered)."""

    __slots__ = ("sock", "buf", "parser", "out", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.parser = _parse_request(self.buf)
        self.out = b""
        self.events = 0


class AdServer:
    """HTTP front end around a ServingState snapshot. `state` is replaced
    atomically on reload; a request reads the snapshot once.

    One thread runs a selectors loop: it accepts connections, parses each
    request from the bytes that have arrived, runs GET /ad, GET /healthz and
    POST /event, and answers HTTP/1.0, closing the connection after each
    response. A POST /reload takes about 35 ms on a 10,000-ad catalog whose
    bytes changed, so the loop runs one `load_steps` step per turn and serves
    between steps; a /reload that arrives during a load waits for one
    follow-up load. A connection that sends nothing for REQUEST_TIMEOUT_S
    while a request is incomplete is closed unanswered."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.state = load_state(config)
        self.event_log = EventLogWriter(config.event_log_path)
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and start the loop on a background thread; returns the port.
        A port outside 0-65535 raises ContractError before any socket opens."""
        port = self.config.port
        if not 0 <= port <= 65535:
            raise ContractError(f"port must be 0-65535, got {port}")
        self._listener = socket.create_server(("127.0.0.1", port))
        self._listener.setblocking(False)
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        # Waiting connections by deadline: each is its last activity plus
        # one timeout, so insertion order is deadline order.
        self._deadlines: dict[_Connection, float] = {}
        self._load = None  # the running `load_steps` generator and the /reloads it answers
        self._queued: list[_Connection] = []  # the /reloads its follow-up answers
        self._accept_resume: Optional[float] = None  # when an unwatched listener is watched again
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, name="ctrserve-loop", daemon=True)
        self._thread.start()
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        """Stop serving, if started, and close the event log. The loop
        answers the requests it has read, finishes the load in flight and
        its follow-up and answers their /reloads, closes the listening socket
        and every connection still mid-request, and exits. The log closes
        only then, so an event answered 202 is in it."""
        if self._thread is not None:
            self._stopping = True
            self._waker.send(b"\0")
            self._thread.join()
            self._waker.close()
            self._thread = None
        self.event_log.close()

    def _loop(self) -> None:
        try:
            while not self._stopping:
                timeout = None
                if self._deadlines:
                    timeout = max(0.0, next(iter(self._deadlines.values())) - time.monotonic())
                if self._accept_resume is not None:
                    retry = self._accept_resume - time.monotonic()
                    if retry > 0:
                        timeout = retry if timeout is None else min(timeout, retry)
                    else:
                        self._resume_accept()
                for key, events in self._selector.select(0 if self._load else timeout):
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.data is not None:
                        (self._receive if events & selectors.EVENT_READ else self._send)(key.data)
                if self._load is not None:
                    self._advance_load()
                now = time.monotonic()
                while self._deadlines and next(iter(self._deadlines.values())) <= now:
                    self._close(next(iter(self._deadlines)))
        finally:
            while self._load is not None:
                self._advance_load()
            for conn in list(self._deadlines):
                self._close(conn)
            self._selector.close()
            self._listener.close()
            self._wake.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:  # none left
                return
            except OSError as exc:
                # Out of descriptors or memory, the connection stays queued and
                # keeps the listener readable, so watching it would spin the loop.
                if exc.errno in _OUT_OF_RESOURCES:
                    self._selector.unregister(self._listener)
                    self._accept_resume = time.monotonic() + ACCEPT_RETRY_S
                return
            sock.setblocking(False)
            self._receive(_Connection(sock))  # the request has often arrived already

    def _resume_accept(self) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._accept_resume = None

    def _wait(self, conn: _Connection, events: int) -> None:
        """Watch `conn` for `events` and restart its timeout."""
        if conn.events != events:
            if conn.events:
                self._selector.modify(conn.sock, events, conn)
            else:
                self._selector.register(conn.sock, events, conn)
            conn.events = events
        self._deadlines.pop(conn, None)
        self._deadlines[conn] = time.monotonic() + REQUEST_TIMEOUT_S

    def _forget(self, conn: _Connection) -> None:
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        self._deadlines.pop(conn, None)

    def _close(self, conn: _Connection) -> None:
        self._forget(conn)
        conn.sock.close()
        if self._accept_resume is not None:  # a descriptor is free
            self._resume_accept()

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            self._wait(conn, selectors.EVENT_READ)
            return
        except OSError:
            data = b""
        if not data:  # the client went away mid-request
            self._close(conn)
            return
        conn.buf += data
        try:
            next(conn.parser)
        except StopIteration as done:
            self._dispatch(conn, *done.value)
        except _Refused as refused:
            self._reply(conn, *_error(refused.code, str(refused)))
        else:
            self._wait(conn, selectors.EVENT_READ)

    def _dispatch(self, conn: _Connection, method: str, path: str, query: str,
                  body: bytes) -> None:
        """Answer one request. A fault that no route expects is a 500, its
        traceback sent to stderr."""
        if method == "POST" and path == "/reload":
            self._forget(conn)
            self._queued.append(conn)
            self._start_load()
            return
        try:
            code, text = _get(path, query, self) if method == "GET" else _post(path, body, self)
        except Exception as exc:
            traceback.print_exc()
            code, text = _error(500, str(exc))
        self._reply(conn, code, text)

    def _reply(self, conn: _Connection, code: int, text: str) -> None:
        conn.out = _response(code, text)
        self._send(conn)

    def _send(self, conn: _Connection) -> None:
        try:
            conn.out = conn.out[conn.sock.send(conn.out):]
        except BlockingIOError:
            pass
        except OSError:
            conn.out = b""
        if conn.out:
            self._wait(conn, selectors.EVENT_WRITE)
            return
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._close(conn)

    def _start_load(self) -> None:
        if self._load is None and self._queued:  # the load answers every /reload queued
            self._load, self._queued = (load_steps(self.config, self.state), self._queued), []

    def _advance_load(self) -> None:
        """Run one step of the load. At its end, swap the snapshot in (or keep
        the old one on a 500), answer, and start any follow-up."""
        steps, reloads = self._load
        try:
            if not isinstance(state := next(steps), ServingState):
                return
            self.state = state
            code, text = 200, _RELOADED
        except Exception as exc:
            traceback.print_exc()
            code, text = _error(500, str(exc))
        self._load = None
        for conn in reloads:
            self._reply(conn, code, text)
        self._start_load()
