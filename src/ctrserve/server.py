"""Contextual ad selection: an ordered scan of presorted (size, category)
buckets for bid/CTR ranking, and the low-latency HTTP front end with atomic
snapshot reload."""

from __future__ import annotations

import csv
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from .catalog import (EVENT_LOG_HEADER, AdCreative, EventRow, Placement,
                      RequestContext, keyword_set, keywords_field, parse_ad_catalog,
                      write_event_row)
from .errors import ContractError, EncodingError, ValidationError
from .features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size
from .keywords import KeywordMap, load_keyword_map, resolve_page_value
from .regression import RegressionModel, load_model, predict

MODE_BID = "bid"
MODE_CTR = "ctr"

NO_FILL = "no_fill"
FILLED = "filled"


@dataclass(frozen=True)
class AdResponse:
    status: str
    mode: str
    latency_micros: int = 0
    ad_id: str = ""
    campaign_id: str = ""
    landing_page: str = ""
    size: str = ""
    score: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "status": self.status, "mode": self.mode,
            "latency_micros": self.latency_micros, "ad_id": self.ad_id,
            "campaign_id": self.campaign_id, "landing_page": self.landing_page,
            "size": self.size, "score": self.score,
        })


def keyword_overlap(ad: AdCreative, request: RequestContext) -> int:
    return len(ad.keywords & request.page_keywords)


def _eligible(ads: Iterable[AdCreative], request: RequestContext) -> Iterator[AdCreative]:
    """The ads of one (size, category) bucket, in the order given, that pass
    the country target (an empty set means untargeted) and share at least one
    page keyword."""
    country, page = request.country, request.page_keywords
    for ad in ads:
        if (not ad.locations or country in ad.locations) and not ad.keywords.isdisjoint(page):
            yield ad


def _rank_by_bid(bucket: Sequence[AdCreative],
                 request: RequestContext) -> Optional[tuple[AdCreative, float]]:
    """Maximal keyword overlap, then maximal bid, then smallest ad_id. The
    bucket is in that (bid, ad_id) order, so the first ad to reach a new
    maximal overlap wins; no ad can beat an overlap of every page keyword."""
    best, best_overlap = None, 0
    for ad in _eligible(bucket, request):
        overlap = keyword_overlap(ad, request)
        if overlap > best_overlap:
            best, best_overlap = ad, overlap
            if overlap == len(request.page_keywords):
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
        size_code = encode_size(request.size, model.schema.size_registry)
    except EncodingError:
        return None
    bucket = state.bucket(request)
    ads = _eligible(reversed(bucket) if state.bid_ascending else bucket, request)
    best = next(ads, None)
    if best is None:
        return None
    placement_code = encode_placement(request.placement)
    kw_value = resolve_page_value(state.keyword_map, request.page_keywords, mode="fallback")
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


@dataclass
class ServingState:
    """Immutable snapshot of the state one request reads: the catalog, its
    (size, category) buckets each sorted by (bid descending, ad_id), the
    model and the keyword map."""

    catalog: tuple[AdCreative, ...]
    model: Optional[RegressionModel] = None
    keyword_map: Optional[KeywordMap] = None
    index: dict = field(init=False)
    ad_ids: frozenset = field(init=False)
    bid_ascending: bool = field(init=False)  # ctr scans a bucket from its end

    def __post_init__(self):
        index: dict[tuple[str, str], list[AdCreative]] = {}
        for ad in self.catalog:
            index.setdefault((ad.size, ad.category), []).append(ad)
        for ads in index.values():
            ads.sort(key=attrgetter("ad_id"))
            ads.sort(key=attrgetter("bid"), reverse=True)  # stable: ties keep ad_id order
        self.index = {key: tuple(ads) for key, ads in index.items()}
        self.ad_ids = frozenset(ad.ad_id for ad in self.catalog)
        self.bid_ascending = self.model is not None and self.model.bid_weight < 0

    def bucket(self, request: RequestContext) -> tuple[AdCreative, ...]:
        return self.index.get((request.size, request.category), ())


def serve(request: RequestContext, mode: str, state: ServingState) -> AdResponse:
    """Rank the request's (size, category) bucket in one ordered scan; a
    no-fill is a status, not an error."""
    start = time.perf_counter_ns()
    if mode == MODE_CTR:
        best = _rank_by_ctr(state, request)
    elif mode == MODE_BID:
        best = _rank_by_bid(state.bucket(request), request)
    else:
        raise ContractError(f"unknown serving mode {mode!r}")
    latency = int((time.perf_counter_ns() - start) // 1000)
    if best is None:
        return AdResponse(status=NO_FILL, mode=mode, latency_micros=latency)
    ad, score = best
    return AdResponse(status=FILLED, mode=mode, latency_micros=latency,
                      ad_id=ad.ad_id, campaign_id=ad.campaign_id,
                      landing_page=ad.landing_page, size=ad.size, score=score)


class EventLogWriter:
    """Append-only event log in the event-log CSV format, held open from
    construction to `close()`. Appends are serialized per writer; each row
    is flushed to the operating system when it is written, but never
    fsynced, so a host crash can lose recent rows."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", newline="")
        self._writer = csv.writer(self._fh)
        if self._fh.tell() == 0:
            self._writer.writerow(EVENT_LOG_HEADER)
            self._fh.flush()

    def record_event(self, state: ServingState, ad_id: str,
                     request: RequestContext, clicked: bool,
                     timestamp: Optional[int] = None) -> EventRow:
        """Log one impression; an unknown ad_id, a size `train` cannot
        encode, a timestamp <= 0 or page keywords the log could not read
        back raise ValidationError and nothing is written."""
        if ad_id not in state.ad_ids:
            raise ValidationError(f"unknown ad_id {ad_id!r}")
        if request.size not in DEFAULT_SIZE_REGISTRY:
            raise ValidationError(f"size {request.size!r} is not one of {DEFAULT_SIZE_REGISTRY}")
        area, city, country = request.location
        row = EventRow(
            timestamp=timestamp if timestamp is not None else time.time_ns() // 1_000_000,
            ad_id=ad_id, placement=request.placement, size=request.size,
            category=request.category, keywords=keywords_field(request.page_keywords),
            country=country, city=city, area=area, ip=request.ip, browser=request.browser,
            clicked=clicked)
        with self._lock:
            write_event_row(self._writer, row)
            self._fh.flush()
        return row

    def close(self) -> None:
        with self._lock:
            self._fh.close()


@dataclass
class ServerConfig:
    catalog_path: str
    model_path: Optional[str] = None
    map_path: Optional[str] = None
    event_log_path: Optional[str] = None
    port: int = 8080
    default_mode: str = MODE_BID


def load_state(config: ServerConfig) -> ServingState:
    """Load a snapshot from the configured files. A model that names the
    keyword map it was trained with must be served with a map of that
    category."""
    with open(config.catalog_path) as fh:
        catalog = tuple(parse_ad_catalog(fh))
    model = keyword_map = None
    if config.model_path:
        with open(config.model_path) as fh:
            model = load_model(fh)
    if config.map_path:
        with open(config.map_path) as fh:
            keyword_map = load_keyword_map(fh)
    if model is not None and keyword_map is not None and model.keyword_map_ref \
            and model.keyword_map_ref != keyword_map.category:
        raise ValidationError(f"model {config.model_path} was trained with the "
                              f"{model.keyword_map_ref!r} keyword map, but map "
                              f"{config.map_path} is for {keyword_map.category!r}")
    return ServingState(catalog=catalog, model=model, keyword_map=keyword_map)


_TEXT_FIELDS = ("size", "category", "area", "city", "country", "ip", "browser")

MAX_EVENT_BODY = 64 * 1024  # bytes; a larger POST /event body is refused unread
REQUEST_TIMEOUT_S = 10.0  # a connection idle this long, mid-request, is closed
# serve_forever sees a shutdown request only between polls of the listening
# socket, so this bounds how long AdServer.stop() waits.
POLL_INTERVAL_S = 0.02


def _request_context(fields: Mapping, page_keywords: frozenset[str]) -> RequestContext:
    """The RequestContext of an /ad query or an /event body; a field of the
    wrong type or value raises ValueError."""
    placement = Placement(fields.get("placement", Placement.ABOVE_FOLD.value))
    text = {name: fields.get(name, "") for name in _TEXT_FIELDS}
    bad = [name for name, value in text.items() if not isinstance(value, str)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be a string")
    return RequestContext(
        placement=placement, size=text["size"], category=text["category"],
        page_keywords=page_keywords,
        location=(text["area"], text["city"], text["country"]),
        ip=text["ip"], browser=text["browser"],
    )


def _parse_request_qs(query: str) -> tuple[RequestContext, Optional[str]]:
    params = {k: v[0] for k, v in parse_qs(query).items()}
    keywords = keyword_set(params.get("keywords", "").split(","))
    return _request_context(params, keywords), params.get("mode")


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
    if not isinstance(ad_id, str):
        raise ValueError("ad_id must be a string")
    keywords = keyword_set(payload.get("keywords", []))
    clicked = payload.get("clicked", False)
    if not isinstance(clicked, bool):
        raise ValueError("clicked must be true or false")
    return ad_id, _request_context(payload, keywords), clicked


def _error(code: int, message: str) -> tuple[int, str]:
    return code, json.dumps({"error": message})


class AdRequestHandler(BaseHTTPRequestHandler):
    """Routes GET /ad and /healthz, POST /event and /reload. Every request
    gets a status line: a fault that no route expects answers 500, and a
    client that stalls for REQUEST_TIMEOUT_S is disconnected."""

    server_version = "ctrserve/0.1"
    timeout = REQUEST_TIMEOUT_S
    # The base class answers a request line without a valid version in
    # HTTP/0.9 form, which has no status line.
    default_request_version = "HTTP/1.0"

    def log_message(self, fmt, *args):  # keep request serving quiet
        pass

    def parse_request(self) -> bool:
        """As the base class, but a blank request line, which it would drop
        unanswered, and an explicit HTTP/0.9 request, whose answer would
        have no status line, get 400."""
        if super().parse_request():
            if self.request_version != "HTTP/0.9":
                return True
            self.request_version = self.default_request_version
            self.send_error(400, "HTTP/0.9 is not supported")
        elif not self.requestline.split():
            self.send_error(400, "blank request line")
        return False

    def _send(self, code: int, body: str = ""):
        payload = body.encode("utf-8")
        self.send_response(code)
        if payload:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload:
            self.wfile.write(payload)

    def _answer(self, route) -> None:
        """Send the (status, body) that `route` returns; a request target
        that does not parse as a URL is answered 400 unrouted. A read that
        times out drops the connection (the base class closes it); any other
        exception is a fault answered 500, its traceback sent to stderr."""
        try:
            url = urlparse(self.path)
        except ValueError as exc:
            self._send(*_error(400, f"bad request target: {exc}"))
            return
        try:
            code, body = route(url, self.server.app)
        except TimeoutError:
            raise
        except Exception as exc:
            self.server.handle_error(self.request, self.client_address)
            code, body = _error(500, str(exc))
        self._send(code, body)

    def do_GET(self):
        self._answer(self._get)

    def do_POST(self):
        self._answer(self._post)

    def _get(self, url, app: "AdServer") -> tuple[int, str]:
        if url.path == "/healthz":
            return 200, json.dumps({"status": "ok"})
        if url.path != "/ad":
            return _error(404, "not found")
        try:
            context, mode = _parse_request_qs(url.query)
        except ValueError as exc:
            return _error(400, str(exc))
        mode = mode or app.default_mode
        if mode not in (MODE_BID, MODE_CTR):
            return _error(400, f"unknown mode {mode!r}")
        state = app.state
        if mode == MODE_CTR and (state.model is None or state.keyword_map is None):
            return _error(400, "ctr mode requires a model and keyword map")
        response = serve(context, mode, state)
        return (204, "") if response.status == NO_FILL else (200, response.to_json())

    def _post(self, url, app: "AdServer") -> tuple[int, str]:
        if url.path == "/reload":
            app.reload()  # a bad file raises: 500, and the old snapshot keeps serving
            return 200, json.dumps({"status": "reloaded"})
        if url.path != "/event":
            return _error(404, "not found")
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            return _error(400, "Content-Length must be a non-negative integer")
        if length > MAX_EVENT_BODY:
            return _error(413, f"event body over {MAX_EVENT_BODY} bytes")
        try:
            ad_id, context, clicked = _parse_event(self.rfile.read(length))
            app.event_log.record_event(app.state, ad_id, context, clicked)
        except (ValueError, ValidationError) as exc:
            return _error(400, str(exc))
        return 202, json.dumps({"status": "accepted"})


class AdServer:
    """HTTP front end around a ServingState snapshot. `state` is replaced
    atomically on reload; in-flight requests keep the snapshot they grabbed."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.default_mode = config.default_mode
        self.state = load_state(config)
        log_path = config.event_log_path or "events.csv"
        self.event_log = EventLogWriter(log_path)
        self._httpd: Optional[ThreadingHTTPServer] = None

    def reload(self) -> None:
        self.state = load_state(self.config)

    def start(self) -> int:
        """Bind and start serving on a background thread; returns the port."""
        self._httpd = ThreadingHTTPServer(("127.0.0.1", self.config.port), AdRequestHandler)
        self._httpd.app = self
        thread = threading.Thread(target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,),
                                  daemon=True)
        thread.start()
        return self._httpd.server_address[1]

    def stop(self) -> None:
        """Stop serving, if started, and close the event log."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        self.event_log.close()
