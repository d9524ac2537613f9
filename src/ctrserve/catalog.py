"""Domain entities plus catalog / event-log ingestion and aggregation.

The three parties are the advertiser (AdCreative), the publisher page
(RequestContext) and the viewer (fields carried on the context). Each
logged impression is one EventRow; rows are grouped into regression-ready
TrainingRows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import ParseError, ValidationError


FEATURE_NAMES = ("placement", "size", "bid", "keyword_value")


class Placement(str, Enum):
    ABOVE_FOLD = "above_fold"
    BELOW_FOLD = "below_fold"


@dataclass(frozen=True)
class AdCreative:
    """An advertiser's creative: category, size, floor-price bid, keywords."""

    ad_id: str
    campaign_id: str
    category: str
    size: str
    bid: float
    landing_page: str
    keywords: frozenset[str]
    locations: frozenset[str] = frozenset()

    def __post_init__(self):
        if not 0 < self.bid < math.inf:  # NaN fails too: buckets are sorted by bid
            raise ValidationError(f"ad {self.ad_id!r}: bid must be finite and > 0, got {self.bid}")
        if not self.keywords:
            raise ValidationError(f"ad {self.ad_id!r}: keywords must be nonempty")


@dataclass(frozen=True)
class RequestContext:
    """One page-view request: publisher features plus raw viewer features.

    Viewer fields (location/ip/browser) are carried through logging but
    never enter the regression features.
    """

    placement: Placement
    size: str
    category: str
    page_keywords: frozenset[str]
    location: tuple[str, str, str] = ("", "", "")  # (area, city, country)
    ip: str = ""
    browser: str = ""

    @property
    def country(self) -> str:
        return self.location[2]


@dataclass(frozen=True)
class TrainingRow:
    """One aggregated group in the numeric form the regression consumes."""

    placement_code: int
    size_code: int
    bid: float
    keyword_value: float
    ctr: float

    def __post_init__(self):
        if self.placement_code not in (0, 1):
            raise ValidationError(f"placement_code must be 0 or 1, got {self.placement_code}")
        if not 0.0 <= self.ctr <= 1.0:
            raise ValidationError(f"ctr must lie in [0,1], got {self.ctr}")


def normalize_token(token: str) -> str:
    return token.strip().lower()


def _all_strings(values) -> bool:
    try:
        "".join(values)  # str.join refuses any item that is not a str
    except TypeError:
        return False
    return True


def keyword_set(tokens: list) -> frozenset[str]:
    """The normalized keyword set of a list of strings: each token stripped
    and lowercased (`normalize_token`), empty tokens dropped. This is the
    one reader of keyword lists, whether from a catalog record, an event-log
    field, an /ad query, an /event body or the command line. Anything but a
    list of strings raises ValueError."""
    if isinstance(tokens, list):
        try:  # str.strip, unbound, refuses any item that is not a str
            keywords = frozenset(map(str.lower, map(str.strip, tokens)))
        except TypeError:
            pass
        else:
            return keywords - {""} if "" in keywords else keywords
    raise ValueError(f"keywords must be a list of strings, got {tokens!r}")


def _as_text(stream) -> str:
    if isinstance(stream, bytes):
        return stream.decode("utf-8")
    if isinstance(stream, str):
        return stream
    data = stream.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


_NUMBER = (int, float)  # the JSON numbers; a bool is neither


def _check(ok: bool, name: str, value) -> None:
    if not ok:  # the repr is cut short: a value from an /event body can be 64 KiB long
        raise ValueError(f"{name} has the wrong type: {value!r:.100}")


def _list_of(value, kinds: tuple, name: str) -> list:
    """`value` if it is a list whose items' types are all in `kinds`;
    otherwise ValueError naming the field."""
    _check(type(value) is list and all(type(v) in kinds for v in value), name, value)
    return value


_CATALOG_TEXT = ("ad_id", "campaign_id", "category", "size", "landing_page")


def _ad_creative(rec: dict) -> AdCreative:
    """The AdCreative of one catalog record. A missing required field raises
    KeyError and a field of the wrong type ValueError: the text fields must
    be strings, `bid` a number (not a bool), `keywords` and `locations`
    lists of strings."""
    text = (rec["ad_id"], rec.get("campaign_id", ""), rec["category"], rec["size"],
            rec.get("landing_page", ""))
    if not _all_strings(text):
        bad = [name for name, value in zip(_CATALOG_TEXT, text) if not isinstance(value, str)]
        raise ValueError(f"{', '.join(bad)} must be a string")
    bid = rec["bid"]
    if type(bid) not in (int, float):  # the JSON numbers; a bool is not one
        raise ValueError(f"bid must be a number, got {bid!r}")
    locations = rec.get("locations", [])
    if not (isinstance(locations, list) and _all_strings(locations)):
        raise ValueError(f"locations must be a list of strings, got {locations!r}")
    ad_id, campaign_id, category, size, landing_page = text
    return AdCreative(ad_id, campaign_id, category, size, float(bid), landing_page,
                      keyword_set(rec["keywords"]), frozenset(locations))


def parse_ad_catalog(stream) -> list[AdCreative]:
    """Parse a JSON-array ad catalog; enforces per-record invariants and
    ad_id uniqueness, preserving file order."""
    text = _as_text(stream)
    if not text.strip():
        return []
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError("catalog must be a JSON array of objects")
    ads: list[AdCreative] = []
    seen: set[str] = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ParseError(f"catalog record {i}: expected an object")
        try:
            ad = _ad_creative(rec)
        except KeyError as exc:
            raise ParseError(f"catalog record {i}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(f"catalog record {i}: {exc}") from exc
        if ad.ad_id in seen:
            raise ValidationError(f"duplicate ad_id {ad.ad_id!r} at record {i}")
        seen.add(ad.ad_id)
        ads.append(ad)
    return ads


def serialize_ad_catalog(ads: Sequence[AdCreative]) -> str:
    records = [{**asdict(ad), "keywords": sorted(ad.keywords), "locations": sorted(ad.locations)}
               for ad in ads]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


class EventRow(NamedTuple):
    """One event-log row as plain fields, the type both written and read.
    `keywords` is the raw ';'-joined field (`keywords_field` builds it,
    `page_keywords` tokenizes it); `served_bid` is the catalog bid when the
    log is read with one, else None (the log has no bid column)."""

    timestamp: int  # milliseconds since epoch
    ad_id: str
    placement: Placement
    size: str
    category: str
    keywords: str
    country: str
    city: str
    area: str
    ip: str
    browser: str
    clicked: bool
    served_bid: Optional[float] = None


EVENT_LOG_HEADER = list(EventRow._fields[:-1])  # every field but served_bid is written

_PLACEMENTS = {p.value: p for p in Placement}


def page_keywords(field: str) -> frozenset[str]:
    """The normalized keyword set of an event-log `keywords` field."""
    return keyword_set(field.split(";"))


def keywords_field(keywords: Iterable[str]) -> str:
    """The event-log `keywords` field of a page keyword set, which
    `page_keywords` reads back as the same set. A set that would not read
    back is refused: an empty one, or one with a token that is empty, not
    normalized or contains the ';' separator."""
    tokens = sorted(keywords)
    if not tokens:
        raise ValidationError("page keywords must be nonempty")
    bad = [t for t in tokens if not t or ";" in t or t != normalize_token(t)]
    if bad:
        raise ValidationError(f"page keywords cannot be logged: {bad}")
    return ";".join(tokens)


def read_event_log(stream, bids: Optional[Mapping[str, float]] = None) -> Iterator[EventRow]:
    """Stream the event-log CSV (an open text file, str or bytes) one
    validated row at a time. `bids` (ad_id -> bid) joins the served bid onto
    each row and rejects an ad_id outside the catalog; without it served_bid
    stays None and rows are only usable as keyword transactions."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(_as_text(stream))
    reader = csv.reader(stream)
    for header in reader:
        if any(field.strip() for field in header):
            break
    else:
        return  # an empty or blank log has no events
    if header != EVENT_LOG_HEADER:
        raise ParseError(f"unexpected event-log header: {header}")
    if bids is not None:
        bids = {ad_id: float(bid) for ad_id, bid in bids.items()}
    for i, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(EVENT_LOG_HEADER):
            raise ParseError(f"event row {i}: expected {len(EVENT_LOG_HEADER)} fields, got {len(row)}")
        (ts, ad_id, placement, size, category, keywords,
         country, city, area, ip, browser, clicked) = row
        try:
            timestamp = int(ts)
        except ValueError as exc:
            raise ValidationError(f"event row {i}: unparseable timestamp {ts!r}") from exc
        if clicked not in ("0", "1"):
            raise ValidationError(f"event row {i}: clicked must be 0 or 1, got {clicked!r}")
        placement_val = _PLACEMENTS.get(placement)
        if placement_val is None:
            raise ValidationError(f"event row {i}: unknown placement {placement!r}")
        served_bid = None
        if bids is not None:
            served_bid = bids.get(ad_id)
            if served_bid is None:
                raise ValidationError(f"event row {i}: ad_id {ad_id!r} not in catalog")
        if timestamp <= 0:
            raise ValidationError(f"event row {i}: timestamp must be > 0, got {ts!r}")
        # tuple.__new__ skips the generated keyword-argument __new__ (as _make does)
        yield tuple.__new__(EventRow, (timestamp, ad_id, placement_val, size, category, keywords,
                                       country, city, area, ip, browser, clicked == "1",
                                       served_bid))


def write_event_row(writer, row: EventRow) -> None:
    """Append one row in `EVENT_LOG_HEADER` order; `served_bid` is not
    written. A timestamp <= 0, which `read_event_log` rejects, raises."""
    if row.timestamp <= 0:
        raise ValidationError(f"event for {row.ad_id!r}: timestamp must be > 0")
    writer.writerow(row._replace(placement=row.placement.value,
                                 clicked="1" if row.clicked else "0")[:len(EVENT_LOG_HEADER)])


def start_event_log(fh):
    """The csv writer that appends event rows to `fh`, a text file open for
    reading and appending with newline="". An empty file gets the header.
    Any other file must start with the header line and end with a line
    terminator, so that the rows appended to it read back; otherwise
    ParseError. Only those two places are read, however long the log."""
    writer = csv.writer(fh)
    fh.seek(0)
    try:
        first = fh.readline(1024)  # the header is ~90 characters; another file may be one line
        if not first:
            writer.writerow(EVENT_LOG_HEADER)
            return writer
        if next(csv.reader([first])) != EVENT_LOG_HEADER:
            raise ParseError(f"unexpected event-log header: {first!r:.100}")
        end = fh.seek(0, io.SEEK_END)
        fh.seek(end - 1)
        if fh.read(1) not in ("\n", "\r"):
            raise ParseError("the last row lacks its line terminator")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not event-log text: {exc.reason}") from None
    fh.seek(0, io.SEEK_END)
    return writer


TRAINING_TABLE_HEADER = [*FEATURE_NAMES, "ctr"]
PAIRS_TABLE_HEADER = ["y", "y_pred"]


def _read_table(stream, header: list[str], name: str, convert) -> list:
    """`convert(row)` of each non-blank row of a CSV table whose first row
    must be `header`. A row that `convert` refuses with ValueError raises
    ParseError naming the row."""
    reader = csv.reader(io.StringIO(_as_text(stream)))
    first = next(reader, None)
    if first != header:
        raise ParseError(f"unexpected {name}-table header: {first}")
    rows = []
    for i, row in enumerate(reader, start=1):
        if row:
            try:
                rows.append(convert(row))
            except ValueError as exc:
                raise ParseError(f"{name} row {i}: {exc}") from exc
    return rows


def _finite(field: str) -> float:
    """A table field as a float; nan and inf are refused like any other
    text that is not a number."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"{field!r} is not a finite number")
    return value


def _training_row(row: list[str]) -> TrainingRow:
    if len(row) != len(TRAINING_TABLE_HEADER):
        raise ValueError(f"{len(row)} fields, expected {len(TRAINING_TABLE_HEADER)}")
    placement, size, bid, keyword_value, ctr = row
    return TrainingRow(int(placement), int(size), _finite(bid), _finite(keyword_value), _finite(ctr))


def parse_training_table(stream) -> list[TrainingRow]:
    """Parse a pre-aggregated training CSV (already in numeric-code form)."""
    return _read_table(stream, TRAINING_TABLE_HEADER, "training", _training_row)


def _pair(row: list[str]) -> tuple[float, float]:
    observed, predicted = map(_finite, row)  # a field that is not a number, or not two fields
    return observed, predicted


def parse_pairs_table(stream) -> tuple[list[float], list[float]]:
    """Parse a stored (observed, predicted) pairs CSV into its two columns."""
    pairs = _read_table(stream, PAIRS_TABLE_HEADER, "pairs", _pair)
    return [y for y, _ in pairs], [y_pred for _, y_pred in pairs]


def compute_ctr(clicks: int, impressions: int) -> float:
    """Click-through rate of a group: clicks / impressions."""
    if impressions <= 0:
        raise ValidationError(f"impressions must be >= 1, got {impressions}")
    if clicks < 0 or clicks > impressions:
        raise ValidationError(f"clicks must lie in [0, impressions], got {clicks}/{impressions}")
    return clicks / impressions


def aggregate_events(events: Iterable[EventRow], keyword_map) -> list[TrainingRow]:
    """Fold event rows, as `read_event_log` streams them, into groups by
    (placement, size, bid, keyword value) and emit one TrainingRow per group
    with its observed CTR.

    Viewer fields are never grouped on. Group order follows first
    appearance in the event stream. The size code and the page value are
    computed once per distinct `size` and `keywords` field; a field that
    cannot be encoded or resolved raises at its first row.
    """
    from .features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size
    from .keywords import resolve_page_value

    placement_codes = {p: encode_placement(p) for p in Placement}
    size_codes: dict[str, int] = {}
    page_values: dict[str, float] = {}
    groups: dict[tuple, list[int]] = {}  # key -> [impressions, clicks]
    for _, ad_id, placement, size, _, keywords, _, _, _, _, _, clicked, bid in events:
        if bid is None:
            raise ValidationError(f"event for ad {ad_id!r} has no served bid; "
                                  "read the log with a catalog to join bids")
        size_code = size_codes.get(size)
        if size_code is None:
            size_code = size_codes[size] = encode_size(size, DEFAULT_SIZE_REGISTRY)
        value = page_values.get(keywords)
        if value is None:
            value = page_values[keywords] = resolve_page_value(keyword_map,
                                                               page_keywords(keywords))
        key = (placement_codes[placement], size_code, bid, value)
        counts = groups.setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += clicked
    return [
        TrainingRow(placement_code=p, size_code=s, bid=b, keyword_value=kv,
                    ctr=compute_ctr(clicks, impressions))
        for (p, s, b, kv), (impressions, clicks) in groups.items()
    ]
