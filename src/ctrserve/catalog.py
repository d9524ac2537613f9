"""Domain entities plus the catalog, event-log and table file formats.

The three parties are the advertiser (AdCreative), the publisher page
(RequestContext) and the viewer (fields carried on the context). Each
logged impression is written as one EventRow. The offline commands read a
log back as a tally (`tally_event_log`): how often each distinct (ad,
placement, size, category, keywords, clicked) occurs, with no object per
row; a large log file is read in two processes.
`features.aggregate_events` folds that tally into regression-ready
TrainingRows.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import marshal
import math
import os
import stat
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import CtrServeError, ParseError, ValidationError


FEATURE_NAMES = ("placement", "size", "bid", "keyword_value")


class Placement(str, Enum):
    ABOVE_FOLD = "above_fold"
    BELOW_FOLD = "below_fold"


# The one table of placement text: queries, /event bodies, event logs and the CLI read it.
PLACEMENTS = {placement.value: placement for placement in Placement}


@dataclass(frozen=True, slots=True)
class AdCreative:
    """An advertiser's creative: category, size, floor-price bid, keywords.
    Slotted: a serving snapshot holds one per catalog record."""

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


class RequestContext(NamedTuple):
    """One page-view request: publisher features plus raw viewer features.

    Viewer fields (area/city/country/ip/browser) are carried through
    logging but never enter the regression features.
    """

    placement: Placement
    size: str
    category: str
    page_keywords: frozenset[str]
    area: str = ""
    city: str = ""
    country: str = ""
    ip: str = ""
    browser: str = ""


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


def as_text(stream) -> str:
    """The text of a str, of UTF-8 bytes, or of a stream that reads either."""
    if isinstance(stream, bytes):
        return stream.decode("utf-8")
    if isinstance(stream, str):
        return stream
    data = stream.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def parse_json(stream, error: type, what: str):
    """The JSON value of a document read by `as_text`. Text that is not JSON,
    too long an integer or too deep a nesting raises `error("<what>: ...")`."""
    text = as_text(stream)  # outside the try: UnicodeDecodeError is a ValueError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{what}: {exc}") from exc


@contextmanager
def open_text(path, newline=None):
    """The file at `path`, open for reading as UTF-8 text. Bytes that are
    not UTF-8, wherever in the file they are read, raise ParseError naming
    the path."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


JSON_NUMBER = (int, float)  # the JSON numbers; a bool is neither


def check_field(ok: bool, name: str, value) -> None:
    """ValueError naming the field `name` unless `ok`, the field's type test."""
    if not ok:  # the repr is cut short: a value from an /event body can be 64 KiB long
        raise ValueError(f"{name} has the wrong type: {value!r:.100}")


def list_of(value, kinds: tuple, name: str) -> list:
    """`value` if it is a list whose items' types are all in `kinds`;
    otherwise ValueError naming the field."""
    check_field(type(value) is list and all(type(v) in kinds for v in value), name, value)
    return value


_CATALOG_TEXT = ("ad_id", "campaign_id", "category", "size", "landing_page")


def _ad_creative(rec: dict, shared: dict) -> AdCreative:
    """The AdCreative of one catalog record. A missing required field raises
    KeyError and a field of the wrong type ValueError: the text fields must
    be strings, `bid` a number (not a bool), `keywords` and `locations`
    lists of strings. `shared` maps each value to the first equal one seen,
    so ads with equal keyword sets, location sets, campaigns, categories or
    sizes hold one object."""
    text = (rec["ad_id"], rec.get("campaign_id", ""), rec["category"], rec["size"],
            rec.get("landing_page", ""))
    if not _all_strings(text):
        bad = [name for name, value in zip(_CATALOG_TEXT, text) if not isinstance(value, str)]
        raise ValueError(f"{', '.join(bad)} must be a string")
    bid = rec["bid"]
    if type(bid) not in JSON_NUMBER:
        raise ValueError(f"bid must be a number, got {bid!r}")
    locations = rec.get("locations", [])
    if not (isinstance(locations, list) and _all_strings(locations)):
        raise ValueError(f"locations must be a list of strings, got {locations!r}")
    ad_id, campaign_id, category, size, landing_page = text
    try:
        bid = float(bid)
    except OverflowError:
        raise ValueError("bid is too large for a float") from None
    keywords = keyword_set(rec["keywords"])
    locations = frozenset(locations)
    share = shared.setdefault
    return AdCreative(ad_id, share(campaign_id, campaign_id), share(category, category),
                      share(size, size), bid, landing_page, share(keywords, keywords),
                      share(locations, locations))


def _catalog_records(stream) -> list:
    """The decoded JSON array of a catalog; its text is dropped on return."""
    text = as_text(stream)
    if not text.strip():
        return []
    records = parse_json(text, ParseError, "catalog is not valid JSON")
    if not isinstance(records, list):
        raise ParseError("catalog must be a JSON array of objects")
    return records


def parse_ad_catalog(stream) -> list[AdCreative]:
    """Parse a JSON-array ad catalog; enforces per-record invariants and
    ad_id uniqueness, preserving file order. Equal values share one object
    (see `_ad_creative`), and each record is freed once its ad is built."""
    records = _catalog_records(stream)
    ads: list[AdCreative] = []
    seen: set[str] = set()
    shared: dict = {}
    for i, rec in enumerate(records):
        records[i] = None
        if not isinstance(rec, dict):
            raise ParseError(f"catalog record {i}: expected an object")
        try:
            ad = _ad_creative(rec, shared)
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
    """One event-log row as plain fields, in `EVENT_LOG_HEADER` order: the
    type the server and the simulator write. `keywords` is the raw
    ';'-joined field (`keywords_field` builds it, `page_keywords` tokenizes
    it)."""

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


EVENT_LOG_HEADER = list(EventRow._fields)


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


def _header(rows) -> bool:
    """Read the header, the first row with a field that is not blank, from
    `rows`; False if there is none (an empty or blank log has no events). A
    header other than EVENT_LOG_HEADER raises ParseError."""
    try:
        for header in rows:
            if any(field.strip() for field in header):
                break
        else:
            return False
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ParseError(f"event row 0: {exc}") from exc
    if header != EVENT_LOG_HEADER:
        raise ParseError(f"unexpected event-log header: {header}")
    return True


def _tally_rows(rows, tally: dict, bids) -> int:
    """Check each row of `rows`, numbered from 1, and count it into `tally`
    (see `tally_event_log`); return how many rows there were."""
    get = tally.get
    fields = len(EVENT_LOG_HEADER)
    i = 0  # i + 1 is the row being read
    try:
        for i, row in enumerate(rows, start=1):
            if len(row) != fields:
                if not row:
                    continue
                raise ParseError(f"event row {i}: expected {fields} fields, got {len(row)}")
            (ts, ad_id, placement, size, category, keywords,
             _, _, _, _, _, clicked) = row
            try:
                timestamp = int(ts)
            except ValueError as exc:
                raise ValidationError(f"event row {i}: unparseable timestamp {ts!r}") from exc
            key = (ad_id, placement, size, category, keywords, clicked)
            counts = get(key)
            if counts is None:
                if clicked not in ("0", "1"):
                    raise ValidationError(f"event row {i}: clicked must be 0 or 1, got {clicked!r}")
                if placement not in PLACEMENTS:
                    raise ValidationError(f"event row {i}: unknown placement {placement!r}")
                if bids is not None and ad_id not in bids:
                    raise ValidationError(f"event row {i}: ad_id {ad_id!r} not in catalog")
                tally[key] = [1, i]
            else:
                counts[0] += 1
            if timestamp <= 0:
                raise ValidationError(f"event row {i}: timestamp must be > 0, got {ts!r}")
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ParseError(f"event row {i + 1}: {exc}") from exc
    return i


# About the size where two processes start to beat one: a smaller log is read in one.
SPLIT_MIN_BYTES = 1 << 20
_CHUNK_BYTES = 1 << 16


class _NotPlain(Exception):
    """A half of the log that `_plain_rows` cannot read as `csv.reader` would."""


def _plain_lines(chunk: bytes, field_limit: int) -> list[str]:
    """The lines of a chunk of whole lines, if it is plain: no quote or NUL
    (which `csv.reader` refuses before Python 3.11), line ends all "\\n" or
    all "\\r\\n", UTF-8, and no line over the csv module's field size limit.
    Such lines split on "," into the fields `csv.reader` reads. Any other
    chunk raises _NotPlain."""
    if b'"' in chunk or b"\0" in chunk:
        raise _NotPlain
    returns = chunk.count(b"\r")
    if returns and not returns == chunk.count(b"\r\n") == chunk.count(b"\n"):
        raise _NotPlain
    try:
        lines = chunk.decode("utf-8").split("\r\n" if returns else "\n")
    except UnicodeDecodeError:
        raise _NotPlain from None
    if not lines[-1]:
        lines.pop()  # the chunk ends with a line break
    if field_limit < _CHUNK_BYTES and max(map(len, lines), default=0) > field_limit:
        raise _NotPlain
    return lines


def _plain_rows(fd: int, start: int, end: int):
    """The rows of the bytes [start, end) of the file `fd`, which start a
    line, read in chunks of whole lines that `_plain_lines` accepts; a chunk
    it refuses, or a line of `_CHUNK_BYTES` or more, raises _NotPlain."""
    field_limit = csv.field_size_limit()
    while start < end:
        chunk = os.pread(fd, min(_CHUNK_BYTES, end - start), start)
        if start + len(chunk) < end:
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                raise _NotPlain
            chunk = chunk[:cut]
        start += len(chunk)
        yield map(str.split, _plain_lines(chunk, field_limit), repeat(","))


def _tally_half(fd: int, start: int, end: int, bids):
    """The tally and row count of the bytes [start, end) of the log; the
    half that starts the file starts with the header."""
    rows = chain.from_iterable(_plain_rows(fd, start, end))
    if start == 0 and not _header(rows):
        raise _NotPlain  # the header is not in the first half
    tally: dict = {}
    return tally, _tally_rows(rows, tally, bids)


def _quoted(fd: int, size: int) -> bool:
    """Whether the first `size` bytes of the file `fd` hold a '"'. A log
    written by csv.writer has one wherever a field holds a comma, a quote or
    a line break (a browser "... (KHTML, like Gecko)", a city "Washington,
    D.C."), and a half would refuse it only after reading up to it."""
    return any(b'"' in os.pread(fd, _CHUNK_BYTES, at) for at in range(0, size, _CHUNK_BYTES))


def _splittable(stream) -> Optional[tuple[int, int]]:
    """The file descriptor and size of `stream` if it is a UTF-8 text file
    at its start, of at least SPLIT_MIN_BYTES and without a quote, in a
    process of one thread that may run on two CPUs and can fork; otherwise
    None."""
    try:
        fd = stream.fileno()
        st = os.fstat(fd)
        encoding = codecs.lookup(stream.encoding).name
        at_start = stream.tell() == 0
    except (AttributeError, LookupError, OSError, ValueError):
        return None
    if (at_start and encoding == "utf-8" and stat.S_ISREG(st.st_mode)
            and st.st_size >= SPLIT_MIN_BYTES and hasattr(os, "fork")
            and threading.active_count() == 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and not _quoted(fd, st.st_size)):
        return fd, st.st_size
    return None


def _tally_in_two_processes(fd: int, size: int, bids) -> Optional[dict]:
    """The tally of the log in file `fd`, its second half read by a forked
    child, or None if either half refuses anything. The child sends its
    tally back over a pipe; the parent merges it into its own: counts of a
    key both saw add up, keys only the child saw follow in the child's
    order, their first rows numbered after the parent's rows."""
    import signal  # `import ctrserve.cli` does not load it otherwise

    middle = size // 2
    cut = os.pread(fd, _CHUNK_BYTES, middle).find(b"\n") + 1  # the first line break past it
    if not cut:
        return None
    middle += cut
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # such as too many processes: one process reads it all
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the child never returns: it always leaves by os._exit
        status = 1
        try:
            os.close(read_end)
            try:
                half = _tally_half(fd, middle, size, bids)[0]
            except Exception:  # any failure is a refusal: the parent reads the log again
                half = None
            with open(write_end, "wb") as out:
                marshal.dump(half, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as received:
            try:
                tally, rows = _tally_half(fd, 0, middle, bids)
            except (CtrServeError, _NotPlain, OSError):
                return None
            try:
                child = marshal.load(received)
            except (EOFError, ValueError):  # the child died before it sent
                return None
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if child is None:
        return None
    get = tally.get
    for key, (count, first) in child.items():
        counts = get(key)
        if counts is None:
            tally[key] = [count, first + rows]
        else:
            counts[0] += count
    return tally


def tally_event_log(stream, bids: Optional[Mapping[str, float]] = None) -> dict[tuple, list[int]]:
    """The event-log CSV (an open text file, str or bytes) as a tally: each
    distinct (ad_id, placement, size, category, keywords, clicked) of raw
    fields, in order of first appearance, maps to [how many rows have it,
    the number of the first of them]. These counts are all that
    `map-keywords` and `train` read of a log.

    Every row is checked, the first bad one raising with its number: its
    field count, then a timestamp that must be an integer, then `clicked`
    (0 or 1), the placement and, with `bids` (ad_id -> catalog bid), the
    ad_id, then the timestamp > 0. The checks of the tallied fields run only
    at a key's first row: a repeat of a key that passed them cannot fail
    them. Blank rows are skipped but numbered; an empty or blank log tallies
    nothing.

    A UTF-8 text file of at least SPLIT_MIN_BYTES, with no '"', is read in
    two processes (`_tally_in_two_processes`), each splitting plain lines
    on "," (`_plain_lines`). If either half refuses anything, the log is read
    again from the start by `csv.reader`, so the tally, or the error and
    its message, is always the one `csv.reader` gives."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(as_text(stream))
    split = _splittable(stream)
    tally = None if split is None else _tally_in_two_processes(*split, bids)
    if tally is None:
        tally = {}
        rows = csv.reader(stream)
        if _header(rows):
            _tally_rows(rows, tally, bids)
    return tally


def write_event_row(writer, row: EventRow) -> None:
    """Append one row in `EVENT_LOG_HEADER` order. A timestamp <= 0, which
    `tally_event_log` rejects, raises."""
    if row.timestamp <= 0:
        raise ValidationError(f"event for {row.ad_id!r}: timestamp must be > 0")
    writer.writerow(row._replace(placement=row.placement.value,
                                 clicked="1" if row.clicked else "0"))


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
    must be `header`. A row that `convert` refuses (ValueError, ValidationError)
    or that the csv module cannot read raises ParseError naming the row."""
    reader = csv.reader(io.StringIO(as_text(stream)))
    rows, i = [], -1  # i + 1 is the row being read, the header being row 0
    try:
        first = next(reader, None)
        if first != header:
            raise ParseError(f"unexpected {name}-table header: {first}")
        i = 0
        for i, row in enumerate(reader, start=1):
            if row:
                try:
                    rows.append(convert(row))
                except (ValueError, ValidationError) as exc:
                    raise ParseError(f"{name} row {i}: {exc}") from exc
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ParseError(f"{name} row {i + 1}: {exc}") from exc
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
