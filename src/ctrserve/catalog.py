"""Domain entities plus the catalog, event-log and table file formats.

The three parties are the advertiser (AdCreative), the publisher page
(RequestContext) and the viewer (fields carried on the context). Each
logged impression is written as one EventRow. The offline commands read a
log back as a tally (`tally_event_log`): how often each distinct (ad,
placement, size, category, keywords, clicked) occurs, with no object per
row; a large log file is read in two processes, which cut a row only where
a tallied field ends. `features.aggregate_events` folds that tally into
regression-ready TrainingRows.
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
from enum import Enum
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CtrServeError, ParseError, ValidationError


FEATURE_NAMES = ("placement", "size", "bid", "keyword_value")


class Placement(str, Enum):
    ABOVE_FOLD = "above_fold"
    BELOW_FOLD = "below_fold"


# The one table of placement text: queries, /event bodies, event logs and the CLI read it.
PLACEMENTS = {placement.value: placement for placement in Placement}


class _Frozen:
    """Base of the package's immutable types that check their values: each
    is a class of `__slots__` whose `__init__` checks, then hands the values
    here in slot order. After that, assigning or deleting a field raises
    AttributeError. Equality (same type, equal values), hash and repr read
    the slots in order."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"


class AdCreative(_Frozen):
    """An advertiser's creative: category, size, floor-price bid, keywords.
    Slotted: a serving snapshot holds one per catalog record. `__init__` sets
    the slots through their descriptors (`_AD_SLOTS`), not `object.__setattr__`."""

    __slots__ = ("ad_id", "campaign_id", "category", "size", "bid", "landing_page", "keywords",
                 "locations")

    def __init__(self, ad_id: str, campaign_id: str, category: str, size: str, bid: float,
                 landing_page: str, keywords: frozenset[str], locations=frozenset()):
        if not 0 < bid < math.inf:  # NaN fails too: buckets are sorted by bid
            raise ValidationError(f"ad {ad_id!r}: bid must be finite and > 0, got {bid}")
        if not keywords:
            raise ValidationError(f"ad {ad_id!r}: keywords must be nonempty")
        set_ad, set_camp, set_cat, set_size, set_bid, set_page, set_kw, set_loc = _AD_SLOTS
        set_ad(self, ad_id)
        set_camp(self, campaign_id)
        set_cat(self, category)
        set_size(self, size)
        set_bid(self, bid)
        set_page(self, landing_page)
        set_kw(self, keywords)
        set_loc(self, locations)


_AD_SLOTS = tuple(getattr(AdCreative, name).__set__ for name in AdCreative.__slots__)


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


class TrainingRow(_Frozen):
    """One aggregated group in the numeric form the regression consumes."""

    __slots__ = ("placement_code", "size_code", "bid", "keyword_value", "ctr")

    def __init__(self, placement_code: int, size_code: int, bid: float, keyword_value: float,
                 ctr: float):
        if placement_code not in (0, 1):
            raise ValidationError(f"placement_code must be 0 or 1, got {placement_code}")
        if not 0.0 <= ctr <= 1.0:
            raise ValidationError(f"ctr must lie in [0,1], got {ctr}")
        super().__init__(placement_code, size_code, bid, keyword_value, ctr)


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


def _not_utf8(source, exc: UnicodeDecodeError, offset: Optional[int] = 0) -> ParseError:
    """ParseError naming `source`, in the text of `exc` with its positions
    moved on by `offset`, to the place in the file of the bytes it decoded;
    with no position if that place is not known (`offset` None)."""
    one = exc.end - exc.start == 1
    where = f"byte 0x{exc.object[exc.start]:02x}" if one else "bytes"
    if offset is not None:
        start = exc.start + offset
        where += f" in position {start}" + ("" if one else f"-{exc.end + offset - 1}")
    return ParseError(f"{source} is not UTF-8 text: '{exc.encoding}' codec can't decode "
                      f"{where}: {exc.reason}")


def decode_text(data: bytes, source) -> str:
    """`data` as UTF-8 text, its line ends as written: the text that
    `open_text(source)` reads from a file holding `data`. Bytes that are not
    UTF-8 raise ParseError naming `source`, as there."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from exc


def as_text(stream) -> str:
    """The text of a str, of UTF-8 bytes, or of a stream that reads either;
    bytes that are not UTF-8 raise ParseError."""
    if isinstance(stream, str):
        return stream
    data = stream if isinstance(stream, bytes) else stream.read()
    return decode_text(data, "input") if isinstance(data, bytes) else data


def parse_json(stream, what: str):
    """The JSON value of a document read by `as_text`. Text that is not JSON,
    too long an integer or too deep a nesting raises `ParseError("<what>: ...")`."""
    text = as_text(stream)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{what}: {exc}") from exc


@contextmanager
def open_text(path):
    """The file at `path`, open for reading as UTF-8 text, its line ends as
    written. Bytes that are not UTF-8 raise ParseError naming the path and
    their place in the file, or no place in a file that cannot seek (a pipe),
    which cannot tell how much of it was read."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:  # `exc.object` ends where the file was last read
            offset = fh.buffer.tell() - len(exc.object) if fh.seekable() else None
            raise _not_utf8(path, exc, offset) from exc


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


def catalog_records(stream) -> list:
    """The decoded JSON array of a catalog; its text is dropped on return."""
    records = parse_json(stream, "catalog is not valid JSON")
    if not isinstance(records, list):
        raise ParseError("catalog must be a JSON array of objects")
    return records


def parse_ad_catalog(stream) -> list[AdCreative]:
    """Parse a JSON-array ad catalog: the ads of `catalog_ads`, in file order."""
    return list(catalog_ads(catalog_records(stream)))


def catalog_ads(records: list) -> Iterator[AdCreative]:
    """Yield the ad of each decoded catalog record, in order; enforces
    per-record invariants and ad_id uniqueness. A missing or mistyped field is
    a ParseError naming the record. Each record is freed once its ad is built.
    Within one parse, equal values are one object (`shared`), and each distinct
    keyword list is read once: `shared` also maps it, as a tuple, to its set."""
    seen: set[str] = set()
    shared: dict = {}
    share = shared.setdefault
    for i, rec in enumerate(records):
        records[i] = None
        if not isinstance(rec, dict):
            raise ParseError(f"catalog record {i}: expected an object")
        try:
            text = (rec["ad_id"], rec.get("campaign_id", ""), rec["category"], rec["size"],
                    rec.get("landing_page", ""))
            if not _all_strings(text):
                bad = [name for name, value in zip(_CATALOG_TEXT, text)
                       if not isinstance(value, str)]
                raise ValueError(f"{', '.join(bad)} must be a string")
            bid = rec["bid"]
            if type(bid) not in JSON_NUMBER:
                raise ValueError(f"bid must be a number, got {bid!r}")
            locations = rec.get("locations", [])
            if not (isinstance(locations, list) and _all_strings(locations)):
                raise ValueError(f"locations must be a list of strings, got {locations!r}")
            try:
                bid = float(bid)
            except OverflowError:
                raise ValueError("bid is too large for a float") from None
            raw = rec["keywords"]
            try:
                keywords = shared.get(tuple(raw) if type(raw) is list else None)
            except TypeError:  # a list that holds a list or an object
                keywords = None
            if keywords is None:  # a list not seen in this parse, or not a list of strings
                keywords = keyword_set(raw)
                keywords = shared[tuple(raw)] = share(keywords, keywords)
        except KeyError as exc:
            raise ParseError(f"catalog record {i}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(f"catalog record {i}: {exc}") from exc
        ad_id, campaign_id, category, size, landing_page = text
        locations = frozenset(locations)
        ad = AdCreative(ad_id, share(campaign_id, campaign_id), share(category, category),
                        share(size, size), bid, landing_page, keywords,
                        share(locations, locations))
        if ad_id in seen:
            raise ValidationError(f"duplicate ad_id {ad_id!r} at record {i}")
        seen.add(ad_id)
        yield ad


def serialize_ad_catalog(ads: Sequence[AdCreative]) -> str:
    records = [{**dict(zip(AdCreative.__slots__, ad._values())), "keywords": sorted(ad.keywords),
                "locations": sorted(ad.locations)} for ad in ads]
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


def _check_key(i: int, key: tuple, bids) -> None:
    """ValidationError naming row `i`, a key's first, unless `clicked` is 0
    or 1, the placement is known and, with `bids`, the ad_id is in the catalog."""
    ad_id, placement, _, _, _, clicked = key
    if clicked not in ("0", "1"):
        raise ValidationError(f"event row {i}: clicked must be 0 or 1, got {clicked!r}")
    if placement not in PLACEMENTS:
        raise ValidationError(f"event row {i}: unknown placement {placement!r}")
    if bids is not None and ad_id not in bids:
        raise ValidationError(f"event row {i}: ad_id {ad_id!r} not in catalog")


# About the size where two processes start to beat one: a smaller log is read in one,
# and a smaller catalog hashed on one thread.
SPLIT_MIN_BYTES = 1 << 20
_CHUNK_BYTES = 1 << 16


def worth_splitting(size: int) -> bool:
    """Whether `size` bytes are worth reading on two CPUs: at least
    SPLIT_MIN_BYTES, in a process that may run on two."""
    return (size >= SPLIT_MIN_BYTES and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _NotPlain(Exception):
    """A half of the log that `_tally_half` cannot read as `csv.reader` would."""


def _plain_chunks(fd: int, start: int, end: int):
    """The lines of the bytes [start, end) of the file `fd`, which start a
    line, read in chunks of whole lines. Each chunk must be plain: no quote,
    line ends all "\\n" or all "\\r\\n", UTF-8, and no line over the csv
    module's field size limit. Such lines split on "," into the fields
    `csv.reader` reads. Any other chunk, or a line of `_CHUNK_BYTES` or
    more, raises _NotPlain."""
    field_limit = csv.field_size_limit()
    while start < end:
        chunk = os.pread(fd, min(_CHUNK_BYTES, end - start), start)
        if start + len(chunk) < end:
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                raise _NotPlain
            chunk = chunk[:cut]
        start += len(chunk)
        if b'"' in chunk:
            raise _NotPlain
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise _NotPlain from None
        crlf = "\r" in text
        lines = text.split("\r\n" if crlf else "\n")
        if crlf and ("\r" in (rest := "".join(lines)) or "\n" in rest):  # a lone "\r" or "\n"
            raise _NotPlain
        if not lines[-1]:
            lines.pop()  # the chunk ends with a line break
        if field_limit < _CHUNK_BYTES and max(map(len, lines), default=0) > field_limit:
            raise _NotPlain
        yield lines


def _tally_half(fd: int, start: int, end: int, bids):
    """The tally and row count of the bytes [start, end) of the log; the
    half that starts the file starts with the header. A row is cut only
    at its first comma and its last six, keeping five key fields as one
    text and `clicked`; each distinct text is split once, at the end. A
    broken rule raises _NotPlain or ValidationError."""
    lines = chain.from_iterable(_plain_chunks(fd, start, end))
    if start == 0 and not _header(map(str.split, lines, repeat(","))):
        raise _NotPlain  # the header is not in the first half
    heads: dict = {}
    get = heads.get
    i = 0
    try:
        for i, line in enumerate(lines, start=1):
            ts, _, rest = line.partition(",")
            head, _, _, _, _, _, clicked = rest.rsplit(",", 6)
            key = (head, clicked)
            counts = get(key)
            if counts is None:
                heads[key] = [1, i]
            else:
                counts[0] += 1
            if int(ts) <= 0:
                raise _NotPlain
    except ValueError:  # too few fields, or a timestamp that is not an integer
        raise _NotPlain from None
    tally = {(*head.split(","), clicked): counts for (head, clicked), counts in heads.items()}
    for key, (_, first) in tally.items():
        if len(key) != 6:  # with its timestamp and five viewer fields, the row had twelve
            raise _NotPlain
        _check_key(first, key, bids)
    return tally, i


def _tally_in_two_processes(stream, bids) -> Optional[dict]:
    """The tally of the log `stream`, its second half read by a forked
    child, or None if either half refuses anything or the log is not one to
    split: a UTF-8 text file at its start, of at least SPLIT_MIN_BYTES and
    without a '"', in a process of one thread that may run on two CPUs and
    can fork. A log written by csv.writer has a quote wherever a field holds
    a comma, a quote or a line break (a browser "... (KHTML, like Gecko)", a
    city "Washington, D.C."), and a half would refuse it only after reading
    up to it, so the file is scanned for one first. The child sends its
    tally over a pipe, read whole; the parent merges it into its own: counts
    of a key both saw add up, keys only the child saw follow in the child's
    order, their first rows numbered after the parent's rows."""
    import signal  # `import ctrserve.cli` does not load it otherwise

    try:
        fd = stream.fileno()
        st = os.fstat(fd)
        encoding = codecs.lookup(stream.encoding).name
        at_start = stream.tell() == 0
    except (AttributeError, LookupError, OSError, ValueError):
        return None
    size = st.st_size
    if not (at_start and encoding == "utf-8" and stat.S_ISREG(st.st_mode)
            and worth_splitting(size) and hasattr(os, "fork") and threading.active_count() == 1
            and not any(b'"' in os.pread(fd, _CHUNK_BYTES, at)
                        for at in range(0, size, _CHUNK_BYTES))):
        return None
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
        try:
            os.close(read_end)
            try:
                half = _tally_half(fd, middle, size, bids)[0]
            except Exception:  # any failure is a refusal: the parent reads the log again
                half = None
            with open(write_end, "wb") as out:
                marshal.dump(half, out)
        finally:  # the parent reads only the pipe, never the exit status
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as received:
            try:
                tally, rows = _tally_half(fd, 0, middle, bids)
            except (CtrServeError, _NotPlain, OSError):
                return None
            try:
                child = marshal.loads(received.read())
            except (EOFError, ValueError):  # the child died before it sent
                return None
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if child is None:
        return None
    for key, (count, first) in child.items():
        tally.setdefault(key, [0, first + rows])[0] += count
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
    two processes (`_tally_in_two_processes`), each cutting a plain line
    (`_plain_chunks`) only where a tallied field ends (`_tally_half`). If
    either half refuses anything, the log is read again from the start by
    `csv.reader`, so the tally, or the error and its message, is always the
    one `csv.reader` gives."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(as_text(stream))
    tally = _tally_in_two_processes(stream, bids)
    if tally is not None:
        return tally
    tally = {}
    rows = csv.reader(stream)
    if not _header(rows):
        return tally
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
                _check_key(i, key, bids)
                tally[key] = [1, i]
            else:
                counts[0] += 1
            if timestamp <= 0:
                raise ValidationError(f"event row {i}: timestamp must be > 0, got {ts!r}")
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ParseError(f"event row {i + 1}: {exc}") from exc
    return tally


# The file of this csv.writer writes nowhere: its `write` returns the text it
# is given (`str` of a str is that str), so `writerow` returns the line it built.
_csv_line = csv.writer(SimpleNamespace(write=str)).writerow

EVENT_LOG_HEADER_LINE = _csv_line(EVENT_LOG_HEADER)


def event_line(row: EventRow) -> str:
    """The event-log line of `row`, in `EVENT_LOG_HEADER` order with its
    line terminator: the text csv.writer writes. A timestamp <= 0, which
    `tally_event_log` rejects, raises."""
    if row.timestamp <= 0:
        raise ValidationError(f"event for {row.ad_id!r}: timestamp must be > 0")
    return _csv_line(row._replace(placement=row.placement.value,
                                  clicked="1" if row.clicked else "0"))


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
    size_code = int(size)
    try:
        float(size_code)  # the design matrix holds it as a float
    except OverflowError:
        raise ValueError(f"size code {size:.20}... is too large for a float") from None
    return TrainingRow(int(placement), size_code, _finite(bid), _finite(keyword_value),
                       _finite(ctr))


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
