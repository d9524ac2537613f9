"""Independent brute-force / exact-arithmetic oracles used by the tests.

These deliberately avoid the library's own linear algebra: the least-squares
oracle runs Gaussian elimination over exact Fractions, the selection
oracles are plain exhaustive scans over the whole catalog, in catalog order,
and the event-log reader builds one EventRow per row.
"""

import csv
import io
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from ctrserve.catalog import EVENT_LOG_HEADER, EventRow, Placement, as_text
from ctrserve.errors import ParseError, ValidationError


def solve_exact(A, b):
    """Solve A x = b exactly over Fractions (A square, full rank)."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [rv - factor * cv for rv, cv in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def least_squares_exact(X, y):
    """Exact solution of (X^T X) theta = X^T y via Fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in X]
    target = [Fraction(v) for v in y]
    n = len(rows[0])
    XtX = [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    Xty = [sum(r[i] * t for r, t in zip(rows, target)) for i in range(n)]
    return solve_exact(XtX, Xty)


def brute_force_cooccurrences(transactions):
    """Membership-scan recount of supports and pair counts."""
    vocab = sorted({kw for t in transactions for kw in t})
    support = {kw: sum(1 for t in transactions if kw in t) for kw in vocab}
    pairs = {}
    for i, a in enumerate(vocab):
        for b in vocab[i + 1:]:
            count = sum(1 for t in transactions if a in t and b in t)
            if count:
                pairs[frozenset((a, b))] = count
    return support, pairs


def brute_force_best_by_bid(candidates):
    """Exhaustive pairwise scan over (ad, overlap) pairs: max overlap, then
    max bid, then smallest ad_id."""
    best = None
    for ad, overlap in candidates:
        if best is None:
            best = (ad, overlap)
            continue
        b_ad, b_overlap = best
        if (overlap, ad.bid, [c for c in ad.ad_id]) == (b_overlap, b_ad.bid, list(b_ad.ad_id)):
            continue
        if overlap > b_overlap or \
           (overlap == b_overlap and ad.bid > b_ad.bid) or \
           (overlap == b_overlap and ad.bid == b_ad.bid and ad.ad_id < b_ad.ad_id):
            best = (ad, overlap)
    return best[0]


def eligible_candidates(catalog, request):
    """Plain eligibility filter over the whole catalog: exact size and
    category match, country targeting (an empty set is untargeted) and
    keyword overlap >= 1. Returns (ad, overlap) pairs in catalog order."""
    candidates = []
    for ad in catalog:
        if ad.size != request.size or ad.category != request.category:
            continue
        if ad.locations and request.country not in ad.locations:
            continue
        overlap = len(ad.keywords & request.page_keywords)
        if overlap >= 1:
            candidates.append((ad, overlap))
    return candidates


def brute_force_best_by_ctr(scored):
    """Exhaustive scan over (score, ad) pairs: max score, then max bid, then
    smallest ad_id. Returns (ad, score)."""
    best_score, best_bid = max((score, ad.bid) for score, ad in scored)
    best_id = min(ad.ad_id for score, ad in scored
                  if score == best_score and ad.bid == best_bid)
    return next(ad for _, ad in scored if ad.ad_id == best_id), best_score


def per_transaction_cooccurrences(transactions):
    """Support and pair counts taken one transaction at a time, in order.
    Returns (support, pair_count); the dicts keep the order in which each
    key first appears."""
    support, pairs = {}, {}
    for txn in transactions:
        tokens = sorted(set(txn))
        for i, a in enumerate(tokens):
            support[a] = support.get(a, 0) + 1
            for b in tokens[i + 1:]:
                pair = frozenset((a, b))
                pairs[pair] = pairs.get(pair, 0) + 1
    return support, pairs


def dictreader_groups(events_path, catalog_path, map_path, size_registry):
    """Group an event log with csv.DictReader and plain dicts: key
    (placement code, 1-based size code, catalog bid, value of the page's
    highest-ranked mapped keyword). Returns (key..., ctr) tuples in order of
    first appearance."""
    import csv
    import json

    with open(catalog_path) as fh:
        bids = {rec["ad_id"]: float(rec["bid"]) for rec in json.load(fh)}
    with open(map_path) as fh:
        ranked_values = list(json.load(fh)["values"].items())  # stored in rank order
    groups = {}
    with open(events_path) as fh:
        for row in csv.DictReader(fh):
            page = {t.strip().lower() for t in row["keywords"].split(";") if t.strip()}
            value = next(v for kw, v in ranked_values if kw in page)
            key = ({"above_fold": 1, "below_fold": 0}[row["placement"]],
                   list(size_registry).index(row["size"]) + 1,
                   bids[row["ad_id"]],
                   float(value))
            counts = groups.setdefault(key, [0, 0])
            counts[0] += 1
            counts[1] += int(row["clicked"])
    return [key + (clicks / shown,) for key, (shown, clicks) in groups.items()]


_PLACEMENTS = {p.value: p for p in Placement}


def read_event_log(stream, bids: Optional[Mapping[str, float]] = None) -> Iterator[EventRow]:
    """Stream the event-log CSV (an open text file, str or bytes) one
    validated row at a time. `bids` (ad_id -> bid) rejects an ad_id outside
    the catalog. The reference for `catalog.tally_event_log`: the same
    checks, messages and row numbers, one row at a time."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(as_text(stream))
    reader = csv.reader(stream)
    i = -1  # i + 1 is the row being read, the header being row 0
    try:
        for header in reader:
            if any(field.strip() for field in header):
                break
        else:
            return  # an empty or blank log has no events
        if header != EVENT_LOG_HEADER:
            raise ParseError(f"unexpected event-log header: {header}")
        i = 0
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
            if bids is not None:
                if bids.get(ad_id) is None:
                    raise ValidationError(f"event row {i}: ad_id {ad_id!r} not in catalog")
            if timestamp <= 0:
                raise ValidationError(f"event row {i}: timestamp must be > 0, got {ts!r}")
            # tuple.__new__ skips the generated keyword-argument __new__ (as _make does)
            yield tuple.__new__(EventRow, (timestamp, ad_id, placement_val, size, category,
                                           keywords, country, city, area, ip, browser,
                                           clicked == "1"))
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ParseError(f"event row {i + 1}: {exc}") from exc


def event_key(event):
    """The fields of an EventRow that `catalog.tally_event_log` tallies, as
    the raw strings of the log."""
    return (event.ad_id, event.placement.value, event.size, event.category, event.keywords,
            "1" if event.clicked else "0")
