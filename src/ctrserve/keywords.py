"""Keyword-to-number mapping driven by co-occurrence statistics.

Page keywords are free text, so they are made regression-friendly by
mining keyword co-occurrence from page transactions, anchoring clusters
on the most frequent keywords (centroids) and assigning each keyword a
decimal value whose distance to its centroid's base value shrinks as the
association-rule confidence grows.
"""

from __future__ import annotations

import json
import math
from typing import AbstractSet, Mapping, NamedTuple, Sequence

from .catalog import JSON_NUMBER, check_field, list_of, normalize_token, parse_json
from .errors import CtrServeError, MappingError, ParseError

BASE_VALUE = 50.0
BASE_SPACING = 10.0
CLUSTER_SPREAD = 5.0
MIN_OFFSET = 0.1

_VALUE_EPS = 1e-9


class CooccurrenceStats(NamedTuple):
    """Support and pairwise co-occurrence counts for one category's corpus."""

    category: str
    support: dict[str, int]
    pair_count: dict[frozenset, int]


class KeywordMap(NamedTuple):
    """Injective keyword -> decimal mapping, one cluster per centroid.

    The order of `values` is the resolution order: descending support, ties
    lex ascending, for a mined map. The first mapped keyword of a page in
    that order gives the page its value. `nudged` marks keywords whose value
    was moved off a collision.
    """

    category: str
    centroids: tuple[str, ...]
    values: dict[str, float]
    cluster_of: dict[str, str]
    nudged: frozenset = frozenset()


def count_cooccurrences(weights: Mapping[frozenset[str], int],
                        category: str) -> CooccurrenceStats:
    """Support / pair counting over keyword transactions, given as a mapping
    from a keyword set to how often it occurs (a Counter). Each distinct
    transaction is counted once, weighted by its occurrences; keys keep the
    order in which they first appear. A transaction that occurs fewer than
    once raises; an empty one adds nothing."""
    support: dict[str, int] = {}
    pair_count: dict[frozenset, int] = {}
    for txn, n in weights.items():
        if n < 1:
            raise CtrServeError(f"category {category!r}: transaction {sorted(txn)} "
                                f"occurs {n} times")
        tokens = sorted(txn)
        for i, a in enumerate(tokens):
            support[a] = support.get(a, 0) + n
            for b in tokens[i + 1:]:
                pair = frozenset((a, b))
                pair_count[pair] = pair_count.get(pair, 0) + n
    return CooccurrenceStats(category=category, support=support, pair_count=pair_count)


def confidence(stats: CooccurrenceStats, antecedent: str, consequent: str) -> float:
    """Association-rule confidence: co-occurrence count / antecedent support."""
    if antecedent not in stats.support:
        raise MappingError(f"unknown keyword {antecedent!r}")
    if consequent not in stats.support:
        raise MappingError(f"unknown keyword {consequent!r}")
    if antecedent == consequent:
        return 1.0
    pair = stats.pair_count.get(frozenset((antecedent, consequent)), 0)
    return pair / stats.support[antecedent]


def place_values(clusters: Mapping[str, Sequence[tuple[str, float]]]) -> tuple[dict, frozenset]:
    """The one layout of a map's values, mined or planted. The keys of
    `clusters` are the centroids in rank order, the centroid of rank r at
    BASE_VALUE + BASE_SPACING*r; each one's (member, offset) pairs are then
    placed in order, alternately above and below it. A value within 1e-9 of
    one already placed moves 0.1 further out, and its member into the second item."""
    values = {c: BASE_VALUE + BASE_SPACING * r for r, c in enumerate(clusters)}
    nudged = set()
    for c, members in clusters.items():
        for i, (m, offset) in enumerate(members):
            sign = 1.0 if i % 2 == 0 else -1.0
            value = values[c] + sign * offset
            while any(abs(value - u) < _VALUE_EPS for u in values.values()):
                value += sign * 0.1
                nudged.add(m)
            values[m] = value
    return values, frozenset(nudged)


def build_keyword_map(stats: CooccurrenceStats, k: int) -> KeywordMap:
    """The injective keyword -> value mapping, `values` in resolution order:
    descending support, ties lex ascending. The first k keywords of that
    order are the centroids; every other keyword joins the centroid it has
    the highest confidence toward, the earliest on a tie. `place_values`
    places each cluster's members by descending confidence (ties lex) at
    offset max(MIN_OFFSET, CLUSTER_SPREAD*(1-confidence))."""
    if k <= 0:
        raise CtrServeError(f"centroid count must be positive, got {k}")
    if k > len(stats.support):
        raise CtrServeError(f"asked for {k} centroids but only "
                            f"{len(stats.support)} distinct keywords exist")
    by_support = sorted(stats.support, key=lambda kw: (-stats.support[kw], kw))
    centroids = by_support[:k]
    cluster_of = {c: c for c in centroids}
    members: dict[str, list] = {c: [] for c in centroids}  # (-confidence, member, offset)
    for kw in stats.support:
        if kw not in cluster_of:  # max keeps the first of equal confidences
            c = cluster_of[kw] = max(centroids, key=lambda c: confidence(stats, kw, c))
            conf = confidence(stats, kw, c)
            members[c].append((-conf, kw, max(MIN_OFFSET, CLUSTER_SPREAD * (1.0 - conf))))
    values, nudged = place_values({c: [(m, offset) for _, m, offset in sorted(ms)]
                                   for c, ms in members.items()})
    return KeywordMap(category=stats.category, centroids=tuple(centroids),
                      values={kw: values[kw] for kw in by_support},
                      cluster_of=cluster_of, nudged=nudged)


def resolve_page_value(keyword_map: KeywordMap, page_keywords: AbstractSet[str]) -> float:
    """Reduce a page's keyword set to one numeric value: the value of its
    first mapped keyword in resolution order, or the first centroid's value
    when no keyword is mapped. This is the one page-value rule: serving,
    training, `predict` and the simulator all value a page through it."""
    if not page_keywords:
        raise MappingError("page_keywords must be nonempty")
    for kw, value in keyword_map.values.items():
        if kw in page_keywords:
            return value
    return keyword_map.values[keyword_map.centroids[0]]


def save_keyword_map(keyword_map: KeywordMap) -> str:
    """Serialize to the map file format; `values` keeps its order, so the
    resolution order survives the round trip."""
    payload = {
        "category": keyword_map.category,
        "centroids": list(keyword_map.centroids),
        "values": keyword_map.values,
        "cluster_of": dict(keyword_map.cluster_of),
        "params": {"k": len(keyword_map.centroids), "base": BASE_VALUE,
                   "spacing": BASE_SPACING, "spread": CLUSTER_SPREAD,
                   "min_offset": MIN_OFFSET},
    }
    return json.dumps(payload, indent=2) + "\n"


def load_keyword_map(stream) -> KeywordMap:
    """Parse a map file; `values` keeps the file's order, which is the
    resolution order. Every field is type-checked, not coerced: `category` a
    string, `centroids` a nonempty list of strings, `values` an object of
    finite numbers (a bool is not one) whose keys are normalized keywords
    (`catalog.normalize_token`, not empty) with a value for every centroid, and
    `cluster_of` an object whose values are centroids. A bad field raises
    ParseError naming it; text that is not UTF-8 raises UnicodeDecodeError,
    which `catalog.open_text` turns into a ParseError naming the file."""
    payload = parse_json(stream, "invalid keyword-map file")
    try:
        category, values, cluster_of = (payload["category"], payload["values"],
                                         payload["cluster_of"])
        check_field(type(category) is str, "category", category)
        centroids = tuple(list_of(payload["centroids"], (str,), "centroids"))
        if not centroids:
            raise ValueError("centroids must be nonempty")
        check_field(type(values) is dict, "values", values)
        for kw, v in values.items():
            check_field(type(v) in JSON_NUMBER, f"values[{kw!r}]", v)
            if not kw or kw != normalize_token(kw):  # a page keyword could never match it
                raise ValueError(f"values key {kw!r} is not a normalized keyword "
                                 "(nonempty, stripped and lowercased)")
        values = {kw: float(v) for kw, v in values.items()}
        missing = [c for c in centroids if c not in values]
        if missing:
            raise ValueError(f"centroids without a value: {missing}")
        nonfinite = [kw for kw, v in values.items() if not math.isfinite(v)]
        if nonfinite:
            raise ValueError(f"non-finite values for {nonfinite}")
        check_field(type(cluster_of) is dict, "cluster_of", cluster_of)
        for kw, c in cluster_of.items():
            if c not in centroids:
                raise ValueError(f"cluster_of[{kw!r}] is not a centroid: {c!r}")
    except KeyError as exc:
        raise ParseError(f"invalid keyword-map file: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid keyword-map file: {exc}") from exc
    return KeywordMap(category=category, centroids=centroids, values=values,
                      cluster_of=cluster_of)
