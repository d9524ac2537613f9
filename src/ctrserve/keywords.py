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
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .catalog import _as_text
from .errors import CtrServeError, MappingError, ParseError

BASE_VALUE = 50.0
BASE_SPACING = 10.0
CLUSTER_SPREAD = 5.0
MIN_OFFSET = 0.1

_VALUE_EPS = 1e-9


@dataclass(frozen=True)
class CooccurrenceStats:
    """Support and pairwise co-occurrence counts for one category's corpus."""

    category: str
    transaction_count: int
    support: dict[str, int]
    pair_count: dict[frozenset, int]


@dataclass(frozen=True)
class KeywordMap:
    """Injective keyword -> decimal mapping, one cluster per centroid.

    `rank` orders every mapped keyword by descending support (ties lex
    ascending); it drives multi-keyword page resolution. `nudged` marks
    keywords whose value was moved off a collision; `diagnostics` lists
    keywords that had zero confidence to every centroid.
    """

    category: str
    centroids: tuple[str, ...]
    values: dict[str, float]
    cluster_of: dict[str, str]
    rank: tuple[str, ...]
    params: dict = field(default_factory=dict)
    nudged: frozenset = frozenset()
    diagnostics: tuple[str, ...] = ()


def count_cooccurrences(transactions: Iterable[Iterable[str]] | Mapping[frozenset[str], int],
                        category: str) -> CooccurrenceStats:
    """Support / pair counting over keyword transactions, given one by one or
    as a mapping from a keyword set to how often it occurs (a Counter). Each
    distinct transaction is counted once, weighted by its occurrences; keys
    keep the order in which they first appear."""
    if isinstance(transactions, Mapping):
        weights = transactions
    else:
        weights = Counter(frozenset(t) for t in transactions)
    if not weights:
        raise CtrServeError(f"category {category!r}: no transactions to mine")
    support: dict[str, int] = {}
    pair_count: dict[frozenset, int] = {}
    for txn, n in weights.items():
        if not txn:
            raise CtrServeError(f"category {category!r}: empty transaction")
        if n < 1:
            raise CtrServeError(f"category {category!r}: transaction {sorted(txn)} "
                                f"occurs {n} times")
        tokens = sorted(txn)
        for i, a in enumerate(tokens):
            support[a] = support.get(a, 0) + n
            for b in tokens[i + 1:]:
                pair = frozenset((a, b))
                pair_count[pair] = pair_count.get(pair, 0) + n
    return CooccurrenceStats(category=category, transaction_count=sum(weights.values()),
                             support=support, pair_count=pair_count)


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


def select_centroids(stats: CooccurrenceStats, k: int) -> list[str]:
    """The k most frequent keywords, descending support, ties lex ascending."""
    if k <= 0:
        raise CtrServeError(f"centroid count must be positive, got {k}")
    if k > len(stats.support):
        raise CtrServeError(f"asked for {k} centroids but only "
                            f"{len(stats.support)} distinct keywords exist")
    ordered = sorted(stats.support, key=lambda kw: (-stats.support[kw], kw))
    return ordered[:k]


def assign_clusters(stats: CooccurrenceStats, centroids: Sequence[str]) -> tuple[dict[str, str], list[str]]:
    """Assign every keyword to the centroid it has the highest confidence
    toward; ties and zero-confidence keywords go to the earliest centroid
    (the latter are also reported in the diagnostics list)."""
    if not centroids:
        raise CtrServeError("centroids must be nonempty")
    cluster_of: dict[str, str] = {c: c for c in centroids}
    diagnostics: list[str] = []
    for kw in stats.support:
        if kw in cluster_of:
            continue
        best_centroid = centroids[0]
        best_conf = -1.0
        for c in centroids:
            conf = confidence(stats, kw, c)
            if conf > best_conf:
                best_conf = conf
                best_centroid = c
        if best_conf == 0.0:
            diagnostics.append(kw)
        cluster_of[kw] = best_centroid
    return cluster_of, diagnostics


def _collides(value: float, used: list[float]) -> bool:
    return any(abs(value - u) < _VALUE_EPS for u in used)


def build_keyword_map(stats: CooccurrenceStats, k: int, *,
                      base: float = BASE_VALUE, spacing: float = BASE_SPACING,
                      spread: float = CLUSTER_SPREAD, min_offset: float = MIN_OFFSET) -> KeywordMap:
    """Build the full injective keyword -> value mapping.

    Centroid of rank r gets base + spacing*r. Cluster members, ordered by
    descending confidence (ties lex), are placed alternately above/below
    the base at offset max(min_offset, spread*(1-confidence)); collisions
    are nudged by 0.1 in the member's sign direction until free.
    """
    centroids = select_centroids(stats, k)
    cluster_of, diagnostics = assign_clusters(stats, centroids)
    values: dict[str, float] = {}
    used: list[float] = []
    nudged: set[str] = set()
    for r, c in enumerate(centroids):
        values[c] = base + spacing * r
        used.append(values[c])
    for c in centroids:
        members = [kw for kw, cen in cluster_of.items() if cen == c and kw != c]
        members.sort(key=lambda m: (-confidence(stats, m, c), m))
        for i, m in enumerate(members):
            sign = 1.0 if i % 2 == 0 else -1.0
            offset = max(min_offset, spread * (1.0 - confidence(stats, m, c)))
            value = values[c] + sign * offset
            while _collides(value, used):
                value += sign * 0.1
                nudged.add(m)
            values[m] = value
            used.append(value)
    rank = tuple(sorted(stats.support, key=lambda kw: (-stats.support[kw], kw)))
    params = {"k": k, "base": base, "spacing": spacing,
              "spread": spread, "min_offset": min_offset}
    return KeywordMap(category=stats.category, centroids=tuple(centroids),
                      values=values, cluster_of=cluster_of, rank=rank,
                      params=params, nudged=frozenset(nudged),
                      diagnostics=tuple(diagnostics))


def resolve_page_value(keyword_map: KeywordMap, page_keywords: Iterable[str],
                       mode: str = "strict") -> float:
    """Reduce a page's keyword set to one numeric value: the mapped keyword
    of highest support wins. With no mapped keyword, strict mode errors and
    fallback mode returns the first centroid's base value."""
    page = set(page_keywords)
    if not page:
        raise MappingError("page_keywords must be nonempty")
    for kw in keyword_map.rank:
        if kw in page:
            return keyword_map.values[kw]
    if mode == "fallback":
        return keyword_map.values[keyword_map.centroids[0]]
    raise MappingError(f"no page keyword is mapped: {sorted(page)}")


def save_keyword_map(keyword_map: KeywordMap) -> str:
    """Serialize to the map file format; `values` keys carry the support
    ranking so resolution order survives the round trip."""
    ordered_values = {kw: keyword_map.values[kw] for kw in keyword_map.rank
                      if kw in keyword_map.values}
    payload = {
        "category": keyword_map.category,
        "centroids": list(keyword_map.centroids),
        "values": ordered_values,
        "cluster_of": dict(keyword_map.cluster_of),
        "params": keyword_map.params,
    }
    return json.dumps(payload, indent=2) + "\n"


def load_keyword_map(stream) -> KeywordMap:
    """Parse a map file. A map that could not resolve a page is rejected
    here: no centroids, a centroid without a value, or a non-finite value."""
    try:
        payload = json.loads(_as_text(stream))
        values = {str(k): float(v) for k, v in payload["values"].items()}
        centroids = tuple(payload["centroids"])
        if not centroids:
            raise ValueError("centroids must be nonempty")
        missing = [c for c in centroids if not isinstance(c, str) or c not in values]
        if missing:
            raise ValueError(f"centroids without a value: {missing}")
        nonfinite = [kw for kw, v in values.items() if not math.isfinite(v)]
        if nonfinite:
            raise ValueError(f"non-finite values for {nonfinite}")
        keyword_map = KeywordMap(
            category=str(payload["category"]),
            centroids=centroids,
            values=values,
            cluster_of=dict(payload["cluster_of"]),
            rank=tuple(values),  # values keys are stored in support order
            params=dict(payload.get("params", {})),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid keyword-map file: {exc}") from exc
    return keyword_map
