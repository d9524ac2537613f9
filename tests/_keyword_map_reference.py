"""The keyword-map layout as `build_keyword_map` wrote it before
`keywords.place_values` took over the placing of values: a second,
independent statement of the algorithm, kept only so a property test can
hold the library to the same bytes."""

from ctrserve.keywords import (BASE_SPACING, BASE_VALUE, CLUSTER_SPREAD, MIN_OFFSET,
                               CooccurrenceStats, KeywordMap, confidence)

_VALUE_EPS = 1e-9


def _collides(value, used):
    return any(abs(value - u) < _VALUE_EPS for u in used)


def reference_keyword_map(stats: CooccurrenceStats, k: int) -> KeywordMap:
    by_support = sorted(stats.support, key=lambda kw: (-stats.support[kw], kw))
    centroids = by_support[:k]
    cluster_of = {c: c for c in centroids}
    for kw in stats.support:
        if kw not in cluster_of:  # max keeps the first of equal confidences
            cluster_of[kw] = max(centroids, key=lambda c: confidence(stats, kw, c))
    values = {c: BASE_VALUE + BASE_SPACING * r for r, c in enumerate(centroids)}
    nudged = set()
    for c in centroids:
        members = [kw for kw, cen in cluster_of.items() if cen == c and kw != c]
        members.sort(key=lambda m: (-confidence(stats, m, c), m))
        for i, m in enumerate(members):
            sign = 1.0 if i % 2 == 0 else -1.0
            offset = max(MIN_OFFSET, CLUSTER_SPREAD * (1.0 - confidence(stats, m, c)))
            value = values[c] + sign * offset
            while _collides(value, values.values()):
                value += sign * 0.1
                nudged.add(m)
            values[m] = value
    return KeywordMap(category=stats.category, centroids=tuple(centroids),
                      values={kw: values[kw] for kw in by_support},
                      cluster_of=cluster_of, nudged=frozenset(nudged))
