import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from _keyword_map_reference import reference_keyword_map
from _oracles import brute_force_cooccurrences, per_transaction_cooccurrences
from conftest import unresolvable_map, weighted
from ctrserve import sample_data
from ctrserve.errors import CtrServeError, MappingError, ParseError
from ctrserve.keywords import (CooccurrenceStats, build_keyword_map, confidence,
                               count_cooccurrences, load_keyword_map, resolve_page_value,
                               save_keyword_map)
from ctrserve.simulate import PLANTED_CLUSTERS, planted_keyword_map

FOOTBALL_TXNS = [{"football", "soccer"}, {"football", "ronaldo"}, {"football"}]


def random_corpus(seed, n_txns=200, vocab_size=12):
    rng = random.Random(seed)
    vocab = [f"kw{i}" for i in range(vocab_size)]
    txns = []
    for _ in range(n_txns):
        size = rng.randint(1, 5)
        txns.append(set(rng.sample(vocab, size)))
    return txns


class TestCountCooccurrences:
    def test_small_example(self):
        stats = count_cooccurrences(weighted(FOOTBALL_TXNS), "sports")
        assert stats.support == {"football": 3, "soccer": 1, "ronaldo": 1}
        assert stats.pair_count == {
            frozenset({"football", "soccer"}): 1,
            frozenset({"football", "ronaldo"}): 1,
        }

    def test_singleton(self):
        stats = count_cooccurrences(weighted([{"a"}]), "x")
        assert stats.support == {"a": 1}
        assert stats.pair_count == {}

    def test_empty_corpus_rejected(self):
        stats = count_cooccurrences(weighted([]), "sports")
        with pytest.raises(CtrServeError, match="^asked for 1 centroids but only 0 distinct "
                                                "keywords exist$"):
            build_keyword_map(stats, 1)

    def test_against_brute_force(self):
        txns = random_corpus(seed=42, n_txns=1000)
        stats = count_cooccurrences(weighted(txns), "x")
        support, pairs = brute_force_cooccurrences(txns)
        assert stats.support == support
        assert stats.pair_count == pairs

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sets(st.sampled_from([f"k{i}" for i in range(6)]), min_size=1, max_size=4),
                    min_size=1, max_size=60))
    def test_weighted_count_matches_per_transaction_oracle(self, txns):
        # six keywords make repeated transactions common
        support, pairs = per_transaction_cooccurrences(txns)
        stats = count_cooccurrences(weighted(txns), "x")
        assert stats.support == support
        assert list(stats.support) == list(support)
        assert stats.pair_count == pairs

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_count_matches_oracle_on_random_corpora(self, seed):
        txns = random_corpus(seed=seed, n_txns=2000, vocab_size=5)
        support, pairs = per_transaction_cooccurrences(txns)
        stats = count_cooccurrences(weighted(txns), "x")
        assert (stats.support, stats.pair_count) == (support, pairs)
        assert list(stats.support) == list(support)

    @pytest.mark.parametrize("weights", [Counter({frozenset({"a"}): 0})])
    def test_bad_weighted_transaction_rejected(self, weights):
        with pytest.raises(CtrServeError):
            count_cooccurrences(weights, "x")


class TestConfidence:
    @pytest.fixture()
    def stats(self):
        return count_cooccurrences(weighted(FOOTBALL_TXNS), "sports")

    def test_directional(self, stats):
        assert confidence(stats, "soccer", "football") == 1.0
        assert confidence(stats, "football", "soccer") == pytest.approx(1 / 3)

    def test_self_rule(self, stats):
        assert confidence(stats, "football", "football") == 1.0

    def test_unknown_keyword(self, stats):
        with pytest.raises(MappingError):
            confidence(stats, "hockey", "football")

    def test_unknown_consequent(self, stats):
        with pytest.raises(MappingError, match="unknown keyword 'hockey'"):
            confidence(stats, "football", "hockey")

    def test_range(self):
        txns = random_corpus(seed=3)
        stats = count_cooccurrences(weighted(txns), "x")
        for a in stats.support:
            for b in stats.support:
                assert 0.0 <= confidence(stats, a, b) <= 1.0


class TestSelectCentroids:
    """`build_keyword_map` takes the k keywords of most support as centroids."""

    def test_most_common_win(self):
        txns = (
            [{"football", "ronaldo"}] * 3 + [{"football"}] * 3
            + [{"cricket", "afridi"}] * 2 + [{"cricket"}] * 3
            + [{"tennis"}] * 3 + [{"nadal", "tennis"}]
        )
        stats = count_cooccurrences(weighted(txns), "sports")
        assert build_keyword_map(stats, 3).centroids == ("football", "cricket", "tennis")

    def test_tie_breaks_lexicographically(self):
        stats = count_cooccurrences(weighted([{"a"}, {"b"}, {"a"}, {"b"}, {"b", "a"}]), "x")
        assert build_keyword_map(stats, 1).centroids == ("a",)

    def test_k_zero(self):
        stats = count_cooccurrences(weighted([{"a"}]), "x")
        with pytest.raises(CtrServeError, match=r"^centroid count must be positive, got 0$"):
            build_keyword_map(stats, 0)

    def test_k_exceeds_vocabulary(self):
        stats = count_cooccurrences(weighted([{"a"}]), "x")
        with pytest.raises(CtrServeError,
                           match=r"^asked for 2 centroids but only 1 distinct keywords exist$"):
            build_keyword_map(stats, 2)


class TestAssignClusters:
    """`build_keyword_map` puts every other keyword in the cluster of the
    centroid it has the highest confidence toward, the earliest on a tie."""

    def test_neutral_tie_goes_to_earliest_centroid(self):
        # england co-occurs equally with football and cricket, and has less
        # support than tennis, so it is not a centroid
        txns = (
            [{"football"}] * 10 + [{"cricket"}] * 8 + [{"tennis"}] * 7
            + [{"england", "football"}] * 3 + [{"england", "cricket"}] * 3
        )
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "sports"), 3)
        assert kmap.centroids == ("football", "cricket", "tennis")
        assert kmap.cluster_of["england"] == "football"

    def test_argmax(self):
        # cricket is the earliest centroid, but ronaldo goes with football
        txns = ([{"ronaldo", "football"}] * 9 + [{"ronaldo"}] * 1 + [{"football"}] * 2
                + [{"cricket"}] * 12)
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "sports"), 2)
        assert kmap.centroids == ("cricket", "football")
        assert kmap.cluster_of["ronaldo"] == "football"

    def test_zero_confidence_goes_to_earliest_centroid(self):
        txns = [{"football"}] * 5 + [{"cricket"}] * 3 + [{"knitting"}]
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "sports"), 2)
        assert kmap.centroids == ("football", "cricket")
        assert kmap.cluster_of["knitting"] == "football"

    def test_centroids_self_assigned(self):
        txns = FOOTBALL_TXNS + [{"cricket"}] * 2
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "sports"), 2)
        assert kmap.centroids == ("football", "cricket")
        assert {c: kmap.cluster_of[c] for c in kmap.centroids} == {"football": "football",
                                                                  "cricket": "cricket"}


def engineered_stats():
    # confidence(soccer->football)=0.98, confidence(ronaldo->football)=0.5
    txns = [{"soccer", "football"}] * 49 + [{"soccer"}] * 1
    txns += [{"ronaldo", "football"}] * 10 + [{"ronaldo"}] * 10
    txns += [{"football"}] * 30
    return count_cooccurrences(weighted(txns), "sports")


class TestBuildKeywordMap:
    def test_distance_tracks_confidence(self):
        kmap = build_keyword_map(engineered_stats(), 1)
        base = kmap.values["football"]
        assert abs(kmap.values["soccer"] - base) < abs(kmap.values["ronaldo"] - base)

    def test_single_centroid_no_members(self):
        stats = count_cooccurrences(weighted([{"a"}]), "x")
        kmap = build_keyword_map(stats, 1)
        assert kmap.values == {"a": 50.0}

    def test_centroid_bases(self):
        txns = [{"a"}] * 5 + [{"b"}] * 4 + [{"c"}] * 3
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "x"), 3)
        assert kmap.values["a"] == 50.0
        assert kmap.values["b"] == 60.0
        assert kmap.values["c"] == 70.0

    def test_determinism_byte_identical(self):
        txns = random_corpus(seed=11)
        first = save_keyword_map(build_keyword_map(count_cooccurrences(weighted(txns), "x"), 3))
        second = save_keyword_map(build_keyword_map(count_cooccurrences(weighted(txns), "x"), 3))
        assert first == second

    @pytest.mark.parametrize("seed", range(10))
    def test_injectivity_random_corpora(self, seed):
        txns = random_corpus(seed=seed)
        kmap = build_keyword_map(count_cooccurrences(weighted(txns), "x"), 3)
        assert len(set(kmap.values.values())) == len(kmap.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_cluster_sanity(self, seed):
        txns = random_corpus(seed=seed)
        stats = count_cooccurrences(weighted(txns), "x")
        kmap = build_keyword_map(stats, 3)
        for kw, centroid in kmap.cluster_of.items():
            if kw in kmap.centroids:
                continue
            best = max(confidence(stats, kw, c) for c in kmap.centroids)
            assert confidence(stats, kw, centroid) == best

    def test_alternating_signs(self):
        kmap = build_keyword_map(engineered_stats(), 1)
        assert kmap.values["soccer"] > 50.0  # strongest member placed above
        assert kmap.values["ronaldo"] < 50.0

    def test_save_load_round_trip(self):
        kmap = build_keyword_map(engineered_stats(), 1)
        loaded = load_keyword_map(save_keyword_map(kmap))
        assert loaded.values == kmap.values
        assert loaded.centroids == kmap.centroids
        assert loaded.cluster_of == kmap.cluster_of
        assert list(loaded.values) == list(kmap.values)


class TestLoadKeywordMap:
    @pytest.mark.parametrize("kind,match", [("no centroids", "centroids"),
                                            ("centroid without value", "curling"),
                                            ("nan", "non-finite"), ("inf", "non-finite"),
                                            ("-inf", "non-finite"),
                                            ("unnormalized key", "'Football' is not a normalized")])
    def test_unresolvable_map_rejected(self, kind, match):
        with pytest.raises(ParseError, match=match):
            load_keyword_map(unresolvable_map(kind))

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m["values"].update(england=True), "values"),
        (lambda m: m["values"].update(england="52.5"), "values"),
        (lambda m: m["values"].update(england=10 ** 400), "float"),
        (lambda m: m.update(values=[["football", 50]]), "values"),
        (lambda m: m.update(category=None), "category"),
        (lambda m: m.update(category=7), "category"),
        (lambda m: m.update(centroids="football"), "centroids"),
        (lambda m: m.update(centroids=["football", 7]), "centroids"),
        (lambda m: m.update(cluster_of={"football": 5}), "cluster_of"),
        (lambda m: m.update(cluster_of=[["a", "b"]]), "cluster_of"),
        (lambda m: m["cluster_of"].update(england="england"), "cluster_of"),
    ])
    def test_mistyped_field_rejected_naming_it(self, edit, field):
        payload = json.loads(sample_data._read("keyword_map_sports.json"))
        edit(payload)
        with pytest.raises(ParseError, match=field):
            load_keyword_map(json.dumps(payload))

    @pytest.mark.parametrize("field", ["category", "centroids", "values", "cluster_of"])
    def test_missing_field_rejected_naming_it(self, field):
        payload = json.loads(sample_data._read("keyword_map_sports.json"))
        del payload[field]
        with pytest.raises(ParseError) as refused:
            load_keyword_map(json.dumps(payload))
        assert str(refused.value) == f"invalid keyword-map file: missing field {field!r}"


def by_support(stats):
    return sorted(stats.support, key=lambda kw: (-stats.support[kw], kw))


class TestResolutionOrder:
    """`values` is the one keyword order: support descending, ties by
    keyword, and resolution takes a page's first keyword in it."""

    # support a 13, b 8, m 5, p 5, y 2; p and y cluster under a, m under b
    TIED_TXNS = ([{"a"}] * 6 + [{"a", "p"}] * 5 + [{"a", "y"}] * 2
                 + [{"b"}] * 3 + [{"b", "m"}] * 5)

    @staticmethod
    def assert_first_in_order_wins(kmap):
        order = list(kmap.values)
        rng = random.Random(0)
        for _ in range(40):
            page = set(rng.sample(order, rng.randint(1, min(4, len(order)))))
            first = next(kw for kw in order if kw in page)
            assert resolve_page_value(kmap, page | {"unmapped"}) == kmap.values[first]

    def test_built_map(self):
        stats = count_cooccurrences(weighted(self.TIED_TXNS), "x")
        kmap = build_keyword_map(stats, 2)
        assert list(kmap.values) == by_support(stats) == ["a", "b", "m", "p", "y"]
        assert resolve_page_value(kmap, {"p", "m"}) == kmap.values["m"]
        self.assert_first_in_order_wins(kmap)

    @pytest.mark.parametrize("seed", range(3))
    def test_built_map_random_corpora(self, seed):
        stats = count_cooccurrences(weighted(random_corpus(seed=seed)), "x")
        kmap = build_keyword_map(stats, 3)
        assert list(kmap.values) == by_support(stats)
        self.assert_first_in_order_wins(kmap)

    def test_planted_map(self):
        kmap = planted_keyword_map()
        members = [m for c in PLANTED_CLUSTERS for m, _ in PLANTED_CLUSTERS[c]]
        assert list(kmap.values) == list(PLANTED_CLUSTERS) + members
        self.assert_first_in_order_wins(kmap)

    @pytest.mark.parametrize("kmap", [
        build_keyword_map(count_cooccurrences(weighted(TIED_TXNS), "x"), 2),
        planted_keyword_map(),
    ], ids=["built", "planted"])
    def test_loaded_map(self, kmap):
        loaded = load_keyword_map(save_keyword_map(kmap))
        assert list(loaded.values) == list(kmap.values)
        self.assert_first_in_order_wins(loaded)


class TestResolvePageValue:
    def test_highest_support_wins(self, sports_map):
        assert resolve_page_value(sports_map, {"england", "ronaldo"}) == 51.0

    def test_fallback_returns_first_centroid_base(self, sports_map):
        assert resolve_page_value(sports_map, {"unknownword"}) == 50.0

    def test_empty_page_rejected(self, sports_map):
        with pytest.raises(MappingError):
            resolve_page_value(sports_map, set())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.sampled_from([f"k{i}" for i in range(8)]),
                        min_size=1, max_size=4), min_size=3, max_size=40))
def test_map_properties_hold_on_arbitrary_corpora(txns):
    stats = count_cooccurrences(weighted(txns), "x")
    k = min(2, len(stats.support))
    kmap = build_keyword_map(stats, k)
    # injectivity
    assert len(set(kmap.values.values())) == len(kmap.values)
    # base separation
    for r, c in enumerate(kmap.centroids):
        assert kmap.values[c] == 50.0 + 10.0 * r
    # distance monotonicity among non-nudged members of each cluster
    for c in kmap.centroids:
        members = [kw for kw, cen in kmap.cluster_of.items()
                   if cen == c and kw != c and kw not in kmap.nudged]
        members.sort(key=lambda m: -confidence(stats, m, c))
        for a, b in zip(members, members[1:]):
            if confidence(stats, a, c) > confidence(stats, b, c):
                assert abs(kmap.values[a] - kmap.values[c]) < abs(kmap.values[b] - kmap.values[c])


@st.composite
def tied_stats(draw):
    """Stats over up to ten keywords, in a drawn first-seen order, with
    supports of 1 to 4 and pair counts up to the smaller support: ties in
    support and in confidence are common, and so are members of equal
    offset on one side of a centroid, whose values collide and are nudged."""
    names = draw(st.lists(st.sampled_from([f"k{i}" for i in range(12)]),
                          min_size=1, max_size=10, unique=True))
    support = {kw: draw(st.integers(1, 4)) for kw in names}
    pair_count = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            n = draw(st.integers(0, min(support[a], support[b])))
            if n:
                pair_count[frozenset((a, b))] = n
    return CooccurrenceStats("x", support, pair_count), draw(st.integers(1, len(names)))


def as_bits(kmap):
    return (kmap.category, kmap.centroids, [(kw, v.hex()) for kw, v in kmap.values.items()],
            list(kmap.cluster_of.items()), kmap.nudged)


# a, b, c and d join centroid z at confidence 0: c lands on a, d on b, and both are nudged
NUDGING_STATS = CooccurrenceStats("x", {"z": 4, "a": 1, "b": 1, "c": 1, "d": 1}, {})


@seed(20170307)
@settings(max_examples=300, deadline=None)
@example((NUDGING_STATS, 1))
@given(tied_stats())
def test_build_keyword_map_keeps_the_reference_layout(stats_and_k):
    """`build_keyword_map`, which lays values out through `place_values`,
    gives the map of the layout it replaced, bit for bit and in order."""
    stats, k = stats_and_k
    assert as_bits(build_keyword_map(stats, k)) == as_bits(reference_keyword_map(stats, k))


def test_nudging_example_nudges():
    assert build_keyword_map(NUDGING_STATS, 1).nudged == {"c", "d"}
