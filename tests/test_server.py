import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (brute_force_best_by_bid, brute_force_best_by_ctr, eligible_candidates,
                      read_event_log)
from conftest import make_context
from ctrserve import server
from ctrserve.catalog import AdCreative, Placement, RequestContext
from ctrserve.errors import ContractError, ParseError, ValidationError
from ctrserve.features import DEFAULT_SIZE_REGISTRY, encode_placement, encode_size
from ctrserve.keywords import resolve_page_value
from ctrserve.regression import TrainingConfig, predict, train
from ctrserve.server import (MODE_BID, MODE_CTR, NO_FILL, AdResponse, EventLogWriter,
                             ServingState, keyword_overlap, serve)

VOCAB = ["football", "soccer", "epl", "cricket", "tennis", "nadal", "ronaldo", "brazil"]


def make_ad(ad_id, bid=10.0, size="300x250", category="sports",
            keywords=("football",), locations=()):
    return AdCreative(ad_id=ad_id, campaign_id="c", category=category, size=size,
                      bid=bid, landing_page="https://x.example",
                      keywords=frozenset(keywords), locations=frozenset(locations))


def random_catalog(rng, n, categories=("sports", "health"), sizes=DEFAULT_SIZE_REGISTRY):
    ads = []
    for i in range(n):
        keywords = rng.sample(VOCAB, rng.randint(1, 4))
        locations = [] if rng.random() < 0.7 else rng.sample(["PK", "US", "GB"], rng.randint(1, 2))
        ads.append(make_ad(f"ad{i:04d}", bid=rng.choice([5.0, 10.0, 20.0, 40.0]),
                           size=rng.choice(list(sizes)),
                           category=rng.choice(list(categories)),
                           keywords=keywords, locations=locations))
    return ads


def random_request(rng):
    return make_context(
        placement=rng.choice([Placement.ABOVE_FOLD, Placement.BELOW_FOLD]),
        size=rng.choice(list(DEFAULT_SIZE_REGISTRY)),
        category=rng.choice(["sports", "health"]),
        keywords=rng.sample(VOCAB, rng.randint(1, 4)),
        country=rng.choice(["PK", "US", "GB"]),
    )


def oracle_ctr(catalog, request, model, keyword_map):
    """(ad, score) by exhaustive scoring of every eligible ad, or None."""
    candidates = eligible_candidates(catalog, request)
    if not candidates or request.size not in DEFAULT_SIZE_REGISTRY:
        return None
    placement_code = encode_placement(request.placement)
    size_code = encode_size(request.size)
    kw_value = resolve_page_value(keyword_map, request.page_keywords)
    return brute_force_best_by_ctr(
        [(predict(model, (placement_code, size_code, ad.bid, kw_value)), ad)
         for ad, _ in candidates])


def oracle_bid(catalog, request):
    candidates = eligible_candidates(catalog, request)
    return brute_force_best_by_bid(candidates) if candidates else None


def served(catalog, request, mode, model=None, keyword_map=None):
    """(ad_id, score) that serve() answers, or None on a no-fill."""
    state = ServingState(catalog=tuple(catalog), model=model, keyword_map=keyword_map)
    response = serve(request, mode, state)
    return None if response.status == NO_FILL else (response.ad_id, response.score)


def assert_matches_oracles(catalog, request, model, keyword_map):
    best = oracle_ctr(catalog, request, model, keyword_map)
    expected = None if best is None else (best[0].ad_id, best[1])
    assert served(catalog, request, MODE_CTR, model, keyword_map) == expected
    ad = oracle_bid(catalog, request)
    assert served(catalog, request, MODE_BID) == (None if ad is None else (ad.ad_id, ad.bid))
    return expected


def with_bid_weight(model, weight):
    theta = list(model.theta)
    theta[3] = weight  # intercept, placement, size, bid, keyword value
    return dataclasses.replace(model, theta=theta)


class TestBuildPool:
    """The eligibility filter, seen through serve(): each excluded ad bids
    more than the eligible one, so it would win if it passed."""

    def test_filters(self, paper_model, sports_map):
        catalog = [
            make_ad("a1"),
            make_ad("a2", bid=90.0, size="728x90"),  # size mismatch
            make_ad("a3", bid=90.0, keywords=("cricket",)),  # no overlap
        ]
        request = make_context(keywords=("football", "epl"))
        assert served(catalog, request, MODE_BID)[0] == "a1"
        assert served(catalog, request, MODE_CTR, paper_model, sports_map)[0] == "a1"

    def test_zero_overlap_excluded(self, paper_model, sports_map):
        catalog = [make_ad("a1", keywords=("cricket",))]
        request = make_context(keywords=("football",))
        assert served(catalog, request, MODE_BID) is None
        assert served(catalog, request, MODE_CTR, paper_model, sports_map) is None

    def test_untargeted_location_passes(self):
        assert served([make_ad("a1", locations=())], make_context(country="ZZ"), MODE_BID)

    def test_targeted_location(self):
        catalog = [make_ad("a1", locations=("PK",))]
        assert served(catalog, make_context(country="PK"), MODE_BID)
        assert served(catalog, make_context(country="US"), MODE_BID) is None

    def test_category_mismatch(self):
        assert served([make_ad("a1", category="health")], make_context(), MODE_BID) is None


class TestKeywordOverlap:
    def test_partial(self):
        ad = make_ad("a1", keywords=("football", "epl"))
        assert keyword_overlap(ad, make_context(keywords=("football", "tennis"))) == 1

    def test_disjoint(self):
        ad = make_ad("a1", keywords=("cricket",))
        assert keyword_overlap(ad, make_context(keywords=("football",))) == 0

    def test_identical(self):
        tokens = ("a", "b", "c", "d", "e")
        ad = make_ad("a1", keywords=tokens)
        assert keyword_overlap(ad, make_context(keywords=tokens)) == 5


class TestSelectByBid:
    def test_overlap_dominates_bid(self):
        catalog = [
            make_ad("x", bid=50.0, keywords=("football",)),
            make_ad("y", bid=10.0, keywords=("football", "epl", "soccer")),
            make_ad("z", bid=20.0, keywords=("football", "epl", "brazil")),
        ]
        request = make_context(keywords=("football", "epl", "soccer", "brazil"))
        assert {overlap for _, overlap in eligible_candidates(catalog, request)} == {1, 3}
        assert served(catalog, request, MODE_BID) == ("z", 20.0)

    def test_all_ties_smallest_ad_id(self):
        catalog = [make_ad(i, bid=10.0) for i in ("b", "a", "c")]
        assert served(catalog, make_context(), MODE_BID)[0] == "a"

    def test_empty_pool(self):
        assert served([], make_context(), MODE_BID) is None

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(200):
            catalog = random_catalog(rng, rng.randint(1, 60))
            request = random_request(rng)
            ad = oracle_bid(catalog, request)
            assert served(catalog, request, MODE_BID) == (None if ad is None else (ad.ad_id, ad.bid))

    def test_overlap_dominance_raising_loser_bid(self):
        rng = random.Random(17)
        for _ in range(100):
            catalog = random_catalog(rng, rng.randint(2, 30))
            request = random_request(rng)
            candidates = eligible_candidates(catalog, request)
            if len(candidates) < 2:
                continue
            max_overlap = max(o for _, o in candidates)
            winner = served(catalog, request, MODE_BID)[0]
            losers = [ad for ad, o in candidates if ad.ad_id != winner and o < max_overlap]
            if not losers:
                continue
            boosted = losers[0]
            new_catalog = [make_ad(a.ad_id, bid=999.0, size=a.size, category=a.category,
                                   keywords=a.keywords, locations=a.locations)
                           if a.ad_id == boosted.ad_id else a for a in catalog]
            assert served(new_catalog, request, MODE_BID)[0] == winner


class TestSelectByCtr:
    def test_higher_bid_wins_with_positive_bid_coefficient(self, paper_model, sports_map):
        catalog = [make_ad("low", bid=5.0), make_ad("high", bid=30.0)]
        ad_id, score = served(catalog, make_context(), MODE_CTR, paper_model, sports_map)
        assert ad_id == "high"
        assert score > 0

    def test_single_candidate(self, paper_model, sports_map):
        request = make_context(keywords=("england", "football"))
        ad_id, score = served([make_ad("only", bid=22.0)], request, MODE_CTR,
                              paper_model, sports_map)
        expected = predict(paper_model, (
            encode_placement(request.placement),
            encode_size("300x250"),
            22.0,
            resolve_page_value(sports_map, request.page_keywords),
        ))
        assert ad_id == "only" and score == expected

    def test_matches_brute_force(self, paper_model, sports_map):
        rng = random.Random(23)
        for _ in range(50):
            catalog = random_catalog(rng, rng.randint(1, 200), categories=("sports",))
            assert_matches_oracles(catalog, random_request(rng), paper_model, sports_map)

    def test_empty_pool(self, paper_model, sports_map):
        assert served([], make_context(), MODE_CTR, paper_model, sports_map) is None


class TestCtrScan:
    """serve()'s ordered bucket scan against the exhaustive oracles, for
    every sign of the bid coefficient and the inputs that end a scan early."""

    @pytest.mark.parametrize("weight", [-0.002, -1e-17, -1e-19, 0.0, -0.0, 1e-19])
    def test_bid_weight_sign(self, paper_model, sports_map, weight):
        model = with_bid_weight(paper_model, weight)
        rng = random.Random(41)
        for _ in range(60):
            catalog = random_catalog(rng, rng.randint(1, 120), categories=("sports",))
            assert_matches_oracles(catalog, random_request(rng), model, sports_map)

    def test_negative_weight_rounded_tie_goes_to_higher_bid(self, paper_model, sports_map):
        model = with_bid_weight(paper_model, -1e-21)
        request = make_context()
        kw_value = resolve_page_value(sports_map, request.page_keywords)

        def score(bid):
            return predict(model, (1, 1, bid, kw_value))

        # bids 5 and 20 score the same to the last bit; 1e6 scores lower
        assert score(5.0) == score(20.0) > score(1e6)
        catalog = [make_ad("low", bid=5.0), make_ad("high-b", bid=20.0),
                   make_ad("high-a", bid=20.0), make_ad("huge", bid=1e6)]
        assert assert_matches_oracles(catalog, request, model, sports_map) == \
            ("high-a", score(5.0))

    def test_negative_weight_lowest_bid_wins(self, paper_model, sports_map):
        model = with_bid_weight(paper_model, -0.002)
        catalog = [make_ad("low", bid=5.0), make_ad("high", bid=30.0)]
        assert assert_matches_oracles(catalog, make_context(), model, sports_map)[0] == "low"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scaled_gradient_descent_model(self, table6_rows, sports_map, sign):
        model = train(table6_rows, sports_map, TrainingConfig())
        assert model.scaler is not None
        model = with_bid_weight(model, sign * abs(model.theta[3]))
        rng = random.Random(43)
        for _ in range(60):
            catalog = random_catalog(rng, rng.randint(1, 120), categories=("sports",))
            assert_matches_oracles(catalog, random_request(rng), model, sports_map)

    def test_size_missing_from_registry(self, paper_model, sports_map):
        catalog = [make_ad("a1", size="999x1")]
        request = make_context(size="999x1")
        assert assert_matches_oracles(catalog, request, paper_model, sports_map) is None
        assert served(catalog, request, MODE_BID)[0] == "a1"

    @pytest.mark.parametrize("weight", [0.002, 0.0, -0.002])
    def test_equal_bids_smallest_ad_id(self, paper_model, sports_map, weight):
        model = with_bid_weight(paper_model, weight)
        catalog = [make_ad(i, bid=10.0) for i in ("b", "a", "c")]
        assert assert_matches_oracles(catalog, make_context(), model, sports_map)[0] == "a"

    @pytest.mark.parametrize("weight", [0.002, -0.002])
    def test_country_targeted_ads(self, paper_model, sports_map, weight):
        model = with_bid_weight(paper_model, weight)
        catalog = [make_ad("us-low", bid=5.0, locations=("US",)),
                   make_ad("us-high", bid=40.0, locations=("US", "GB")),
                   make_ad("any", bid=20.0)]
        for country, winner in (("US", ("us-high", "us-low")), ("PK", ("any", "any"))):
            request = make_context(country=country)
            got = assert_matches_oracles(catalog, request, model, sports_map)[0]
            assert got == winner[weight < 0]

    def test_empty_page_keywords_is_no_fill(self, paper_model, sports_map):
        catalog = [make_ad("a1")]
        request = make_context(keywords=())
        assert assert_matches_oracles(catalog, request, paper_model, sports_map) is None

    def test_one_predict_per_fill(self, paper_model, sports_map, monkeypatch):
        calls = []
        monkeypatch.setattr(server, "predict", lambda *a: calls.append(a) or predict(*a))
        rng = random.Random(47)
        catalog = random_catalog(rng, 500, categories=("sports",))
        state = ServingState(catalog=tuple(catalog), model=paper_model, keyword_map=sports_map)
        filled = 0
        for _ in range(50):
            filled += serve(random_request(rng), MODE_CTR, state).status != NO_FILL
        assert filled and len(calls) == filled

    def test_unknown_mode(self, paper_model, sports_map):
        state = ServingState(catalog=(make_ad("a1"),), model=paper_model, keyword_map=sports_map)
        with pytest.raises(ContractError):
            serve(make_context(), "foo", state)

    def test_unknown_mode_is_named(self, paper_model, sports_map):
        state = ServingState(catalog=(make_ad("a1"),), model=paper_model, keyword_map=sports_map)
        with pytest.raises(ContractError, match=r"^unknown mode 'x'$"):
            serve(make_context(), "x", state)

    @pytest.mark.parametrize("has_model, has_map", [(False, False), (True, False), (False, True)])
    def test_ctr_needs_a_model_and_a_keyword_map(self, paper_model, sports_map, has_model,
                                                 has_map):
        state = ServingState(catalog=(make_ad("a1"),), model=paper_model if has_model else None,
                             keyword_map=sports_map if has_map else None)
        with pytest.raises(ContractError, match="^ctr mode requires a model and keyword map$"):
            serve(make_context(), MODE_CTR, state)
        assert serve(make_context(), MODE_BID, state).ad_id == "a1"

    def test_buckets_sorted_by_bid_then_ad_id(self):
        catalog = (make_ad("b", bid=10.0), make_ad("a", bid=10.0), make_ad("c", bid=30.0))
        state = ServingState(catalog=catalog)
        assert [ad.ad_id for ad in state.bucket(make_context())] == ["c", "a", "b"]


class WatchedAd(AdCreative):
    """An ad that logs the name of every attribute read of it to `reads`."""

    __slots__ = ()
    reads: list = []

    def __getattribute__(self, name):
        WatchedAd.reads.append(name)
        return super().__getattribute__(name)


class TestOffVocabularyPages:
    """A page that shares no keyword with any ad of its (size, category)
    bucket is a no-fill that reads no ad; every other page is ranked as the
    exhaustive oracles rank it."""

    OFF = ("curling", "darts", "snooker")  # no ad carries these

    def pages(self, rng, catalog):
        """(case, catalog, request, winner) over one random bucket: `winner`
        is the ad_id both modes must fill with, or None for a no-fill."""
        size = rng.choice(sorted({ad.size for ad in catalog}))
        bucket = [ad for ad in catalog if ad.size == size]
        vocab = set().union(*(ad.keywords for ad in bucket))
        off = rng.sample(self.OFF, rng.randint(1, 3))
        outside = sorted(set(VOCAB) - vocab)
        page = off + rng.sample(outside, rng.randint(0, len(outside)))
        yield "disjoint", catalog, make_context(size=size, keywords=page), None
        yield "no bucket", catalog, make_context(size=size, category="health",
                                                 keywords=rng.sample(VOCAB, 2)), None
        last = max(bucket, key=lambda ad: (-ad.bid, ad.ad_id))  # the end of bid-descending order
        for case, locations, winner in (("last ad", (), last.ad_id),
                                        ("country", ("US", "GB"), None)):
            ad = last if case == "last ad" else rng.choice(bucket)
            edited = make_ad(ad.ad_id, bid=ad.bid, size=ad.size, category=ad.category,
                             keywords=(*ad.keywords, "zidane"), locations=locations)
            request = make_context(size=size, keywords=("zidane", *off), country="PK")
            yield case, [edited if a is ad else a for a in catalog], request, winner

    @pytest.mark.parametrize("weight", [0.002, -0.002, 0.0])
    def test_matches_the_oracles(self, paper_model, sports_map, weight):
        model = with_bid_weight(paper_model, weight)
        rng = random.Random(53)
        seen = set()
        for _ in range(40):
            catalog = random_catalog(rng, rng.randint(1, 120), categories=("sports",))
            for case, edited, request, winner in self.pages(rng, catalog):
                expected = assert_matches_oracles(edited, request, model, sports_map)
                assert (None if expected is None else expected[0]) == winner, case
                seen.add(case)
        assert seen == {"disjoint", "no bucket", "last ad", "country"}

    @pytest.mark.parametrize("weight", [0.002, -0.002])
    def test_a_disjoint_page_reads_no_ad(self, paper_model, sports_map, weight):
        rng = random.Random(59)
        catalog = [WatchedAd(ad_id=ad.ad_id, campaign_id="c", category=ad.category,
                             size="300x250", bid=ad.bid, landing_page="https://x.example",
                             keywords=ad.keywords, locations=ad.locations)
                   for ad in random_catalog(rng, 200, categories=("sports",))]
        state = ServingState(catalog=tuple(catalog), model=with_bid_weight(paper_model, weight),
                             keyword_map=sports_map)
        WatchedAd.reads.clear()
        for mode in (MODE_BID, MODE_CTR):
            assert serve(make_context(keywords=self.OFF), mode, state).status == NO_FILL
        assert WatchedAd.reads == []
        assert serve(make_context(keywords=VOCAB), MODE_BID, state).status != NO_FILL
        assert WatchedAd.reads


class TestServe:
    def test_bid_mode_score_is_bid(self, paper_model, sports_map):
        state = ServingState(catalog=(make_ad("a1", bid=20.0),),
                             model=paper_model, keyword_map=sports_map)
        response = serve(make_context(), MODE_BID, state)
        assert response.status == "filled"
        assert response.ad_id == "a1" and response.score == 20.0
        assert response.latency_micros >= 0

    def test_no_fill(self, paper_model, sports_map):
        state = ServingState(catalog=(make_ad("a1", category="health"),),
                             model=paper_model, keyword_map=sports_map)
        response = serve(make_context(), MODE_BID, state)
        assert response.status == NO_FILL

    def test_index_matches_full_scan(self, paper_model, sports_map):
        rng = random.Random(31)
        catalog = random_catalog(rng, 300, categories=("sports",))
        state = ServingState(catalog=tuple(catalog), model=paper_model,
                             keyword_map=sports_map)
        for _ in range(50):
            request = random_request(rng)
            via_state = serve(request, MODE_CTR, state)
            best = oracle_ctr(catalog, request, paper_model, sports_map)
            if best is None:
                assert via_state.status == NO_FILL
            else:
                assert (via_state.ad_id, via_state.score) == (best[0].ad_id, best[1])

    def test_deterministic_modulo_latency(self, paper_model, sports_map):
        state = ServingState(catalog=(make_ad("a1"), make_ad("a2", bid=30.0)),
                             model=paper_model, keyword_map=sports_map)
        request = make_context()
        a = serve(request, MODE_CTR, state)
        b = serve(request, MODE_CTR, state)
        assert (a.ad_id, a.score, a.status) == (b.ad_id, b.score, b.status)



# Any text a catalog or a query can hold: control characters, quotes,
# backslashes, non-ASCII, astral characters and lone surrogates.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)


@settings(max_examples=2_000, deadline=None)
@given(st.builds(AdResponse, ANY_TEXT, ANY_TEXT, st.integers(), ANY_TEXT, ANY_TEXT, ANY_TEXT,
                 ANY_TEXT, st.floats()))
@example(AdResponse("filled", "ctr", score=math.nan))
@example(AdResponse("filled", "ctr", score=math.inf))
@example(AdResponse("filled", "ctr", score=-math.inf))
@example(AdResponse("filled", "ctr", score=-0.0))
def test_to_json_is_json_dumps_of_the_fields(response):
    assert response.to_json() == json.dumps(response._asdict())


def test_the_request_records_keep_their_fields_and_defaults():
    assert RequestContext._fields == ("placement", "size", "category", "page_keywords", "area",
                                      "city", "country", "ip", "browser")
    assert RequestContext._field_defaults == dict.fromkeys(RequestContext._fields[4:], "")
    assert AdResponse._fields == ("status", "mode", "latency_micros", "ad_id", "campaign_id",
                                  "landing_page", "size", "score")
    assert AdResponse._field_defaults == {"latency_micros": 0, "ad_id": "", "campaign_id": "",
                                          "landing_page": "", "size": "", "score": 0.0}


class TestEventLogWriter:
    @pytest.fixture()
    def log(self, tmp_path):
        log = EventLogWriter(tmp_path / "events.csv")
        yield log
        log.close()

    def test_impression_then_click(self, tmp_path, log):
        state = ServingState(catalog=(make_ad("a1"),))
        log.record_event(state, "a1", make_context(), clicked=False, timestamp=1)
        log.record_event(state, "a1", make_context(), clicked=True, timestamp=2)
        events = list(read_event_log((tmp_path / "events.csv").read_text()))
        assert [e.clicked for e in events] == [False, True]

    def test_unknown_ad(self, tmp_path, log):
        state = ServingState(catalog=(make_ad("a1"),))
        with pytest.raises(ValidationError):
            log.record_event(state, "ghost", make_context(), clicked=False)

    def test_many_appends(self, tmp_path, log):
        state = ServingState(catalog=(make_ad("a1"),))
        for i in range(100):
            log.record_event(state, "a1", make_context(), clicked=False, timestamp=i + 1)
        lines = (tmp_path / "events.csv").read_text().strip().splitlines()
        assert len(lines) == 101  # header + 100 rows

    def test_logged_row_reads_back(self, tmp_path, log):
        state = ServingState(catalog=(make_ad("a1"),))
        row = log.record_event(state, "a1", make_context(keywords=("football", "epl")),
                               clicked=True, timestamp=5)
        assert list(read_event_log((tmp_path / "events.csv").read_text())) == [row]

    def test_one_handle_from_open_to_close(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        log = EventLogWriter(path)
        state = ServingState(catalog=(make_ad("a1"),))

        def refuse(*args, **kwargs):
            raise AssertionError("reopened the log")

        monkeypatch.setattr("builtins.open", refuse)
        log.record_event(state, "a1", make_context(), clicked=False, timestamp=1)
        monkeypatch.undo()
        assert len(list(read_event_log(path.read_text()))) == 1  # flushed, still open
        log.close()
        with pytest.raises(ValueError):
            log.record_event(state, "a1", make_context(), clicked=False, timestamp=2)
        again = EventLogWriter(path)  # an existing log gets no second header
        again.record_event(state, "a1", make_context(), clicked=True, timestamp=3)
        again.close()
        assert [e.timestamp for e in read_event_log(path.read_text())] == [1, 3]

    def test_size_outside_the_registry_is_refused_unwritten(self, tmp_path):
        log = EventLogWriter(tmp_path / "events.csv")
        state = ServingState(catalog=(make_ad("a1"),))
        with pytest.raises(ValidationError, match="999x1"):
            log.record_event(state, "a1", make_context(size="999x1"), clicked=False)
        log.close()
        assert list(read_event_log((tmp_path / "events.csv").read_text())) == []

    @staticmethod
    def written_log(path, n_rows):
        """The bytes of a log that EventLogWriter wrote with `n_rows` rows."""
        log = EventLogWriter(path)
        state = ServingState(catalog=(make_ad("a1"),))
        for i in range(n_rows):
            log.record_event(state, "a1", make_context(), clicked=i % 2 == 1, timestamp=i + 1)
        log.close()
        return path.read_bytes()

    @pytest.mark.parametrize("case", ["other header", "unterminated last row",
                                      "unterminated header", "blank first line",
                                      "unterminated multibyte last row", "not utf-8"])
    def test_log_that_would_not_read_back_is_refused_unchanged(self, tmp_path, case):
        valid = self.written_log(tmp_path / "valid.csv", 2)
        header_only = self.written_log(tmp_path / "header.csv", 0)
        content = {
            "other header": b"a,b\n1,2\n",
            "unterminated last row": valid[:-2],
            "unterminated header": header_only[:-2],
            "blank first line": b"\r\n" + valid,
            "unterminated multibyte last row": valid + "1,a1,above_fold,caf\u00e9".encode(),
            "not utf-8": b"\xff\xfe" + valid,
        }[case]
        path = tmp_path / "events.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(str(path))):
            EventLogWriter(path)
        assert path.read_bytes() == content

    @pytest.mark.parametrize("n_rows", [None, 0, 2])  # an empty file, a header-only log, 2 rows
    def test_existing_log_is_extended_and_reads_back(self, tmp_path, n_rows):
        path = tmp_path / "events.csv"
        if n_rows is None:
            path.write_bytes(b"")
        else:
            self.written_log(path, n_rows)
        before = path.read_bytes()
        rows_before = list(read_event_log(before.decode()))
        log = EventLogWriter(path)
        row = log.record_event(ServingState(catalog=(make_ad("a1"),)), "a1", make_context(),
                               clicked=True, timestamp=99)
        log.close()
        assert path.read_bytes().startswith(before)
        assert list(read_event_log(path.read_text())) == rows_before + [row]

    @pytest.mark.parametrize("timestamp, keywords", [
        (0, ("football",)), (-1, ("football",)), (1, ()), (1, ("foot;ball",)),
    ])
    def test_unreadable_event_is_refused_unwritten(self, tmp_path, log, timestamp, keywords):
        state = ServingState(catalog=(make_ad("a1"),))
        with pytest.raises(ValidationError):
            log.record_event(state, "a1", make_context(keywords=keywords), clicked=False,
                             timestamp=timestamp)
        assert list(read_event_log((tmp_path / "events.csv").read_text())) == []
