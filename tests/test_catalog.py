import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import dictreader_groups
from conftest import make_event
from ctrserve.catalog import (EVENT_LOG_HEADER, AdCreative, EventRow, Placement,
                              aggregate_events, compute_ctr, keyword_set, keywords_field,
                              normalize_token, page_keywords, parse_ad_catalog,
                              parse_pairs_table, parse_training_table, read_event_log,
                              serialize_ad_catalog, write_event_row)
from ctrserve.errors import MappingError, ParseError, ValidationError
from ctrserve.features import DEFAULT_SIZE_REGISTRY
from ctrserve.keywords import load_keyword_map

CATALOG_ONE = json.dumps([{
    "ad_id": "a1", "campaign_id": "c1", "category": "sports",
    "size": "300x250", "bid": 20, "landing_page": "https://x.example",
    "keywords": ["football"],
}])

EVENT_HEADER = "timestamp,ad_id,placement,size,category,keywords,country,city,area,ip,browser,clicked"


def event_csv(*rows):
    return "\n".join([EVENT_HEADER, *rows]) + "\n"


class TestParseAdCatalog:
    def test_single_record(self):
        ads = parse_ad_catalog(CATALOG_ONE)
        assert len(ads) == 1
        ad = ads[0]
        assert (ad.ad_id, ad.category, ad.size, ad.bid) == ("a1", "sports", "300x250", 20.0)
        assert ad.keywords == frozenset({"football"})

    def test_empty_stream(self):
        assert parse_ad_catalog("") == []
        assert parse_ad_catalog("[]") == []

    def test_duplicate_ad_id(self):
        records = json.loads(CATALOG_ONE) * 2
        with pytest.raises(ValidationError, match="a1"):
            parse_ad_catalog(json.dumps(records))

    def test_nonpositive_bid(self):
        rec = json.loads(CATALOG_ONE)
        rec[0]["bid"] = 0
        with pytest.raises(ValidationError, match="bid"):
            parse_ad_catalog(json.dumps(rec))

    @pytest.mark.parametrize("bid", [float("nan"), float("inf")])
    def test_nonfinite_bid(self, bid):
        rec = json.loads(CATALOG_ONE)
        rec[0]["bid"] = bid
        with pytest.raises(ValidationError, match="bid"):
            parse_ad_catalog(json.dumps(rec))

    def test_missing_field_names_it(self):
        rec = json.loads(CATALOG_ONE)
        del rec[0]["size"]
        with pytest.raises(ParseError, match="size"):
            parse_ad_catalog(json.dumps(rec))

    def test_keywords_lowercased(self):
        rec = json.loads(CATALOG_ONE)
        rec[0]["keywords"] = [" EPL ", "Premier League"]
        (ad,) = parse_ad_catalog(json.dumps(rec))
        assert ad.keywords == frozenset({"epl", "premier league"})

    def test_round_trip(self):
        ads = parse_ad_catalog(CATALOG_ONE)
        assert parse_ad_catalog(serialize_ad_catalog(ads)) == ads

    def test_empty_keywords_dropped(self):
        rec = json.loads(CATALOG_ONE)
        rec[0]["keywords"] = ["", "football", "  "]
        (ad,) = parse_ad_catalog(json.dumps(rec))
        assert ad.keywords == frozenset({"football"})
        rec[0]["keywords"] = [" "]
        with pytest.raises(ValidationError, match="keywords must be nonempty"):
            parse_ad_catalog(json.dumps(rec))

    @pytest.mark.parametrize("field, value", [
        ("keywords", "football"), ("keywords", [1]), ("keywords", ["football", None]),
        ("keywords", {"football": 1}), ("ad_id", None), ("ad_id", 7), ("category", ["sports"]),
        ("size", 300), ("campaign_id", None), ("landing_page", 1), ("bid", True),
        ("bid", "20"), ("bid", None), ("locations", "PK"), ("locations", ["PK", 1]),
        ("locations", None),
    ])
    def test_mistyped_field_is_rejected_naming_the_record(self, field, value):
        records = json.loads(CATALOG_ONE) * 2
        records[1] = {**records[1], "ad_id": "a2", field: value}
        with pytest.raises(ParseError, match=f"catalog record 1: .*{field}"):
            parse_ad_catalog(json.dumps(records))


class TestParseEventLog:
    def test_three_rows(self):
        text = event_csv(
            "1,a1,above_fold,300x250,sports,football;epl,PK,khi,clifton,1.2.3.4,chrome,0",
            "2,a1,below_fold,300x250,sports,football,PK,khi,clifton,1.2.3.4,chrome,1",
            "3,a2,above_fold,728x90,sports,cricket,PK,khi,clifton,1.2.3.4,firefox,0",
        )
        events = list(read_event_log(text))
        assert [e.timestamp for e in events] == [1, 2, 3]
        assert page_keywords(events[0].keywords) == frozenset({"football", "epl"})
        assert [e.clicked for e in events] == [False, True, False]

    def test_bad_clicked_flag(self):
        text = event_csv("1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,maybe")
        with pytest.raises(ValidationError, match="maybe"):
            list(read_event_log(text))

    def test_bad_timestamp(self):
        text = event_csv("soon,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0")
        with pytest.raises(ValidationError, match="timestamp"):
            list(read_event_log(text))

    def test_empty_stream(self):
        assert list(read_event_log("")) == []

    def test_bid_join(self):
        text = event_csv("1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0")
        (event,) = read_event_log(text, bids={"a1": 20.0})
        assert event.served_bid == 20.0
        with pytest.raises(ValidationError, match="a1"):
            list(read_event_log(text, bids={"other": 5.0}))


class TestAggregateEvents:
    def test_single_group_ctr(self, sports_map):
        events = [make_event(clicked=i < 8, timestamp=i + 1) for i in range(100)]
        (row,) = aggregate_events(events, sports_map)
        assert row.ctr == pytest.approx(0.08)
        assert (row.placement_code, row.size_code, row.bid, row.keyword_value) == (1, 1, 20.0, 50.0)

    def test_empty(self, sports_map):
        assert aggregate_events([], sports_map) == []

    def test_two_groups(self, sports_map):
        events = [make_event(bid=10.0, clicked=i < 2, timestamp=i + 1) for i in range(50)]
        events += [make_event(bid=30.0, clicked=i < 5, timestamp=i + 1) for i in range(50)]
        rows = aggregate_events(events, sports_map)
        assert sorted(r.ctr for r in rows) == [0.04, 0.10]

    def test_strict_unknown_keyword(self, sports_map):
        events = [make_event(keywords=("qwerty",))]
        with pytest.raises(MappingError, match="qwerty"):
            aggregate_events(events, sports_map)

    def test_unjoined_bid_rejected(self, sports_map):
        event = make_event(bid=None)
        with pytest.raises(ValidationError, match="bid"):
            aggregate_events([event], sports_map)

    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([5.0, 10.0]),
                              st.booleans()), min_size=1, max_size=60))
    def test_click_conservation(self, spec):
        # sum over rows of ctr * group size equals the total click count
        from ctrserve.catalog import Placement
        from ctrserve import sample_data
        sports_map = sample_data.sports_keyword_map()
        events = [
            make_event(bid=bid, clicked=clicked, timestamp=i + 1,
                       placement=Placement.ABOVE_FOLD if pl else Placement.BELOW_FOLD)
            for i, (pl, bid, clicked) in enumerate(spec)
        ]
        rows = aggregate_events(events, sports_map)
        groups = {}
        for pl, bid, clicked in spec:
            groups.setdefault((pl, bid), []).append(clicked)
        recovered = sum(row.ctr * len(groups[(row.placement_code, row.bid)]) for row in rows)
        assert recovered == pytest.approx(sum(c for _, _, c in spec), abs=1e-9)


    def test_streamed_log_matches_dictreader_grouping(self, tmp_path):
        from ctrserve.cli import main
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "7", "--events", "10000", "--out", str(sim)]) == 0
        with open(sim / "catalog.json") as fh:
            bids = {ad.ad_id: ad.bid for ad in parse_ad_catalog(fh)}
        with open(sim / "keyword_map.json") as fh:
            kmap = load_keyword_map(fh)
        with open(sim / "events.csv") as fh:
            rows = aggregate_events(read_event_log(fh, bids=bids), kmap)
        expected = dictreader_groups(sim / "events.csv", sim / "catalog.json",
                                     sim / "keyword_map.json", DEFAULT_SIZE_REGISTRY)
        assert len(rows) > 100
        assert [(r.placement_code, r.size_code, r.bid, r.keyword_value, r.ctr)
                for r in rows] == expected

    def test_keyword_fields_with_equal_sets_share_a_group(self, sports_map):
        # page values are cached per raw field; equal keyword sets still meet
        text = event_csv("1,a1,above_fold,300x250,sports,England;Spain,PK,k,c,ip,ch,1",
                         "2,a1,above_fold,300x250,sports,spain; england,PK,k,c,ip,ch,0")
        (row,) = aggregate_events(read_event_log(text, bids={"a1": 20.0}), sports_map)
        assert (row.keyword_value, row.ctr) == (51.0, 0.5)


EVENT_ROWS = st.builds(
    EventRow, timestamp=st.integers(min_value=1), ad_id=st.text(),
    placement=st.sampled_from(Placement), size=st.text(), category=st.text(),
    keywords=st.text(), country=st.text(), city=st.text(), area=st.text(), ip=st.text(),
    browser=st.text(), clicked=st.booleans(), served_bid=st.none())


def written_log(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(EVENT_LOG_HEADER)
    for row in rows:
        write_event_row(writer, row)
    return buf.getvalue()


class TestWriteEventRow:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(EVENT_ROWS, max_size=4))
    def test_round_trip(self, rows):
        assert list(read_event_log(written_log(rows))) == rows

    @settings(deadline=None)
    @given(st.lists(EVENT_ROWS, min_size=1, max_size=4), st.floats(min_value=0.01, max_value=1e6))
    def test_round_trip_with_bids(self, rows, bid):
        bids = {row.ad_id: bid for row in rows}
        assert list(read_event_log(written_log(rows), bids=bids)) == \
            [row._replace(served_bid=bid) for row in rows]

    @pytest.mark.parametrize("timestamp", [0, -1])
    def test_nonpositive_timestamp_refused(self, timestamp):
        with pytest.raises(ValidationError, match="timestamp"):
            written_log([make_event(timestamp=timestamp)])


NORMALIZED_TOKENS = st.text(min_size=1).map(normalize_token).filter(lambda t: t and ";" not in t)


class TestKeywordsField:
    @given(st.frozensets(st.text()))
    def test_reads_back_as_the_same_set_or_is_refused(self, keywords):
        try:
            field = keywords_field(keywords)
        except ValidationError:
            return
        assert page_keywords(field) == keywords

    @given(st.frozensets(NORMALIZED_TOKENS, min_size=1))
    def test_normalized_sets_are_accepted(self, keywords):
        assert page_keywords(keywords_field(keywords)) == keywords

    @pytest.mark.parametrize("keywords", [set(), {"foot;ball"}, {"football", ""},
                                          {"Football"}, {" football"}])
    def test_refused(self, keywords):
        with pytest.raises(ValidationError, match="page keywords"):
            keywords_field(keywords)


class TestComputeCtr:
    @pytest.mark.parametrize("clicks,impressions,expected",
                             [(8, 100, 0.08), (0, 50, 0.0), (50, 50, 1.0)])
    def test_values(self, clicks, impressions, expected):
        assert compute_ctr(clicks, impressions) == expected

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            compute_ctr(1, 0)
        with pytest.raises(ValidationError):
            compute_ctr(5, 4)

    @given(st.integers(1, 1000), st.data())
    def test_bounds_and_monotonicity(self, impressions, data):
        clicks = data.draw(st.integers(0, impressions))
        value = compute_ctr(clicks, impressions)
        assert 0.0 <= value <= 1.0
        if clicks < impressions:
            assert compute_ctr(clicks + 1, impressions) > value


def test_training_table_round_trip(table6_rows):
    assert len(table6_rows) == 12
    assert table6_rows[0].bid == 20.0
    assert table6_rows[2].keyword_value == 52.1
    with pytest.raises(ParseError):
        parse_training_table("bad,header\n1,2\n")
    with pytest.raises(ParseError, match="training row 2: 6 fields"):
        parse_training_table("placement,size,bid,keyword_value,ctr\n"
                             "1,1,20,50,0.1\n1,1,20,50,0.1,GARBAGE\n")
    for row in ("1,1,inf,50,0.1", "1,1,20,inf,0.1", "1,1,20,50,inf"):
        with pytest.raises(ParseError, match="training row 2: 'inf' is not a finite number"):
            parse_training_table(f"placement,size,bid,keyword_value,ctr\n1,1,20,50,0.1\n{row}\n")


@given(st.lists(st.text()))
def test_keyword_set_normalizes_and_drops_empty_tokens(tokens):
    result = keyword_set(tokens)
    assert result == {t.strip().lower() for t in tokens} - {""}
    assert keyword_set(sorted(result)) == result


@pytest.mark.parametrize("tokens", ["football", ("football",), [b"football"], ["a", 1], None])
def test_keyword_set_refuses_anything_but_a_list_of_strings(tokens):
    with pytest.raises(ValueError, match="list of strings"):
        keyword_set(tokens)


def test_pairs_table(table10_pairs):
    assert parse_pairs_table("y,y_pred\r\n0.5,0.25\r\n\r\n1,2\r\n") == ([0.5, 1.0], [0.25, 2.0])
    y, y_pred = table10_pairs
    assert len(y) == len(y_pred) == 6 and y[0] == 0.03 and y_pred[0] == 0.031575


@pytest.mark.parametrize("text, message", [
    ("y,pred\n0.1,0.2\n", "header"),
    ("", "header"),
    ("y,y_pred\n0.1,abc\n", "pairs row 1"),
    ("y,y_pred\n0.1,0.2\n0.3\n", "pairs row 2: not enough values"),
    ("y,y_pred\n0.1,0.2,0.3\n", "pairs row 1: too many values"),
    ("y,y_pred\n0.1,0.2\n0.1,nan\n", "pairs row 2: 'nan' is not a finite number"),
    ("y,y_pred\n-Infinity,0.2\n", "pairs row 1: '-Infinity' is not a finite number"),
])
def test_bad_pairs_table(text, message):
    with pytest.raises(ParseError, match=message):
        parse_pairs_table(text)
