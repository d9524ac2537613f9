import csv
import io
import json
import marshal
import math
import os
import random
import tempfile
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from _oracles import dictreader_groups, event_key, read_event_log
from conftest import make_event
from ctrserve import catalog, sample_data
from ctrserve.catalog import (EVENT_LOG_HEADER, EVENT_LOG_HEADER_LINE, SPLIT_MIN_BYTES,
                              AdCreative, EventRow, Placement, event_line, keyword_set,
                              keywords_field, normalize_token, open_text, page_keywords,
                              parse_ad_catalog, parse_pairs_table, parse_training_table,
                              serialize_ad_catalog, tally_event_log)
from ctrserve.cli import main
from ctrserve.errors import CtrServeError, ParseError, ValidationError
from ctrserve.features import DEFAULT_SIZE_REGISTRY, aggregate_events
from ctrserve.keywords import load_keyword_map
from ctrserve.regression import load_model

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
        for text in ("", " \n\t"):
            with pytest.raises(ParseError, match="^catalog is not valid JSON: "):
                parse_ad_catalog(text)
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

    @pytest.mark.parametrize("text, message", [
        ('{"ad_id": "a1"}', "catalog must be a JSON array of objects"),
        ('[["a1", "c1"]]', "catalog record 0: expected an object"),
        (CATALOG_ONE[:-1] + ', "a2"]', "catalog record 1: expected an object"),
    ])
    def test_a_catalog_of_the_wrong_shape_is_refused(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_ad_catalog(text)

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


class TestSharedLayout:
    """Ads of one parse share equal values; nothing about the values changes."""

    @staticmethod
    def two_ads(first=None, second=None):
        record = json.loads(CATALOG_ONE)[0]
        return parse_ad_catalog(json.dumps([{**record, **(first or {})},
                                            {**record, "ad_id": "a2", **(second or {})}]))

    def test_keyword_lists_of_one_set_share_it(self):
        a, b = self.two_ads({"keywords": ["epl", "football"]},
                            {"keywords": [" Football", "EPL ", "epl"]})
        assert a.keywords == {"epl", "football"} and a.keywords is b.keywords

    @pytest.mark.parametrize("first, second", [([], []), ([], None), (["PK", "US"], ["US", "PK"])],
                             ids=["empty", "empty and missing", "reordered"])
    def test_equal_location_lists_share_one_set(self, first, second):
        a, b = self.two_ads({"locations": first}, None if second is None else {"locations": second})
        assert a.locations == set(first) and a.locations is b.locations

    def test_campaign_category_and_size_are_shared(self):
        a, b = self.two_ads()
        assert (a.campaign_id, a.category, a.size) == ("c1", "sports", "300x250")
        assert a.campaign_id is b.campaign_id and a.category is b.category and a.size is b.size

    def test_ad_creative_has_no_instance_dict(self):
        (ad,) = parse_ad_catalog(CATALOG_ONE)
        assert not hasattr(ad, "__dict__")
        with pytest.raises(AttributeError):
            ad.bid = 1.0

    @pytest.mark.parametrize("field, value, message", [
        ("bid", "20", "catalog record 4999: bid must be a number, got '20'"),
        ("keywords", ["ok", 7], "catalog record 4999: keywords must be a list of strings, "
                                "got ['ok', 7]"),
        ("locations", "PK", "catalog record 4999: locations must be a list of strings, got 'PK'"),
        pytest.param("bid", 10 ** 400, "catalog record 4999: bid is too large for a float",
                     id="bid-too-large-for-a-float"),
    ])
    def test_a_bad_last_record_of_a_large_catalog_is_named(self, field, value, message):
        template = json.loads(CATALOG_ONE)[0]
        records = [{**template, "ad_id": f"a{i}"} for i in range(5000)]
        records[-1][field] = value
        with pytest.raises(ParseError) as err:
            parse_ad_catalog(json.dumps(records))
        assert str(err.value) == message


# A small vocabulary, so that keyword and location lists often repeat a set
# in another order, case, padding or with duplicate and empty tokens.
KEYWORD_TOKEN = st.builds(lambda word, case, left, right: left + case(word) + right,
                          st.sampled_from(["football", "epl", "premier league", "cricket"]),
                          st.sampled_from([str.lower, str.upper, str.title]),
                          st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "  "]))
KEYWORD_LIST = st.tuples(st.lists(KEYWORD_TOKEN, min_size=1, max_size=4),
                         st.lists(st.sampled_from(["", " "]), max_size=2)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1]))
OPTIONAL = st.sampled_from(["keep", "drop"])


@st.composite
def catalog_records(draw):
    """The records of a valid catalog: unique ad_ids, every other field drawn
    from a few values, the optional ones sometimes left out. A keyword list
    is often one drawn before, and a location list often one of the keyword
    lists, token for token."""
    records, lists = [], []
    for i in range(draw(st.integers(0, 12))):
        lists.append(draw(st.sampled_from(lists) | KEYWORD_LIST if lists else KEYWORD_LIST))
        record = {"ad_id": f"ad-{i}", "campaign_id": draw(st.sampled_from(["c1", "c2"])),
                  "category": draw(st.sampled_from(["sports", "health"])),
                  "size": draw(st.sampled_from(["300x250", "728x90"])),
                  "bid": draw(st.one_of(st.integers(1, 10**6),
                                        st.floats(min_value=1e-6, max_value=1e6))),
                  "landing_page": draw(st.sampled_from(["https://x.example", ""])),
                  "keywords": lists[-1],
                  "locations": draw(st.lists(st.sampled_from(["PK", "US", "pk"]), max_size=3)
                                    | st.sampled_from(lists))}
        for name in ("campaign_id", "landing_page", "locations"):
            if draw(OPTIONAL) == "drop":
                del record[name]
        records.append(record)
    return records


def one_object_per_value(values) -> bool:
    """Whether equal values among `values` are all one object."""
    first = {}
    return all(first.setdefault(value, value) is value for value in values)


class TestLoaderMatchesTheRecords:
    @seed(20170301)
    @settings(max_examples=150, deadline=None)
    @given(records=catalog_records())
    def test_each_ad_is_its_record_and_equal_values_are_one_object(self, records):
        text = json.dumps(records)
        ads = parse_ad_catalog(text)
        assert [tuple(getattr(ad, name) for name in AdCreative.__slots__) for ad in ads] == [
            (rec["ad_id"], rec.get("campaign_id", ""), rec["category"], rec["size"],
             float(rec["bid"]), rec.get("landing_page", ""), keyword_set(rec["keywords"]),
             frozenset(rec.get("locations", []))) for rec in records]
        assert all(type(ad.bid) is float for ad in ads)
        for name in ("keywords", "locations", "campaign_id", "category", "size"):
            assert one_object_per_value(getattr(ad, name) for ad in ads), name
        again = parse_ad_catalog(text)
        assert not {id(ad.keywords) for ad in ads} & {id(ad.keywords) for ad in again}


CATALOG_RECORD = {"ad_id": "a1", "campaign_id": "c1", "category": "sports", "size": "300x250",
                  "bid": 20, "landing_page": "https://x.example", "keywords": ["football"],
                  "locations": ["PK"]}


CATALOG_EDITS = ["long", "deep", "truncate", "bom", "crlf"]
FORMAT_EDITS = [*CATALOG_EDITS, "wrong type", "nan"]
JSON_VALUES = [None, True, 0, 1.5, "x", [], ["x"], {}, {"x": 1}]


def mutated_json(document, target: dict, data, edits: set) -> str:
    """`document` as JSON text, after a field of `target`, one of its
    objects, becomes 100,000 characters long, a value of another JSON type,
    NaN or an infinity (in place of a list item, if it is a nonempty list)
    or a list nested up to 5,000 deep; then the text may be cut short, start
    with a BOM or end its lines with CRLF."""
    name = data.draw(st.sampled_from(sorted(target)))
    if "long" in edits:
        target[name] = data.draw(st.sampled_from(
            ["x" * 100_000, ["x" * 100_000], [" " * 100_000]]))
    if "wrong type" in edits:
        target[name] = data.draw(st.sampled_from(
            [value for value in JSON_VALUES if type(value) is not type(target[name])]))
    if "nan" in edits:
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if isinstance(target[name], list) and target[name]:
            target[name][data.draw(st.integers(0, len(target[name]) - 1))] = value
        else:
            target[name] = value
    if "deep" in edits:
        target[name] = "@@"
    text = json.dumps(document, indent=1)
    if "deep" in edits:
        depth = data.draw(st.sampled_from([3, 500, 5_000]))
        text = text.replace('"@@"', "[" * depth + "]" * depth)
    return edited_text(text, data, edits)


def edited_text(text: str, data, edits: set) -> str:
    """`text` cut short ("truncate"), with a BOM before it ("bom") and with
    CRLF line ends ("crlf"), for each of these that is in `edits`."""
    if "truncate" in edits:
        text = text[:data.draw(st.integers(0, len(text)))]
    if "bom" in edits:
        text = "\ufeff" + text
    if "crlf" in edits:
        text = text.replace("\n", "\r\n")
    return text


class TestCatalogRefusals:
    """Each one-record fault keeps its error type and text."""

    @pytest.mark.parametrize("field, value, error, message", [
        ("ad_id", 7, ParseError, "catalog record 1: ad_id must be a string"),
        ("campaign_id", None, ParseError, "catalog record 1: campaign_id must be a string"),
        ("category", ["sports"], ParseError, "catalog record 1: category must be a string"),
        ("size", 300, ParseError, "catalog record 1: size must be a string"),
        ("bid", "20", ParseError, "catalog record 1: bid must be a number, got '20'"),
        ("bid", True, ParseError, "catalog record 1: bid must be a number, got True"),
        ("landing_page", 1.5, ParseError, "catalog record 1: landing_page must be a string"),
        ("keywords", "football", ParseError,
         "catalog record 1: keywords must be a list of strings, got 'football'"),
        ("locations", "PK", ParseError,
         "catalog record 1: locations must be a list of strings, got 'PK'"),
        ("bid", 10**400, ParseError, "catalog record 1: bid is too large for a float"),
        ("bid", math.nan, ValidationError, "ad 'a2': bid must be finite and > 0, got nan"),
        ("bid", math.inf, ValidationError, "ad 'a2': bid must be finite and > 0, got inf"),
        ("bid", 0, ValidationError, "ad 'a2': bid must be finite and > 0, got 0.0"),
        ("bid", -1, ValidationError, "ad 'a2': bid must be finite and > 0, got -1.0"),
        ("keywords", [], ValidationError, "ad 'a2': keywords must be nonempty"),
        ("keywords", ["  ", ""], ValidationError, "ad 'a2': keywords must be nonempty"),
        ("keywords", {"football": 1}, ParseError,
         "catalog record 1: keywords must be a list of strings, got {'football': 1}"),
        ("keywords", ["football", 1], ParseError,
         "catalog record 1: keywords must be a list of strings, got ['football', 1]"),
        ("keywords", [["football"]], ParseError,
         "catalog record 1: keywords must be a list of strings, got [['football']]"),
        ("ad_id", "a1", ValidationError, "duplicate ad_id 'a1' at record 1"),
    ])
    def test_a_bad_field_keeps_its_refusal(self, field, value, error, message):
        text = json.dumps([CATALOG_RECORD, {**CATALOG_RECORD, "ad_id": "a2", field: value}])
        with pytest.raises(CtrServeError) as err:
            parse_ad_catalog(text)
        assert (type(err.value), str(err.value)) == (error, message)

    @pytest.mark.parametrize("changes, message", [
        ({"bid": -1.0}, "ad 'a1': bid must be finite and > 0, got -1.0"),
        ({"bid": math.nan}, "ad 'a1': bid must be finite and > 0, got nan"),
        ({"keywords": frozenset()}, "ad 'a1': keywords must be nonempty"),
    ])
    def test_the_constructor_and_replace_keep_their_refusals(self, changes, message):
        (ad,) = parse_ad_catalog(json.dumps([CATALOG_RECORD]))
        fields = {name: getattr(ad, name) for name in AdCreative.__slots__}
        for build in (lambda: AdCreative(**{**fields, **changes}),
                      lambda: AdCreative(*{**fields, **changes}.values())):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == message

    def test_positional_keyword_and_replaced_ads_are_equal(self):
        (ad,) = parse_ad_catalog(json.dumps([CATALOG_RECORD]))
        fields = {name: getattr(ad, name) for name in AdCreative.__slots__}
        assert AdCreative(**fields) == AdCreative(*fields.values()) == ad
        assert hash(AdCreative(**fields)) == hash(ad)
        assert AdCreative(**{**fields, "bid": 1.5}).bid == 1.5
        assert repr(ad) == "AdCreative(" + ", ".join(f"{name}={value!r}"
                                                     for name, value in fields.items()) + ")"
        no_locations = {name: value for name, value in fields.items() if name != "locations"}
        assert AdCreative(**no_locations).locations == frozenset()

    @pytest.mark.parametrize("data, position", [(b"\xff", 0), (b'[{"ad_id": "\xff"}]', 12)])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, data, position):
        message = (f"input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                   f"position {position}: invalid start byte")
        for load in (parse_ad_catalog, load_keyword_map, load_model):
            for stream in (data, io.BytesIO(data)):
                with pytest.raises(ParseError) as err:
                    load(stream)
                assert str(err.value) == message

    @seed(20170302)
    @settings(max_examples=200, deadline=None)
    @given(records=catalog_records().filter(bool), data=st.data(),
           edits=st.sets(st.sampled_from(CATALOG_EDITS)), as_bytes=st.booleans())
    def test_a_mutated_catalog_loads_or_raises_a_package_error(self, records, data, edits,
                                                               as_bytes):
        text = mutated_json(records, records[-1], data, edits)
        try:
            parse_ad_catalog(text.encode("utf-8") if as_bytes else text)
        except CtrServeError:
            pass

    @seed(20170303)
    @settings(max_examples=200, deadline=None)
    @given(records=catalog_records().filter(bool), data=st.data(),
           edits=st.sets(st.sampled_from(CATALOG_EDITS)),
           bad=st.sampled_from([b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]))
    def test_a_mutated_catalog_with_bytes_that_are_never_utf8_is_a_parse_error(
            self, records, data, edits, bad):
        encoded = mutated_json(records, records[-1], data, edits).encode("utf-8")
        at = data.draw(st.integers(0, len(encoded)))
        with pytest.raises(ParseError, match="^input is not UTF-8 text: 'utf-8' codec"):
            parse_ad_catalog(encoded[:at] + bad + encoded[at:])


class TestModelAndMapFormats:
    @seed(20170304)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), edits=st.sets(st.sampled_from(FORMAT_EDITS)), as_bytes=st.booleans())
    @pytest.mark.parametrize("load, fixture", [(load_model, "model_normal_eq.json"),
                                               (load_keyword_map, "keyword_map_sports.json")])
    def test_a_mutated_file_loads_or_raises_a_package_error(self, load, fixture, data, edits,
                                                            as_bytes):
        """A field of the document or of one of its objects is edited."""
        with open(sample_data.fixture_path(fixture), encoding="utf-8") as fh:
            document = json.load(fh)
        objects = [value for value in (document, *document.values()) if isinstance(value, dict)]
        target = data.draw(st.sampled_from([value for value in objects if value]))
        text = mutated_json(document, target, data, edits)
        try:
            load(text.encode("utf-8") if as_bytes else text)
        except CtrServeError:
            pass


TABLE_EDITS = ["wrong type", "huge", "long", "nan", "truncate", "bom", "crlf"]
TABLE_VALUES = {
    "wrong type": ["", "x", "1.5", "true", "[]", "0x1", "1,5"],
    "huge": ["1" + "0" * 400, "-" + "9" * 400, "1e308", "-1e308", "1e309", "1e-320",
             "9" * 300, "9" * 5_000, "0." + "0" * 400 + "1"],
    "long": ["x" * 100_000, "9" * 140_000],
    "nan": ["nan", "NaN", "inf", "Infinity", "-Infinity"],
}


def mutated_table(fixture: str, data, edits: set) -> str:
    """The fixture CSV table as text after, for each value edit, a field of
    one of its rows (the header among them) becomes text of another type, a
    huge, tiny or long number, 100,000 or 140,000 characters (the csv
    module's limit is 131,072), or NaN or an infinity; then the text may be
    cut short, start with a BOM or end its lines with CRLF."""
    rows = [line.split(",") for line in sample_data._read(fixture).splitlines()]
    for edit in TABLE_EDITS:
        if edit in edits and edit in TABLE_VALUES:
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                st.sampled_from(TABLE_VALUES[edit]))
    return edited_text("".join(",".join(row) + "\n" for row in rows), data, edits)


class TestTrainingAndPairsTables:
    @seed(20170305)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), edits=st.sets(st.sampled_from(TABLE_EDITS), max_size=2),
           as_bytes=st.booleans())
    @pytest.mark.parametrize("parse, fixture", [(parse_training_table, "training_sample.csv"),
                                                (parse_pairs_table, "validation_pairs.csv")])
    def test_a_mutated_table_parses_or_raises_a_package_error_and_the_cli_never_crashes(
            self, parse, fixture, data, edits, as_bytes):
        """A table that parses is run through `evaluate`, and a training
        table through `train` by both methods: each returns 0, or 1 with one
        JSON error line."""
        text = mutated_table(fixture, data, edits)
        try:
            parse(text.encode("utf-8") if as_bytes else text)
        except CtrServeError:
            return
        runs = [["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json")]]
        if parse is parse_training_table:
            runs += [["train", "--method", method] for method in ("normal", "gd")]
        with tempfile.TemporaryDirectory() as scratch:
            table = Path(scratch) / "table.csv"
            table.write_bytes(text.encode("utf-8"))
            for command, *flags in runs:
                if command == "train":
                    flags += ["--out", str(Path(scratch) / "model.json")]
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = main([command, "--data", str(table), *flags])
                assert rc in (0, 1), (command, flags)
                if rc:
                    (line,) = err.getvalue().splitlines()
                    assert json.loads(line)["error"]


ROW = "1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0"
KEY = ("a1", "above_fold", "300x250", "sports", "football", "0")


class TestParseEventLog:
    def test_three_rows(self):
        text = event_csv(
            "1,a1,above_fold,300x250,sports,football;epl,PK,khi,clifton,1.2.3.4,chrome,0",
            "2,a1,below_fold,300x250,sports,football,PK,khi,clifton,1.2.3.4,chrome,1",
            "3,a1,above_fold,300x250,sports,football;epl,US,lhr,,5.6.7.8,firefox,0",
        )
        assert tally_event_log(text) == {
            ("a1", "above_fold", "300x250", "sports", "football;epl", "0"): [2, 1],
            ("a1", "below_fold", "300x250", "sports", "football", "1"): [1, 2],
        }

    def test_keys_keep_first_appearance_order_and_first_row(self):
        # a blank row is skipped but still numbered
        other = "2,a2,below_fold,728x90,news,election,US,k,c,ip,ch,1"
        tally = tally_event_log(event_csv(ROW, "", other, ROW))
        assert list(tally.items()) == [
            (KEY, [2, 1]), (("a2", "below_fold", "728x90", "news", "election", "1"), [1, 3])]

    def test_bad_clicked_flag(self):
        text = event_csv("1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,maybe")
        with pytest.raises(ValidationError, match="maybe"):
            tally_event_log(text)

    def test_bad_timestamp(self):
        text = event_csv("soon,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0")
        with pytest.raises(ValidationError, match="timestamp"):
            tally_event_log(text)

    @pytest.mark.parametrize("ts, message", [
        ("soon", "event row 2: unparseable timestamp 'soon'"),
        ("0", "event row 2: timestamp must be > 0, got '0'"),
    ])
    def test_a_repeated_key_still_checks_its_timestamp(self, ts, message):
        with pytest.raises(ValidationError) as err:
            tally_event_log(event_csv(ROW, ts + ROW[1:]))
        assert str(err.value) == message

    def test_empty_stream(self):
        assert tally_event_log("") == {}

    def test_a_field_over_the_csv_size_limit_names_the_row(self):
        long_row = "2,a1,above_fold,300x250,sports," + "x" * 140_000 + ",PK,k,c,ip,ch,0"
        text = event_csv("1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0", long_row)
        with pytest.raises(ParseError, match=r"^event row 2: field larger than field limit"):
            tally_event_log(text)
        with pytest.raises(ParseError, match=r"^event row 1: field larger than field limit"):
            tally_event_log(event_csv(long_row))
        with pytest.raises(ParseError, match=r"^event row 0: field larger than field limit"):
            tally_event_log(long_row)

    def test_bid_join(self):
        text = event_csv("1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0")
        assert tally_event_log(text, bids={"a1": 20.0}) == {KEY: [1, 1]}
        with pytest.raises(ValidationError, match="a1"):
            tally_event_log(text, bids={"other": 5.0})


def fold(events, bids, keyword_map):
    """The training rows of `events`, written as a log and read back."""
    return aggregate_events(tally_event_log(written_log(events)), bids, keyword_map)


class TestAggregateEvents:
    def test_single_group_ctr(self, sports_map):
        events = [make_event(clicked=i < 8, timestamp=i + 1) for i in range(100)]
        (row,) = fold(events, {"a1": 20.0}, sports_map)
        assert row.ctr == pytest.approx(0.08)
        assert (row.placement_code, row.size_code, row.bid, row.keyword_value) == (1, 1, 20.0, 50.0)

    @pytest.mark.parametrize("clicks,impressions,expected",
                             [(8, 100, 0.08), (0, 50, 0.0), (50, 50, 1.0)])
    def test_ctr_values(self, sports_map, clicks, impressions, expected):
        events = [make_event(clicked=i < clicks, timestamp=i + 1) for i in range(impressions)]
        (row,) = fold(events, {"a1": 20.0}, sports_map)
        assert row.ctr == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 60), st.data())
    def test_ctr_bounds_and_monotonicity(self, sports_map, impressions, data):
        clicks = data.draw(st.integers(0, impressions))

        def ctr(n_clicks):
            events = [make_event(clicked=i < n_clicks, timestamp=i + 1)
                      for i in range(impressions)]
            (row,) = fold(events, {"a1": 20.0}, sports_map)
            return row.ctr

        value = ctr(clicks)
        assert 0.0 <= value <= 1.0
        if clicks < impressions:
            assert ctr(clicks + 1) > value

    def test_empty(self, sports_map):
        assert aggregate_events({}, {}, sports_map) == []

    def test_two_groups(self, sports_map):
        events = [make_event(ad_id="a10", clicked=i < 2, timestamp=i + 1) for i in range(50)]
        events += [make_event(ad_id="a30", clicked=i < 5, timestamp=i + 1) for i in range(50)]
        rows = fold(events, {"a10": 10.0, "a30": 30.0}, sports_map)
        assert sorted(r.ctr for r in rows) == [0.04, 0.10]

    def test_unjoined_bid_rejected(self, sports_map):
        events = [make_event(), make_event(ad_id="a2", timestamp=2), make_event(ad_id="a2")]
        bids = {"a1": 20.0}
        with pytest.raises(ValidationError, match=r"^event row 2: ad_id 'a2' not in catalog$"):
            aggregate_events(tally_event_log(written_log(events), bids=bids), bids, sports_map)

    @pytest.mark.parametrize("edit, message", [
        ({"size": "999x1"}, "event row 3: size '999x1' is not in the registry "
                            "['300x250', '728x90', '160x600']"),
        ({"keywords": ()}, "event row 3: page_keywords must be nonempty"),
    ], ids=["size", "keywords"])
    def test_a_field_it_cannot_encode_names_its_first_row(self, sports_map, edit, message):
        events = [make_event(timestamp=i + 1) for i in range(2)]
        events += [make_event(clicked=True, timestamp=3, **edit), make_event(timestamp=4, **edit)]
        with pytest.raises(CtrServeError) as err:
            fold(events, {"a1": 20.0}, sports_map)
        assert str(err.value) == message

    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([5.0, 10.0]),
                              st.booleans()), min_size=1, max_size=60))
    def test_click_conservation(self, spec):
        # sum over rows of ctr * group size equals the total click count
        from ctrserve.catalog import Placement
        from ctrserve import sample_data
        sports_map = sample_data.sports_keyword_map()
        events = [
            make_event(ad_id=f"a{bid}", clicked=clicked, timestamp=i + 1,
                       placement=Placement.ABOVE_FOLD if pl else Placement.BELOW_FOLD)
            for i, (pl, bid, clicked) in enumerate(spec)
        ]
        rows = fold(events, {"a5.0": 5.0, "a10.0": 10.0}, sports_map)
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
            rows = aggregate_events(tally_event_log(fh, bids=bids), bids, kmap)
        expected = dictreader_groups(sim / "events.csv", sim / "catalog.json",
                                     sim / "keyword_map.json", DEFAULT_SIZE_REGISTRY)
        assert len(rows) > 100
        assert [(r.placement_code, r.size_code, r.bid, r.keyword_value, r.ctr)
                for r in rows] == expected

    def test_keyword_fields_with_equal_sets_share_a_group(self, sports_map):
        # page values are cached per raw field; equal keyword sets still meet
        text = event_csv("1,a1,above_fold,300x250,sports,England;Spain,PK,k,c,ip,ch,1",
                         "2,a1,above_fold,300x250,sports,spain; england,PK,k,c,ip,ch,0")
        bids = {"a1": 20.0}
        (row,) = aggregate_events(tally_event_log(text, bids=bids), bids, sports_map)
        assert (row.keyword_value, row.ctr) == (51.0, 0.5)


EVENT_ROWS = st.builds(
    EventRow, timestamp=st.integers(min_value=1), ad_id=st.text(),
    placement=st.sampled_from(Placement), size=st.text(), category=st.text(),
    keywords=st.text(), country=st.text(), city=st.text(), area=st.text(), ip=st.text(),
    browser=st.text(), clicked=st.booleans())


def written_log(rows):
    return EVENT_LOG_HEADER_LINE + "".join(map(event_line, rows))


def counts(tally):
    return Counter({key: count for key, (count, _) in tally.items()})


def reference_counts(log, bids=None):
    return Counter(map(event_key, read_event_log(log, bids=bids)))


class TestWriteEventRow:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(EVENT_ROWS, max_size=4))
    def test_round_trip(self, rows):
        log = written_log(rows)
        assert list(read_event_log(log)) == rows
        assert counts(tally_event_log(log)) == Counter(map(event_key, rows))

    @settings(deadline=None)
    @given(st.lists(EVENT_ROWS, min_size=1, max_size=4), st.floats(min_value=0.01, max_value=1e6))
    def test_round_trip_with_bids(self, rows, bid):
        bids = {row.ad_id: bid for row in rows}
        log = written_log(rows)
        assert list(tally_event_log(log, bids=bids).items()) == \
            list(tally_event_log(log).items())
        assert counts(tally_event_log(log, bids=bids)) == reference_counts(log, bids)

    @pytest.mark.parametrize("timestamp", [0, -1])
    def test_nonpositive_timestamp_refused(self, timestamp):
        with pytest.raises(ValidationError, match="timestamp"):
            written_log([make_event(timestamp=timestamp)])


# Edits of one row's fields; each makes the row one the readers must refuse
# or read in an unusual way.
MUTATIONS = {
    "drop a field": lambda f: f[:-1],
    "add a field": lambda f: f + ["x"],
    "drop a viewer field": lambda f: f[:7] + f[8:],  # city; the key fields and clicked stay put
    "add a viewer field": lambda f: f[:9] + [f[9][:4], f[9][4:]] + f[10:],  # ip split in two
    "comma in a field": lambda f: f[:5] + [f[5] + ",epl"] + f[6:],
    "newline in a field": lambda f: f[:8] + ["a\nb\r\nc"] + f[9:],
    "timestamp text": lambda f: ["soon"] + f[1:],
    "timestamp zero": lambda f: ["0"] + f[1:],
    "timestamp negative": lambda f: ["-3"] + f[1:],
    "clicked": lambda f: f[:11] + ["maybe"],
    "placement": lambda f: f[:2] + ["sidebar"] + f[3:],
    "ad_id": lambda f: ["1", "ghost"] + f[2:],
    "every checked field": lambda f: ["0", "ghost", "sidebar"] + f[3:11] + ["maybe"],
    "long field": lambda f: f[:6] + ["x" * 140_000] + f[7:],
}

# Few values per field, so that keys repeat and a bad row often shares its
# key with earlier good ones.
SMALL_EVENT_ROWS = st.builds(
    EventRow, timestamp=st.integers(1, 3), ad_id=st.sampled_from(["a1", "a2"]),
    placement=st.sampled_from(Placement), size=st.just("300x250"), category=st.just("sports"),
    keywords=st.just("epl;football"), country=st.text(max_size=2), city=st.just(""),
    area=st.just(""), ip=st.text(max_size=2), browser=st.just("chrome"), clicked=st.booleans())


def outcome(read):
    """What `read()` returns, or the type and message of the error it raises."""
    try:
        return list(read().items())
    except CtrServeError as exc:
        return type(exc), str(exc)


class TestTallyMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(rows=st.lists(SMALL_EVENT_ROWS, max_size=10),
           edits=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(sorted(MUTATIONS))),
                          max_size=3),
           layout=st.lists(st.tuples(st.booleans(), st.sampled_from(["\n", "\r\n"])),
                           min_size=11, max_size=11),
           with_bids=st.booleans())
    def test_counts_or_error_equal_the_per_row_reader(self, rows, edits, layout, with_bids):
        """A log written by write_event_row, then edited: up to three edits
        of rows near its start (two may hit one row), blank lines put in and
        line endings mixed."""
        records = list(csv.reader(io.StringIO(written_log(rows), newline="")))
        for index, name in edits:
            if index + 1 < len(records):
                records[index + 1] = MUTATIONS[name](records[index + 1])
        buf = io.StringIO(newline="")
        for fields, (blank_before, ending) in zip(records, layout):
            if blank_before:
                buf.write(ending)
            csv.writer(buf, lineterminator=ending).writerow(fields)
        log = buf.getvalue()
        bids = {"a1": 20.0, "a2": 10.0} if with_bids else None
        expected = outcome(lambda: reference_counts(log, bids))
        assert outcome(lambda: counts(tally_event_log(log, bids=bids))) == expected


BIG_LOG_ADS = {f"ad-{n:02d}": float(n + 1) for n in range(24)}


def big_log_records(seed):
    """The records (header first) of a seeded event log a little over
    SPLIT_MIN_BYTES whose data rows all have one length. Row n draws one of
    the first 12 + 12 * n // n_rows ads, so ad-12 to ad-22 first appear in
    turn and ad-23 never does: ad-18 to ad-22 first appear in the second
    half, and on seeds 1 and 2 so does ad-17."""
    rng = random.Random(seed)
    fields = ["1700000000000", "ad-00", "above_fold", "300x250", "sports", "epl;football",
              "GB", "", "", "10.0.0.100", "chrome", "0"]
    length = len(",".join(fields)) + 1
    n_rows = SPLIT_MIN_BYTES * 5 // 4 // length
    records = [EVENT_LOG_HEADER]
    for n in range(n_rows):
        records.append([
            str(1_700_000_000_000 + n), f"ad-{rng.randrange(12 + 12 * n // n_rows):02d}",
            rng.choice(["above_fold", "below_fold"]), rng.choice(["300x250", "160x600"]),
            rng.choice(["sports", "health"]),
            rng.choice(["epl;football", "nba;football", "cricket;test", "golf;masters"]),
            rng.choice(["GB", "US"]), "", "", f"10.0.0.{rng.randrange(100, 200)}",
            rng.choice(["chrome", "safari"]), rng.choice("0001")])
    return records


def log_bytes(records, ending="\n"):
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=ending).writerows(records)
    return buf.getvalue().encode("utf-8")


def second_half_start(data):
    """The byte where the child's half starts: after the first line break
    after the middle byte."""
    return data.index(b"\n", len(data) // 2) + 1


def split_row(data):
    """The number of the first event row the child reads."""
    return data.count(b"\n", 0, second_half_start(data))


def split_row_after_edit(records, name):
    """The row that starts the child's half once it is edited by
    `MUTATIONS[name]`. The edit moves the middle byte, by the same amount
    wherever it is, since every data row has one length; the rows before
    the edited one keep their places."""
    data = log_bytes(records)
    edit = len(log_bytes([MUTATIONS[name](records[1])])) - len(log_bytes([records[1]]))
    return data.count(b"\n", 0, data.index(b"\n", (len(data) + edit) // 2) + 1)


@pytest.fixture(scope="module")
def big_logs():
    """The records of two seeded logs over SPLIT_MIN_BYTES, by the line end
    they are written with. In each, some tallied key first appears in the
    half the child reads, so that half has keys of its own."""
    logs = {"\n": big_log_records(1), "\r\n": big_log_records(2)}
    for ending, records in logs.items():
        start = split_row(log_bytes(records, ending))
        seen = {(*record[1:6], record[11]) for record in records[1:start]}
        assert any((*record[1:6], record[11]) not in seen for record in records[start:]), ending
    return logs


@pytest.fixture()
def forks(monkeypatch):
    """The forks made during the test; at its end no child is left, running
    or unreaped."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def file_outcome(path, bids=None):
    def read():
        with open_text(path) as fh:
            return tally_event_log(fh, bids=bids)
    return outcome(read)


def sequential_outcome(path, bids, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(catalog, "SPLIT_MIN_BYTES", math.inf)
        return file_outcome(path, bids)


def split_tally(path, bids):
    """The tally of the log at `path` as the two halves read it."""
    with open_text(path) as fh:
        tally = tally_event_log(fh, bids=bids)
        assert fh.tell() == 0  # csv.reader never read the stream: no half refused
    return tally


def reference_tally(data, bids):
    """The tally of a log without blank rows built from the per-row reader."""
    tally = {}
    for i, event in enumerate(read_event_log(data, bids=bids), start=1):
        tally.setdefault(event_key(event), [0, i])[0] += 1
    return tally


def edit_late_line(ending, edit):
    """An edit of the seeded log with line ends `ending`: `edit` applied to
    the fields of a line in the second half, past the split."""
    def edited(records):
        data = log_bytes(records, ending)
        start = data.index(b"\n", second_half_start(data) + 1000) + 1
        end = data.index(b"\n", start)
        return data[:start] + b",".join(edit(data[start:end].split(b","))) + data[end:]
    return edited


def edit_early_line(ending, edit):
    """An edit of the seeded log with line ends `ending`: `edit` applied to
    the fields of line 100, in the first half, which the parent reads."""
    return lambda records: edit_row(log_bytes(records, ending), 100, edit)


def mixed_endings(records, first, second):
    """The log of `records` whose rows end with `first` in the parent's half
    and with `second` in the child's."""
    head = len(log_bytes(records[:1], first))
    a, b = (len(log_bytes(records[1:2], ending)) for ending in (first, second))
    n = len(records) - 1
    k = next(k for k in range(n)  # rows in the first half: the middle byte is in the last
             if head + (k - 1) * a <= (head + k * a + (n - k) * b) // 2 < head + k * a)
    data = log_bytes(records[:k + 1], first) + log_bytes(records[k + 1:], second)
    assert second_half_start(data) == head + k * a
    return data


# Edits of the seeded "\n" and "\r\n" logs, and how the result is read: by
# the two halves, by csv.reader after a half refuses it, or by csv.reader
# alone, a log with a quote anywhere never being split.
LOG_EDITS = {
    "quote in the second half": ("one process", edit_late_line(
        "\n", lambda f: [*f[:5], b'"' + f[5] + b'"', *f[6:]])),
    # One record on two lines of two quotes each, `...,a"b,"c` and `d",g"h,...`:
    # read line by line, they would be rows of nine and four fields.
    "record over two lines of two quotes each": ("one process", edit_late_line(
        "\n", lambda f: [*f[:7], b'a"b', b'"c\nd"', b'g"h', *f[10:]])),
    "lone carriage return in an LF log": ("refused", edit_late_line(
        "\n", lambda f: [*f[:9], b"10\r0", *f[10:]])),
    "lone carriage return in a CRLF log": ("refused", edit_late_line(
        "\r\n", lambda f: [*f[:9], b"10\r0", *f[10:]])),
    "lone line feed in a CRLF log": ("refused", edit_late_line(
        "\r\n", lambda f: [*f[:9], b"10\n0", *f[10:]])),
    # The same refusals of a chunk, made by the parent's half.
    "lone carriage return in an LF log's first half": ("refused", edit_early_line(
        "\n", lambda f: [*f[:9], b"10\r0", *f[10:]])),
    "lone line feed in a CRLF log's first half": ("refused", edit_early_line(
        "\r\n", lambda f: [*f[:9], b"10\n0", *f[10:]])),
    "byte not UTF-8 in the first half": ("refused", edit_early_line(
        "\n", lambda f: [*f[:10], b"chr\xffme", f[11]])),
    "blank line in the second half": ("refused", edit_late_line(
        "\n", lambda f: [b"\n" + f[0], *f[1:]])),
    "row of two fields in the second half": ("refused", edit_late_line(
        "\n", lambda f: [b"1", b"ad-00"])),
    "blank line in the first half": ("refused", lambda records: (
        log_bytes(records[:100]) + b"\n" + log_bytes(records[100:]))),
    "BOM": ("refused", lambda records: "\ufeff".encode("utf-8") + log_bytes(records)),
    "no final line break": ("halves", lambda records: log_bytes(records)[:-1]),
    "CRLF then LF": ("halves", lambda records: mixed_endings(records, "\r\n", "\n")),
    "LF then CRLF": ("halves", lambda records: mixed_endings(records, "\n", "\r\n")),
}


def edit_row(data, index, edit):
    """`data` with `edit` applied to the fields of its line `index`, the
    header being line 0."""
    start = 0
    for _ in range(index):
        start = data.index(b"\n", start) + 1
    end = data.index(b"\n", start)
    return data[:start] + b",".join(edit(data[start:end].split(b","))) + data[end:]


def read_by_csv_reader(path, bids):
    """Whether `tally_event_log` read the log at `path` with csv.reader. The
    halves read it with os.pread, which leaves the file at its start."""
    with open_text(path) as fh:
        try:
            tally_event_log(fh, bids=bids)
        except CtrServeError:
            pass
        return fh.buffer.tell() != 0


# Rows `_plain_chunks` refuses and csv.reader may read: the csv field size
# limit each is read under, and the edit of the row's fields.
PLAIN_CHUNK_REFUSALS = {
    "line over a lowered field limit": (200, lambda f: [*f[:7], b"c" * 150, b"a" * 150, *f[9:]]),
    "field over a lowered field limit": (200, lambda f: [*f[:7], b"c" * 250, *f[8:]]),
}


class TestTwoProcessTally:
    @pytest.mark.parametrize("with_bids", [False, True])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_equals_the_per_row_reader(self, big_logs, tmp_path, forks, ending, with_bids):
        data = log_bytes(big_logs[ending], ending)
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        bids = BIG_LOG_ADS if with_bids else None
        tally = split_tally(path, bids)
        assert len(forks) == 1
        expected = reference_tally(data, bids)
        assert list(tally.items()) == list(expected.items())
        second_half = split_row(data)
        assert any(first >= second_half for _, first in tally.values())  # keys of the child's
        keyword_map = sample_data.sports_keyword_map()
        assert (aggregate_events(tally, BIG_LOG_ADS, keyword_map)
                == aggregate_events(expected, BIG_LOG_ADS, keyword_map))

    @pytest.mark.parametrize("where", ["first half", "after the split", "last row"])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_mutated_row_gives_the_sequential_outcome(self, big_logs, tmp_path, forks,
                                                        monkeypatch, name, where):
        records = big_logs["\n"]
        index = {"first half": 100, "after the split": split_row_after_edit(records, name),
                 "last row": len(records) - 1}[where]
        data = log_bytes(records[:index] + [MUTATIONS[name](records[index])]
                         + records[index + 1:])
        assert where != "after the split" or split_row(data) == index
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        assert file_outcome(path, BIG_LOG_ADS) == sequential_outcome(path, BIG_LOG_ADS,
                                                                     monkeypatch)
        assert len(forks) == (b'"' not in data)  # csv.writer quotes a comma or line break

    @pytest.mark.parametrize("case", sorted(LOG_EDITS))
    def test_an_edited_log_gives_the_sequential_outcome(self, big_logs, tmp_path, forks,
                                                        monkeypatch, case):
        read, edit = LOG_EDITS[case]
        path = tmp_path / "events.csv"
        path.write_bytes(edit(big_logs["\n"]))
        expected = sequential_outcome(path, BIG_LOG_ADS, monkeypatch)
        assert file_outcome(path, BIG_LOG_ADS) == expected
        if read == "halves":
            assert list(split_tally(path, BIG_LOG_ADS).items()) == expected
        assert len(forks) == {"one process": 0, "refused": 1, "halves": 2}[read]

    def test_a_child_tally_larger_than_the_pipe_buffer_is_read_whole(self, big_logs, tmp_path,
                                                                     forks):
        records = [big_logs["\n"][0], *([*fields[:5], f"kw{n}", *fields[6:]]
                                        for n, fields in enumerate(big_logs["\n"][1:]))]
        data = log_bytes(records)
        child_half = reference_tally(log_bytes([EVENT_LOG_HEADER, *records[split_row(data):]]),
                                     None)
        assert len({key[4] for key in child_half}) >= 3000
        assert len(marshal.dumps(child_half)) > 64 * 1024  # more than a pipe's buffer holds
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        tally = split_tally(path, BIG_LOG_ADS)
        assert list(tally.items()) == list(reference_tally(data, BIG_LOG_ADS).items())
        assert len(forks) == 1

    @pytest.mark.parametrize("half", ["parent", "child"])
    @pytest.mark.parametrize("rule", sorted(PLAIN_CHUNK_REFUSALS))
    def test_a_chunk_the_halves_refuse_is_read_by_csv_reader(self, big_logs, tmp_path, forks,
                                                            monkeypatch, rule, half):
        """A line, or a field, longer than a field size limit lowered below a
        chunk, in either half."""
        limit, edit = PLAIN_CHUNK_REFUSALS[rule]
        records = big_logs["\n"]
        index = 100 if half == "parent" else len(records) - 100
        data = edit_row(log_bytes(records), index, edit)
        assert (index < split_row(data)) == (half == "parent")
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        old_limit = csv.field_size_limit(limit)
        try:
            expected = sequential_outcome(path, BIG_LOG_ADS, monkeypatch)
            assert file_outcome(path, BIG_LOG_ADS) == expected
            assert read_by_csv_reader(path, BIG_LOG_ADS)
        finally:
            csv.field_size_limit(old_limit)
        if rule == "field over a lowered field limit":
            assert expected == (ParseError, f"event row {index}: field larger than field limit "
                                            f"({limit})")
        assert len(forks) == 2

    def test_a_half_refuses_a_quote(self, tmp_path):
        """The scan before the fork refuses a log that holds a '"', but the
        bytes can change after it: the event-log writer cuts a failed write
        back, and the next row is written over it. A half that meets a quote
        refuses it, where a split on "," would keep '"football"' as a keyword."""
        row = "1,a1,above_fold,300x250,sports,{},PK,k,c,ip,ch,1"
        path = tmp_path / "events.csv"
        path.write_text(event_csv(row.format("football"), row.format('"football"')))
        assert [*csv.reader(io.StringIO(path.read_text()))][2][5] == "football"
        size = path.stat().st_size
        with open(path, "rb") as fh:
            with pytest.raises(catalog._NotPlain):
                list(catalog._plain_chunks(fh.fileno(), 0, size))
            with pytest.raises(catalog._NotPlain):
                catalog._tally_half(fh.fileno(), 0, size, None)
        path.write_text(event_csv(row.format("football"), row.format("football")))
        with open(path, "rb") as fh:
            assert catalog._tally_half(fh.fileno(), 0, path.stat().st_size, None)[1] == 2

    @pytest.mark.parametrize("half", ["parent", "child"])
    def test_a_nul_byte_is_read_by_the_halves(self, big_logs, tmp_path, forks, monkeypatch,
                                              half):
        """csv.reader reads a NUL byte as any other character, and so do the halves."""
        records = big_logs["\n"]
        index = 100 if half == "parent" else len(records) - 100
        data = edit_row(log_bytes(records), index, lambda f: [*f[:10], b"chr\0me", f[11]])
        assert (index < split_row(data)) == (half == "parent")
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        tally = split_tally(path, BIG_LOG_ADS)
        assert list(tally.items()) == sequential_outcome(path, BIG_LOG_ADS, monkeypatch)
        assert len(forks) == 1

    def test_bytes_not_utf8_in_the_second_half_name_the_file(self, big_logs, tmp_path, forks,
                                                             monkeypatch):
        data = log_bytes(big_logs["\n"])
        late = data.index(b",chrome,", second_half_start(data))
        path = tmp_path / "events.csv"
        path.write_bytes(data[:late] + b",chr\xffme," + data[late + 8:])
        got = file_outcome(path)
        assert got == sequential_outcome(path, None, monkeypatch)
        assert got[0] is ParseError and got[1].startswith(f"{path} is not UTF-8 text")
        assert len(forks) == 1

    def test_an_interrupt_in_the_parent_half_leaves_no_child(self, big_logs, tmp_path, forks):
        path = tmp_path / "events.csv"
        path.write_bytes(log_bytes(big_logs["\n"]))
        parent = os.getpid()

        class InterruptedInTheParent(dict):
            def __contains__(self, ad_id):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                return super().__contains__(ad_id)

        with pytest.raises(KeyboardInterrupt), open_text(path) as fh:
            tally_event_log(fh, bids=InterruptedInTheParent(BIG_LOG_ADS))
        assert len(forks) == 1

    def test_no_line_break_near_the_middle_keeps_the_read_in_one_process(self, big_logs,
                                                                         tmp_path, forks,
                                                                         monkeypatch):
        """A line longer than a chunk holds the middle byte: no half starts
        in the chunk after it, so nothing forks and csv.reader reads it all."""
        records = big_logs["\n"]
        header, row = (len(log_bytes([records[i]])) for i in (0, 1))  # data rows share a length
        long_row = [*records[1][:10], "c" * 100_000, records[1][11]]
        length = len(log_bytes([long_row]))
        n = len(records) - 1
        k = next(k for k in range(n)  # data rows before the long one
                 if 0 <= (header + length + n * row) // 2 - (header + k * row)
                 < length - catalog._CHUNK_BYTES - 1)
        data = log_bytes(records[:k + 1] + [long_row] + records[k + 1:])
        assert data.find(b"\n", len(data) // 2) > len(data) // 2 + catalog._CHUNK_BYTES
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        expected = sequential_outcome(path, BIG_LOG_ADS, monkeypatch)
        assert file_outcome(path, BIG_LOG_ADS) == expected
        assert expected == list(reference_tally(data, BIG_LOG_ADS).items())
        assert read_by_csv_reader(path, BIG_LOG_ADS)
        assert forks == []

    def test_a_fork_that_fails_leaves_the_read_to_one_process(self, big_logs, tmp_path, forks,
                                                              monkeypatch):
        data = log_bytes(big_logs["\n"])
        path = tmp_path / "events.csv"
        path.write_bytes(data)

        def failed_fork():
            forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failed_fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        assert file_outcome(path, BIG_LOG_ADS) == list(reference_tally(data, BIG_LOG_ADS).items())
        assert len(os.listdir("/proc/self/fd")) == open_fds  # both ends of the pipe closed
        assert read_by_csv_reader(path, BIG_LOG_ADS)
        assert len(forks) == 2

    def test_a_child_that_exits_before_it_sends_leaves_the_read_to_csv_reader(
            self, big_logs, tmp_path, forks):
        data = log_bytes(big_logs["\n"])
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        parent = os.getpid()

        class ExitsInTheChild(dict):
            def __contains__(self, ad_id):
                if os.getpid() != parent:
                    os._exit(3)
                return super().__contains__(ad_id)

        with open_text(path) as fh:
            tally = tally_event_log(fh, bids=ExitsInTheChild(BIG_LOG_ADS))
            assert fh.tell() != 0  # csv.reader read the log
        assert list(tally.items()) == list(reference_tally(data, BIG_LOG_ADS).items())
        assert len(forks) == 1

    def test_a_first_half_without_the_header_is_read_by_csv_reader(self, big_logs, tmp_path,
                                                                   forks, monkeypatch):
        """Blank lines fill the first half and more: the header is in the second."""
        records = big_logs["\n"]
        data = b"\n" * 2 * len(log_bytes(records)) + log_bytes(records)
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        expected = sequential_outcome(path, BIG_LOG_ADS, monkeypatch)
        assert file_outcome(path, BIG_LOG_ADS) == expected
        reference = reference_tally(log_bytes(records), BIG_LOG_ADS)  # its rows numbered from 1
        assert [(key, count) for key, (count, _) in expected] == \
            [(key, count) for key, (count, _) in reference.items()]
        assert read_by_csv_reader(path, BIG_LOG_ADS)
        assert len(forks) == 2

    def test_a_second_thread_keeps_the_read_in_one_process(self, big_logs, tmp_path, forks):
        data = log_bytes(big_logs["\n"])
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = file_outcome(path, BIG_LOG_ADS)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []
        assert got == list(reference_tally(data, BIG_LOG_ADS).items())


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


@pytest.mark.parametrize("row, message", [
    ("2,1,20,51,0.05", r"placement_code must be 0 or 1, got 2"),
    ("1,1,20,51,-0.5", r"ctr must lie in \[0,1\], got -0.5"),
])
def test_a_training_row_that_breaks_a_rule_is_named(row, message):
    with pytest.raises(ParseError, match=f"^training row 2: {message}$"):
        parse_training_table(f"placement,size,bid,keyword_value,ctr\n1,1,20,50,0.1\n{row}\n")


@pytest.mark.parametrize("read, header, row, name", [
    pytest.param(tally_event_log, EVENT_HEADER,
                 "1,a1,above_fold,300x250,sports,football,PK,k,c,ip,ch,0", "event", id="event"),
    pytest.param(parse_training_table, "placement,size,bid,keyword_value,ctr", "1,1,20,50,0.1",
                 "training", id="training"),
    pytest.param(parse_pairs_table, "y,y_pred", "0.1,0.2", "pairs", id="pairs"),
])
@pytest.mark.parametrize("n", [1, 2])
def test_a_row_the_csv_module_refuses_is_named_by_its_number(read, header, row, name, n):
    """An unquoted carriage return inside row n is a csv.Error in row n."""
    rows = [row] * (n - 1) + [row[:3] + "\r" + row[3:]]
    with pytest.raises(ParseError, match=rf"^{name} row {n}: new-line character seen"):
        read("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParseError, match=rf"^{name} row 0: new-line character seen"):
        read(header[:3] + "\r" + header[3:] + "\n" + row + "\n")


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
    pytest.param("y,y_pred\n0.1,0.2\n0.1," + "9" * 140_000 + "\n",
                 "pairs row 2: field larger than field limit", id="long field"),
    pytest.param("y,y_pred\n0.1," + "9" * 140_000 + "\n",
                 "pairs row 1: field larger than field limit", id="long field in row 1"),
    pytest.param("y," + "9" * 140_000 + "\n",
                 "pairs row 0: field larger than field limit", id="long header field"),
])
def test_bad_pairs_table(text, message):
    with pytest.raises(ParseError, match=message):
        parse_pairs_table(text)
