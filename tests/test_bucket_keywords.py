"""Each (size, category) bucket of a snapshot keeps the set of every keyword
its ads carry. A reload of the same catalog bytes shares the live
snapshot's sets, as it shares its buckets; a changed catalog builds new ones."""

from pathlib import Path

from ctrserve.catalog import open_text, parse_ad_catalog
from ctrserve.server import load_state
from test_snapshot_memory import catalog_records, config_for


def bucket_keywords(catalog_path: str) -> dict:
    """Every bucket's keywords, read from the catalog file ad by ad."""
    with open_text(catalog_path) as fh:
        catalog = parse_ad_catalog(fh)
    out: dict = {}
    for ad in catalog:
        out.setdefault((ad.size, ad.category), set()).update(ad.keywords)
    return out


def test_each_bucket_keeps_every_keyword_of_its_ads(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=12))
    state = load_state(config)
    assert {key: bucket.keywords for key, bucket in state.index.items()} == \
        bucket_keywords(config.catalog_path)
    assert all(type(bucket.keywords) is frozenset for bucket in state.index.values())


def test_unchanged_bytes_share_the_keyword_sets_and_changed_bytes_build_new_ones(tmp_path):
    config = config_for(tmp_path, catalog_records(600, seed=13))
    live = load_state(config)
    same = load_state(config, live)
    assert all(same.index[key].keywords is live.index[key].keywords for key in live.index)
    path = Path(config.catalog_path)
    path.write_text(path.read_text().replace('"epl"', '"premier"'))
    changed = load_state(config, same)
    assert changed.catalog_digest != same.catalog_digest
    assert all(changed.index[key].keywords is not same.index[key].keywords
               for key in same.index)
    assert {key: bucket.keywords for key, bucket in changed.index.items()} == \
        bucket_keywords(config.catalog_path)
    assert any("premier" in bucket.keywords for bucket in changed.index.values())
    assert not any("epl" in bucket.keywords for bucket in changed.index.values())
