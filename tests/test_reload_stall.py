import json
from pathlib import Path

import pytest

from ctrserve.catalog import AdCreative, serialize_ad_catalog
from test_cli import child_python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reload_stall.py"


def test_the_reload_stall_probe_prints_one_json_line(tmp_path):
    ads = tmp_path / "ads.json"
    ads.write_text(serialize_ad_catalog([
        AdCreative(ad_id=f"ad-{i}", campaign_id="c", category="sports", size="300x250",
                   bid=1.0 + i, landing_page="https://x.example",
                   keywords=frozenset({"football", f"k{i}"}))
        for i in range(20)]))
    probe = child_python(str(SCRIPT), "--ads", str(ads), "--seconds", "0.5")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 0, err
    (line,) = out.splitlines()
    result = json.loads(line)
    assert set(result) == {
        "seconds", "requests", "reloads", "reload_ms_min", "reload_ms_median", "overlapping",
        "overlapping_over_1ms", "overlapping_over_10ms", "overlapping_over_20ms",
        "overlapping_max_ms", "outside_p999_ms"}
    assert result["requests"] > 0 and result["reloads"] >= 1


def test_a_model_without_a_map_is_refused(tmp_path):
    for flag in ("--model", "--map"):
        probe = child_python(str(SCRIPT), "--ads", str(tmp_path / "ads.json"),
                             flag, str(tmp_path / "file.json"))
        _, err = probe.communicate(timeout=60)
        assert probe.returncode == 2 and "--model and --map go together" in err


def test_a_catalog_without_ads_is_refused_before_the_server_starts(tmp_path):
    ads = tmp_path / "ads.json"
    ads.write_text("[]")
    probe = child_python(str(SCRIPT), "--ads", str(ads), "--seconds", "0.5")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and out == "" and "holds no ads to request" in err


@pytest.mark.parametrize("text, error", [
    ('[{"ad_id": "a", "campaign_id" "c"}]', "catalog is not valid JSON: Expecting ':' delimiter"),
    ('[{"ad_id": "a"}]', "catalog record 0: missing field"),
], ids=["truncated", "missing field"])
def test_a_catalog_the_loader_refuses_is_refused_before_the_server_starts(tmp_path, text, error):
    ads = tmp_path / "ads.json"
    ads.write_text(text)
    probe = child_python(str(SCRIPT), "--ads", str(ads), "--seconds", "0.5")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and out == ""
    assert error in err and "Traceback" not in err


def test_a_model_the_loader_refuses_is_refused_before_the_server_starts(tmp_path):
    ads = tmp_path / "ads.json"
    ads.write_text(serialize_ad_catalog([
        AdCreative(ad_id="a", campaign_id="c", category="sports", size="300x250", bid=1.0,
                   landing_page="https://x.example", keywords=frozenset({"football"}))]))
    probe = child_python(str(SCRIPT), "--ads", str(ads), "--model", str(tmp_path / "none.json"),
                         "--map", str(tmp_path / "none.json"), "--seconds", "0.5")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and out == ""
    assert "No such file or directory" in err and "Traceback" not in err
