import json
from pathlib import Path

from ctrserve.cli import main
from test_cli import child_python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "offline_stages.py"


def test_the_offline_stages_probe_prints_one_json_line(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--seed", "3", "--events", "2000", "--out", str(sim)]) == 0
    probe = child_python(str(SCRIPT), "--data", str(sim / "events.csv"),
                         "--ads", str(sim / "catalog.json"), "--map", str(sim / "keyword_map.json"),
                         "--repeats", "2")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 0, err
    (line,) = out.splitlines()
    result = json.loads(line)
    assert set(result) == {"tally_ms", "csv_tally_ms", "aggregate_ms", "fit_ms", "keys", "rows"}
    assert result["rows"] == 2000 and 0 < result["keys"] <= 2000
    assert all(result[name] > 0 for name in ("tally_ms", "csv_tally_ms", "aggregate_ms", "fit_ms"))


def test_a_catalog_the_loader_refuses_is_refused_with_its_error(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--seed", "3", "--events", "20", "--out", str(sim)]) == 0
    (sim / "catalog.json").write_text('[{"ad_id": "a", "campaign_id" "c"}]')
    probe = child_python(str(SCRIPT), "--data", str(sim / "events.csv"),
                         "--ads", str(sim / "catalog.json"), "--map", str(sim / "keyword_map.json"),
                         "--repeats", "1")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and out == ""
    assert "catalog is not valid JSON" in err and "Traceback" not in err
