import json
from pathlib import Path

import pytest

from ctrserve.cli import main
from ctrserve.server import ServerConfig, load_steps
from test_cli import child_python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "load_stages.py"
TIMES = ("build_ms", "load_ms", "reload_same_ms", "reload_model_ms", "max_step_ms")


def test_the_load_stages_probe_prints_one_json_line(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--seed", "3", "--events", "2000", "--out", str(sim)]) == 0
    assert main(["train", "--data", str(sim / "events.csv"), "--ads", str(sim / "catalog.json"),
                 "--map", str(sim / "keyword_map.json"), "--out", str(sim / "model.json"),
                 "--method", "normal"]) == 0
    catalog = json.loads((sim / "catalog.json").read_text(encoding="utf-8"))
    steps = list(load_steps(ServerConfig(catalog_path=str(sim / "catalog.json"))))
    stages = {f"{step}_ms" for step in steps if isinstance(step, str)}  # the loader's names
    for files in ([], ["--model", str(sim / "model.json"), "--map", str(sim / "keyword_map.json")]):
        probe = child_python(str(SCRIPT), "--ads", str(sim / "catalog.json"), *files,
                             "--repeats", "2")
        out, err = probe.communicate(timeout=60)
        assert probe.returncode == 0, err
        (line,) = out.splitlines()
        result = json.loads(line)
        assert set(result) == {*stages, *TIMES, "steps", "ads"}
        assert result["ads"] == len(catalog) > 0 and result["steps"] == len(steps)
        assert all(result[name] > 0 for name in (*stages, *TIMES))
        assert sum(result[name] for name in (*stages, "build_ms")) == \
            pytest.approx(result["load_ms"])


def test_a_model_without_a_map_is_refused(tmp_path):
    probe = child_python(str(SCRIPT), "--ads", str(tmp_path / "ads.json"),
                         "--model", str(tmp_path / "model.json"))
    _, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and "--model and --map go together" in err


def test_a_catalog_the_loader_refuses_is_refused_with_its_error(tmp_path):
    ads = tmp_path / "ads.json"
    ads.write_text('[{"ad_id": "a", "campaign_id" "c"}]')
    probe = child_python(str(SCRIPT), "--ads", str(ads), "--repeats", "1")
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 2 and out == ""
    assert "catalog is not valid JSON" in err and "Traceback" not in err
