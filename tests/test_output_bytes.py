"""sha256 pins on outputs that must keep their bytes when the code that
writes them is rewritten. Only pure-Python outputs are pinned, but for
`scripts/replay_tables.py`: the floats of a trained model.json come from
LAPACK and may differ in the last bit from one numpy build to another, and
the replay script prints fitted coefficients, so its pin holds for the numpy
build it was taken with (numpy 2.4.6)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import ctrserve
from ctrserve import sample_data
from ctrserve.catalog import Placement, RequestContext, parse_ad_catalog, serialize_ad_catalog
from ctrserve.cli import main
from ctrserve.evaluation import EvaluationReport
from ctrserve.server import (FILLED, MODE_BID, MODE_CTR, NO_FILL, AdResponse, EventLogWriter,
                             ServingState)
from ctrserve.simulate import SimulationConfig, run_simulation

SIMULATION_SHA256 = {
    "catalog_json": "64ef46ab90c90242e8f6b8cd9de4764d002800e6c4a21f49ffb6c7ea2011a19e",
    "events_csv": "b1f3021be4b0ba050acb93111b0e9b085b21184ac3bb5ea0ae4f3ca657b4de56",
    "map_json": "2819f78c5cddf75ecc6423e949ada0390d8d5b8a12f8fd6d3c1960fdc0b44a23",
    "truth_json": "ff33fd632dc85f4b0a5d412a192a538dcecad61142d02cf21a8e67546ca85353",
}
MINED_MAP_SHA256 = "f399dd1228fae39ba4a8ff723f0a6ddd4aaa6cba53fb3b265a2cb09604f08dfc"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulation_and_mined_map_keep_their_bytes(tmp_path):
    out = run_simulation(SimulationConfig(seed=7, n_events=10000))
    assert {name: sha256(getattr(out, name).encode("utf-8"))
            for name in SIMULATION_SHA256} == SIMULATION_SHA256
    events, map_path = tmp_path / "events.csv", tmp_path / "map.json"
    events.write_bytes(out.events_csv.encode("utf-8"))
    assert main(["map-keywords", "--data", str(events), "--category", "sports", "--k", "3",
                 "--out", str(map_path)]) == 0
    assert sha256(map_path.read_bytes()) == MINED_MAP_SHA256


AD_RESPONSE_SHA256 = {
    "filled": "e2af89d6db01ae81c28f897bc113659888b82d9b6e5775952d430b11a4b3517b",
    "no_fill": "011700e25a3de31ace4fd5e9ddbc79a725c57d2e4913cea10a8e0c11023d86be",
}
SAMPLE_CATALOG_SHA256 = "5b05ec57369fbc473942974409beacf3e496319e53489e7cc42bce8c591dc94a"
REPORT_SHA256 = "3add2ff82a138db8bd08a0bfed994d44134db01e71722311dd0ac07612b5389e"
EVENT_LOG_SHA256 = "1a9875ea10d704733543e8daca29fa8f13364ead8fcd875536850eeb7f4765e8"


def sample_catalog():
    with open(sample_data.fixture_path("ad_catalog_sample.json")) as fh:
        return parse_ad_catalog(fh)


def test_ad_responses_keep_their_bytes():
    filled = AdResponse(status=FILLED, mode=MODE_CTR, latency_micros=17, ad_id="boots-01",
                        campaign_id="camp-boots", landing_page="https://example.com/boots",
                        size="300x250", score=0.0523)
    no_fill = AdResponse(status=NO_FILL, mode=MODE_BID, latency_micros=3)
    assert {"filled": sha256(filled.to_json().encode("utf-8")),
            "no_fill": sha256(no_fill.to_json().encode("utf-8"))} == AD_RESPONSE_SHA256


def test_serialized_sample_catalog_keeps_its_bytes():
    assert sha256(serialize_ad_catalog(sample_catalog()).encode("utf-8")) == SAMPLE_CATALOG_SHA256


def test_evaluation_report_keeps_its_bytes():
    report = EvaluationReport(n=2, pairs=((0.03, 0.031575, -0.001575), (0.05, 0.04, 0.01)),
                              sse=1.0248e-4, ym=0.04, ssto=2e-4, se=0.0071582, r_squared=0.4876)
    assert sha256(report.to_json().encode("utf-8")) == REPORT_SHA256


def test_event_log_writer_keeps_its_bytes(tmp_path):
    state = ServingState(catalog=tuple(sample_catalog()))
    events = [
        ("boots-01", RequestContext(Placement.ABOVE_FOLD, "300x250", "sports",
                                    frozenset({"football", "epl"}), "Punjab", "Lahore", "PK",
                                    "10.0.0.1", "chrome"), False, 1_700_000_000_001),
        ("jersey-02", RequestContext(Placement.BELOW_FOLD, "300x250", "sports",
                                     frozenset({"ronaldo"}), "", "London", "GB",
                                     "10.0.0.2", 'Mozilla/5.0 (X11, "quoted")'), True,
         1_700_000_000_002),
        ("stream-03", RequestContext(Placement.ABOVE_FOLD, "728x90", "sports",
                                     frozenset({"cricket"})), False, 1_700_000_000_003),
    ]
    path = tmp_path / "events.csv"
    log = EventLogWriter(path)
    try:
        for ad_id, context, clicked, timestamp in events:
            log.record_event(state, ad_id, context, clicked, timestamp=timestamp)
    finally:
        log.close()
    assert sha256(path.read_bytes()) == EVENT_LOG_SHA256


REPLAY_TABLES_SHA256 = "b1b8f148979b2d96ea951222a2fe70f68324c220d35d0d98ccd6062ed227d604"


def test_replay_tables_script_keeps_its_stdout():
    script = Path(__file__).parents[1] / "scripts" / "replay_tables.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ctrserve.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                            check=True)
    assert sha256(result.stdout) == REPLAY_TABLES_SHA256
