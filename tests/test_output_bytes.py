"""sha256 pins on outputs that must keep their bytes when the code that
writes them is rewritten. Only pure-Python outputs are pinned: the floats of
a trained model.json come from LAPACK and may differ in the last bit from one
numpy build to another."""

import hashlib

from ctrserve.cli import main
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
