import csv
import json
import os
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import ctrserve
from _oracles import least_squares_exact
from ctrserve import sample_data
from ctrserve.catalog import EVENT_LOG_HEADER
from ctrserve.cli import build_parser, main
from ctrserve.features import FeatureSchema, build_design_matrix


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--seed", "3", "--events", "2000", "--out", str(out)]) == 0
    return out


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--seed", "9", "--events", "300", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "9", "--events", "300", "--out", str(b)]) == 0
    assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()
    assert (a / "catalog.json").read_bytes() == (b / "catalog.json").read_bytes()


def test_simulate_zero_events(tmp_path):
    out = tmp_path / "empty"
    assert main(["simulate", "--seed", "1", "--events", "0", "--out", str(out)]) == 0
    assert (out / "events.csv").read_text().count("\n") == 1


def test_map_keywords(sim_dir, tmp_path, capsys):
    map_path = tmp_path / "map.json"
    rc = main(["map-keywords", "--data", str(sim_dir / "events.csv"),
               "--category", "sports", "--k", "3", "--out", str(map_path)])
    assert rc == 0
    payload = json.loads(map_path.read_text())
    assert len(payload["centroids"]) == 3
    assert "centroids:" in capsys.readouterr().out


def test_map_keywords_rerun_identical(sim_dir, tmp_path):
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["map-keywords", "--data", str(sim_dir / "events.csv"), "--k", "3"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_map_keywords_k_too_large(sim_dir, tmp_path, capsys):
    rc = main(["map-keywords", "--data", str(sim_dir / "events.csv"),
               "--k", "9999", "--out", str(tmp_path / "m.json")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_train_normal_equation_matches_oracle(tmp_path, capsys, table6_rows):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
               "--method", "normal", "--out", str(model_path)])
    assert rc == 0
    payload = json.loads(model_path.read_text())
    matrix = build_design_matrix(table6_rows, FeatureSchema())
    oracle = [float(v) for v in least_squares_exact(matrix.X.tolist(), matrix.y.tolist())]
    assert np.max(np.abs(np.array(payload["theta"]) - np.array(oracle))) < 1e-9


def test_train_gradient_descent_trace(tmp_path):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
               "--method", "gd", "--out", str(model_path)])
    assert rc == 0
    payload = json.loads(model_path.read_text())
    trace = payload["cost_trace"]
    assert len(trace) == 400
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    trace_csv = (tmp_path / "model.json.trace.csv").read_text().splitlines()
    assert trace_csv[0] == "iteration,cost" and len(trace_csv) == 401


def test_train_missing_input(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc != 0
    assert json.loads(capsys.readouterr().err)["error"]


def test_train_from_event_log(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--data", str(sim_dir / "events.csv"),
               "--ads", str(sim_dir / "catalog.json"),
               "--map", str(sim_dir / "keyword_map.json"),
               "--method", "normal", "--out", str(model_path)])
    assert rc == 0
    assert json.loads(model_path.read_text())["method"] == "normal_equation"


def test_predict_published_model(capsys):
    rc = main(["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "above_fold", "300x250", "22", "51"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.048338, abs=2e-4)


def test_predict_keyword_token_via_map(capsys):
    rc = main(["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--map", sample_data.fixture_path("keyword_map_sports.json"),
               "above_fold", "300x250", "22", "england"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.048338, abs=2e-4)


def test_predict_zero_model(tmp_path, capsys):
    payload = json.loads(sample_data._read("model_normal_eq.json"))
    payload["theta"] = [0, 0, 0, 0, 0]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    assert main(["predict", "--model", str(path), "above_fold", "300x250", "22", "51"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


@pytest.mark.parametrize("registry", [["728x90", "300x250", "160x600"], ["300x250", "728x90"]])
def test_predict_with_another_size_registry_is_json_error(tmp_path, capsys, registry):
    payload = json.loads(sample_data._read("model_normal_eq.json"))
    payload["schema"]["size_registry"] = registry
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert main(["predict", "--model", str(path), "above_fold", "300x250", "22", "51"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert "schema.size_registry" in json.loads(err[0])["error"]


@pytest.mark.parametrize("bid, keyword", [("nan", "51"), ("inf", "51"), ("22", "nan"),
                                          ("22", "infinity"), ("1e999", "51")])
def test_predict_refuses_a_non_finite_number(capsys, bid, keyword):
    rc = main(["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "above_fold", "300x250", bid, keyword])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert "must be a finite number" in json.loads(err[0])["error"]


@pytest.mark.parametrize("command, field", [("train", "nan"), ("train", "-inf"),
                                            ("evaluate", "nan"), ("evaluate", "Infinity")])
def test_non_finite_table_field_is_json_error_naming_the_row(tmp_path, capsys, command, field):
    data = tmp_path / "table.csv"
    data.write_text("placement,size,bid,keyword_value,ctr\n1,1,20,50,0.1\n"
                    f"0,2,{field},51,0.02\n")
    model = tmp_path / "model.json"
    if command == "evaluate":
        model.write_text(sample_data._read("model_normal_eq.json"))
    args = {"train": ["--method", "normal", "--out", str(model)],
            "evaluate": ["--model", str(model)]}[command]
    assert main([command, "--data", str(data), *args]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["error"] == f"training row 2: {field!r} is not a finite number"
    assert command == "evaluate" or not model.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
def test_train_refuses_an_alpha_that_is_not_positive_and_finite(tmp_path, capsys, alpha):
    model = tmp_path / "model.json"
    assert main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
                 "--method", "normal", "--alpha", alpha, "--out", str(model)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "alpha must be positive and finite" in json.loads(err[0])["error"]
    assert not model.exists()


def test_predict_unknown_size(capsys):
    rc = main(["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "above_fold", "999x1", "22", "51"])
    assert rc != 0


def test_evaluate_validation_set(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", sample_data.fixture_path("validation_sample.csv"),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    # frozen from direct per-row arithmetic with the published coefficients;
    # the printed predicted column came from a different (unpublished) fit
    assert report["se"] == pytest.approx(0.0152878, abs=1e-6)
    assert len(report["pairs"]) == 6


def test_predict_keyword_token_is_normalized_like_a_page_keyword(capsys):
    args = ["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
            "--map", sample_data.fixture_path("keyword_map_sports.json"),
            "above_fold", "300x250", "22"]
    assert main(args + ["england"]) == 0
    expected = capsys.readouterr().out
    assert main(args + [" England "]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("text", ["y,y_pred\n0.03,abc\n", "y,y_pred\n0.03\n",
                                  "y,y_pred\n0.03,nan\n", "y,y_pred\ninf,0.03\n"])
def test_evaluate_bad_pairs_is_json_error(tmp_path, capsys, text):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", str(path)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "pairs row 1" in json.loads(err[0])["error"]


def test_evaluate_pairs_replay(capsys):
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", sample_data.fixture_path("validation_pairs.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    se = float(out.splitlines()[0].split(":")[1])
    assert se == pytest.approx(0.010127, abs=1e-5)


def test_evaluate_pairs_with_quoted_header(tmp_path, capsys):
    plain = sample_data.fixture_path("validation_pairs.csv")
    quoted = tmp_path / "pairs.csv"
    quoted.write_text('"y","y_pred"' + Path(plain).read_text().removeprefix("y,y_pred"))
    outputs = []
    for data in (plain, str(quoted)):
        assert main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
                     "--data", data]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("SE: ")


def test_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CTRF_EVENTS", "5")
    out = tmp_path / "env"
    assert main(["simulate", "--seed", "1", "--events", "50", "--out", str(out)]) == 0
    assert (out / "events.csv").read_text().count("\n") == 6  # header + 5 rows


def test_bad_env_override_is_json_error(sim_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CTRF_ITERS", "abc")
    rc = main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "CTRF_ITERS" in json.loads(capsys.readouterr().err)["error"]


IO_FLAGS = {"--data", "--ads", "--map", "--model", "--out"}
COMMAND_IO = {  # command -> (its I/O flags, its positionals)
    "map-keywords": ({"--data", "--out"}, []),
    "train": ({"--data", "--ads", "--map", "--out"}, []),
    "predict": ({"--model", "--map"}, ["above_fold", "300x250", "22", "51"]),
    "evaluate": ({"--model", "--data", "--out"}, []),
    "serve": ({"--ads", "--model", "--map", "--out"}, []),
    "simulate": ({"--out"}, []),
}


@pytest.mark.parametrize("command", sorted(COMMAND_IO))
def test_each_command_has_only_the_io_flags_it_reads(command, capsys):
    flags, positionals = COMMAND_IO[command]
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([command, "--help"])
    assert exit_.value.code == 0
    listed = {word.strip("[],") for word in capsys.readouterr().out.split()}
    assert listed & IO_FLAGS == flags
    for flag in sorted(IO_FLAGS - flags):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([command, *positionals, flag, "x"])
        assert exit_.value.code == 2


def test_env_cannot_choose_the_command(tmp_path, monkeypatch):
    monkeypatch.setenv("CTRF_COMMAND", "train")
    out = tmp_path / "sim"
    assert main(["simulate", "--seed", "1", "--events", "5", "--out", str(out)]) == 0
    assert (out / "events.csv").read_text().count("\n") == 6


def test_env_cannot_set_a_positional(monkeypatch, capsys):
    args = ["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
            "above_fold", "300x250", "22", "51"]
    assert main(args) == 0
    expected = capsys.readouterr().out
    for name, value in [("CTRF_PLACEMENT", "sideways"), ("CTRF_BID", "x"),
                        ("CTRF_KEYWORD", "england")]:
        monkeypatch.setenv(name, value)
    assert main(args) == 0
    assert capsys.readouterr().out == expected


def test_env_reaches_only_the_chosen_commands_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("CTRF_METHOD", "banana")  # a train flag
    monkeypatch.setenv("CTRF_PORT", "none")      # a serve flag
    assert main(["simulate", "--seed", "1", "--events", "5", "--out", str(tmp_path)]) == 0


def test_env_value_outside_the_flags_choices_is_json_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CTRF_METHOD", "banana")
    rc = main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "CTRF_METHOD" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "m.json").exists()

    monkeypatch.setenv("CTRF_MODE", "foo")
    rc = main(["serve", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
               "--out", str(tmp_path / "events.csv"), "--port", "0"])
    assert rc == 1
    assert "CTRF_MODE" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("raw, n_theta", [("yes", 4), ("1", 4), ("0", 5), ("no", 5)])
def test_env_switch(tmp_path, monkeypatch, raw, n_theta):
    monkeypatch.setenv("CTRF_NO_INTERCEPT", raw)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
                 "--method", "normal", "--no-intercept", "--out", str(model_path)]) == 0
    assert len(json.loads(model_path.read_text())["theta"]) == n_theta


def rename_keyword(src, dst, old, new):
    """Copy the event log `src` to `dst` with keyword token `old` renamed `new`."""
    with open(src, newline="") as fin, open(dst, "w", newline="") as fout:
        writer = csv.writer(fout)
        for row in csv.reader(fin):
            row[5] = ";".join(new if t == old else t for t in row[5].split(";"))
            writer.writerow(row)


def test_carriage_return_in_a_quoted_field_reads_back(sim_dir, tmp_path):
    """A keyword with a carriage return in it is a quoted CSV field, and
    map-keywords and train read it as written: the map and the model are
    those of the log with a plain keyword in its place."""
    rename_keyword(sim_dir / "events.csv", tmp_path / "events.csv", "football", "foot\rball")
    assert b'"foot\rball' in (tmp_path / "events.csv").read_bytes()
    maps = {}
    for name, log in [("plain", sim_dir / "events.csv"), ("cr", tmp_path / "events.csv")]:
        maps[name] = tmp_path / f"map_{name}.json"
        assert main(["map-keywords", "--data", str(log), "--k", "3",
                     "--out", str(maps[name])]) == 0
    plain = json.loads(maps["plain"].read_text())
    assert "football" in plain["values"]
    assert json.loads(maps["cr"].read_text())["values"] == {
        ("foot\rball" if k == "football" else k): v for k, v in plain["values"].items()}
    models = []
    for name, log in [("plain", sim_dir / "events.csv"), ("cr", tmp_path / "events.csv")]:
        model_path = tmp_path / f"model_{name}.json"
        assert main(["train", "--data", str(log), "--ads", str(sim_dir / "catalog.json"),
                     "--map", str(maps[name]), "--method", "normal",
                     "--out", str(model_path)]) == 0
        models.append(json.loads(model_path.read_text())["theta"])
    assert models[0] == models[1]


GOOD_ROWS = 1000

# (name, edit of one good row's fields); the edited row follows GOOD_ROWS good ones
BAD_ROWS = {
    "clicked": lambda f: f[:11] + ["maybe"],
    "timestamp zero": lambda f: ["0"] + f[1:],
    "timestamp soon": lambda f: ["soon"] + f[1:],
    "eleven fields": lambda f: f[:11],
    "placement": lambda f: f[:2] + ["sidebar"] + f[3:],
}


def log_with_bad_row(sim_dir, tmp_path, edit):
    lines = (sim_dir / "events.csv").read_text().splitlines()
    header, good = lines[0], lines[1:GOOD_ROWS + 1]
    bad = ",".join(edit(good[0].split(",")))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *good, bad]) + "\n")
    return path


def assert_names_bad_row(rc, capsys):
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"event row {GOOD_ROWS + 1}:" in json.loads(err[0])["error"]


def other_category(fields):
    return fields[:4] + ["news"] + fields[5:]


@pytest.mark.parametrize("category", ["sports", "news"])
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_map_keywords_names_bad_row(sim_dir, tmp_path, capsys, kind, category):
    # rows of another category are validated too
    edit = BAD_ROWS[kind] if category == "sports" else (lambda f: BAD_ROWS[kind](other_category(f)))
    path = log_with_bad_row(sim_dir, tmp_path, edit)
    rc = main(["map-keywords", "--data", str(path), "--category", "sports", "--k", "3",
               "--out", str(tmp_path / "m.json")])
    assert_names_bad_row(rc, capsys)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("kind", sorted(BAD_ROWS) + ["ad_id"])
def test_train_names_bad_row(sim_dir, tmp_path, capsys, kind):
    edit = BAD_ROWS.get(kind, lambda f: f[:1] + ["ghost-ad"] + f[2:])
    path = log_with_bad_row(sim_dir, tmp_path, edit)
    rc = main(["train", "--data", str(path), "--ads", str(sim_dir / "catalog.json"),
               "--map", str(sim_dir / "keyword_map.json"), "--method", "normal",
               "--out", str(tmp_path / "model.json")])
    assert_names_bad_row(rc, capsys)
    assert not (tmp_path / "model.json").exists()


def test_offline_commands_build_no_event_objects(sim_dir, tmp_path, monkeypatch):
    from ctrserve import catalog

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(catalog.RequestContext, "__init__", refuse)
    map_path = tmp_path / "map.json"
    assert main(["map-keywords", "--data", str(sim_dir / "events.csv"), "--k", "3",
                 "--out", str(map_path)]) == 0
    assert main(["train", "--data", str(sim_dir / "events.csv"),
                 "--ads", str(sim_dir / "catalog.json"), "--map", str(map_path),
                 "--method", "normal", "--out", str(tmp_path / "model.json")]) == 0



def child_python(*args):
    """A Python child process that imports this checkout's ctrserve."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ctrserve.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def serve_process(tmp_path, port):
    return child_python("-m", "ctrserve.cli", "serve",
                        "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                        "--out", str(tmp_path / "events.csv"), "--port", str(port))


def test_serve_prints_the_port_it_bound(tmp_path):
    proc = serve_process(tmp_path, 0)
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on port "), line + proc.stderr.read()
        port = int(line.split()[3])
        assert port != 0
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5) as resp:
            assert resp.status == 200
    finally:
        proc.kill()
        proc.communicate(timeout=10)


def test_serve_on_a_port_in_use_is_an_error_and_prints_no_port(tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        proc = serve_process(tmp_path, taken.getsockname()[1])
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 1 and out == ""
    assert "error" in json.loads(err.strip().splitlines()[-1])


def test_serve_on_a_port_in_use_closes_its_event_log(tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        proc = child_python("-X", "dev", "-W", "always::ResourceWarning", "-m", "ctrserve.cli",
                            "serve", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                            "--out", str(tmp_path / "events.csv"),
                            "--port", str(taken.getsockname()[1]))
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 1 and out == ""
    [line] = err.splitlines()  # the error and no ResourceWarning
    assert "error" in json.loads(line)


@pytest.mark.parametrize("content", [
    b"a,b\n1,2\n",
    (",".join(EVENT_LOG_HEADER) + "\r\n1,boots-01,above_fold,300x250,sports,epl,,,,,,0").encode(),
], ids=["other header", "unterminated last row"])
def test_serve_refuses_an_event_log_it_cannot_extend(tmp_path, capsys, content):
    path = tmp_path / "events.csv"
    path.write_bytes(content)
    with socket.socket() as taken:  # a server that took the log could not serve and hang
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        rc = main(["serve", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                   "--out", str(path), "--port", str(taken.getsockname()[1])])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(path) in json.loads(err[0])["error"]
    assert path.read_bytes() == content


def test_cli_import_loads_neither_numpy_nor_the_http_server():
    proc = child_python("-c", "import sys, ctrserve.cli; "
                              "print(sorted({'numpy', 'http.server'} & set(sys.modules)))")
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert out.strip() == "[]"


NUMPY_FREE_ONLINE_HALF = """
import json, sys, tempfile, urllib.request
from pathlib import Path

loaded = {}
import ctrserve.server
loaded["import ctrserve.server"] = "numpy" in sys.modules

from ctrserve import sample_data
from ctrserve.cli import main
from ctrserve.server import AdServer, ServerConfig

fixture = sample_data.fixture_path
model = fixture("model_normal_eq.json")
with tempfile.TemporaryDirectory() as tmp:
    srv = AdServer(ServerConfig(catalog_path=fixture("ad_catalog_sample.json"), model_path=model,
                                map_path=fixture("keyword_map_sports.json"),
                                event_log_path=str(Path(tmp) / "events.csv"), port=0))
    try:
        base = f"http://127.0.0.1:{srv.start()}"
        with urllib.request.urlopen(base + "/ad?placement=above_fold&size=300x250"
                                    "&category=sports&keywords=football&country=PK&mode=ctr") as r:
            assert json.load(r)["status"] == "filled"
        with urllib.request.urlopen(urllib.request.Request(base + "/reload", data=b"{}")) as r:
            assert r.status == 200
    finally:
        srv.stop()
loaded["serve a ctr /ad and a /reload"] = "numpy" in sys.modules

assert main(["predict", "--model", model, "above_fold", "300x250", "22", "51"]) == 0
loaded["predict"] = "numpy" in sys.modules
for data in ("validation_sample.csv", "validation_pairs.csv"):
    assert main(["evaluate", "--model", model, "--data", fixture(data)]) == 0
loaded["evaluate"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_online_half_never_loads_numpy():
    proc = child_python("-c", NUMPY_FREE_ONLINE_HALF)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == {
        "import ctrserve.server": False, "serve a ctr /ad and a /reload": False,
        "predict": False, "evaluate": False}

