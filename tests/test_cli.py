import argparse
import csv
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import ctrserve
from _oracles import least_squares_exact
from conftest import map_for_category
from ctrserve import sample_data
from ctrserve.catalog import EVENT_LOG_HEADER
from ctrserve.cli import build_parser, main
from ctrserve.features import build_design_matrix


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
    matrix = build_design_matrix(table6_rows)
    oracle = [float(v) for v in least_squares_exact(matrix.X.tolist(), matrix.y.tolist())]
    assert np.max(np.abs(np.array(payload["theta"]) - np.array(oracle))) < 1e-9


# The costs come from numpy arithmetic, so this pin holds for the numpy build
# it was taken with (numpy 2.4.6), like the replay-script pin.
TRACE_CSV_SHA256 = "691dac125672e1febd87548f01674be5cc6b19bfa0eb4d476a8fa6fbae3ec625"


def test_train_gradient_descent_trace(tmp_path):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--data", sample_data.fixture_path("training_sample.csv"),
               "--method", "gd", "--out", str(model_path)])
    assert rc == 0
    payload = json.loads(model_path.read_text())
    trace = payload["cost_trace"]
    assert len(trace) == 400
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    trace_bytes = (tmp_path / "model.json.trace.csv").read_bytes()
    trace_csv = trace_bytes.decode().splitlines()
    assert trace_csv[0] == "iteration,cost" and len(trace_csv) == 401
    assert trace_csv[1] == f"1,{trace[0]!r}" and trace_csv[-1] == f"400,{trace[-1]!r}"
    assert hashlib.sha256(trace_bytes).hexdigest() == TRACE_CSV_SHA256


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


def test_predict_refuses_a_map_of_another_category_like_serve(tmp_path, capsys):
    model = sample_data.fixture_path("model_normal_eq.json")
    health = map_for_category(tmp_path, "health")
    for keyword in ("football", "51"):  # the map is checked whether or not it is read
        rc = main(["predict", "--model", model, "--map", health,
                   "above_fold", "300x250", "10", keyword])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        assert json.loads(err[0])["error"] == (f"model {model} was trained with the 'sports' "
                                               f"keyword map, but map {health} is for 'health'")


def test_predict_opens_its_map_for_a_numeric_keyword(tmp_path, capsys):
    args = ["predict", "--model", sample_data.fixture_path("model_normal_eq.json")]
    request = ["above_fold", "300x250", "10", "51"]
    assert main(args + ["--map", str(tmp_path / "missing.json"), *request]) == 1
    assert capsys.readouterr().out == ""
    assert main(args + request) == 0
    expected = capsys.readouterr().out
    assert main(args + ["--map", sample_data.fixture_path("keyword_map_sports.json"),
                        *request]) == 0
    assert capsys.readouterr().out == expected


def test_predict_model_without_map_ref_takes_any_map(tmp_path, capsys):
    payload = json.loads(sample_data._read("model_normal_eq.json"))
    payload["keyword_map_ref"] = ""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    args = ["above_fold", "300x250", "10", "football"]
    assert main(["predict", "--model", str(model), "--map",
                 sample_data.fixture_path("keyword_map_sports.json"), *args]) == 0
    expected = capsys.readouterr().out
    assert main(["predict", "--model", str(model), "--map",
                 map_for_category(tmp_path, "health"), *args]) == 0
    assert capsys.readouterr().out == expected


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


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("row, message", [
    ("2,1,20,51,0.05", "placement_code must be 0 or 1, got 2"),
    ("1,1,20,51,1.5", "ctr must lie in [0,1], got 1.5"),
    (f"0,1{'0' * 400},10,51,0.02", "size code 10000000000000000000... is too large for a float"),
])
def test_a_training_row_rule_is_json_error_naming_the_row(tmp_path, capsys, command, row,
                                                          message):
    data = tmp_path / "table.csv"
    data.write_text(f"placement,size,bid,keyword_value,ctr\n1,1,20,50,0.1\n{row}\n")
    model = tmp_path / "model.json"
    if command == "evaluate":
        model.write_text(sample_data._read("model_normal_eq.json"))
    args = {"train": ["--method", "normal", "--out", str(model)],
            "evaluate": ["--model", str(model)]}[command]
    assert main([command, "--data", str(data), *args]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["error"] == f"training row 2: {message}"
    assert command == "evaluate" or not model.exists()


@pytest.mark.parametrize("text", ["y,y_pred\n0.1,1e200\n0.2,0.3\n",
                                  "placement,size,bid,keyword_value,ctr\n1,1,20,50,0.08\n"
                                  "1,1,1e308,47,0.04\n"], ids=["pairs", "training"])
def test_evaluate_refuses_a_squared_residual_past_the_float_range(tmp_path, capsys, text):
    data, report = tmp_path / "table.csv", tmp_path / "report.json"
    data.write_text(text)
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", str(data), "--out", str(report)])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["error"] == \
        "a squared residual or deviation is too large for a float"
    assert not report.exists()


def test_predict_unknown_size(capsys):
    rc = main(["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "above_fold", "999x1", "22", "51"])
    assert rc != 0


VALIDATION_REPORT_SHA256 = "fc747e6d6bfc42ef34c57abefc03a3bd03442d0b9f639cbdf7059b18e294a48c"


def test_evaluate_validation_set(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", sample_data.fixture_path("validation_sample.csv"),
               "--out", str(report_path)])
    assert rc == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == VALIDATION_REPORT_SHA256
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


@pytest.mark.parametrize("text", ["placement,size,bid,keyword_value,ctr\n1,1,20,50,0.05\n"
                                  "0,2,10,51,0.05\n",
                                  "y,y_pred\n0.05,0.04\n0.05,0.06\n"])
def test_evaluate_refuses_a_constant_observed_series(tmp_path, capsys, text):
    data, report = tmp_path / "table.csv", tmp_path / "report.json"
    data.write_text(text)
    rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
               "--data", str(data), "--out", str(report)])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0])["error"] == "observed values are constant; R squared is undefined"
    assert not report.exists()


def test_evaluate_pairs_replay(tmp_path, capsys):
    reports = {}
    for data in ("validation_pairs.csv", "validation_sample.csv"):
        reports[data] = tmp_path / f"{data}.json"
        rc = main(["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"),
                   "--data", sample_data.fixture_path(data), "--out", str(reports[data])])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"wrote {reports[data]}"  # one report format for both tables
    pairs, table = (json.loads(path.read_text()) for path in reports.values())
    assert pairs.keys() == table.keys()
    assert pairs["se"] == pytest.approx(0.010127, abs=1e-5)
    assert (pairs["se"], pairs["r_squared"]) == (0.01012637647433671, 0.7416941337488264)
    assert len(pairs["pairs"]) == pairs["n"] == 6


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


FULL_COMMAND_LINES = {  # command -> (a command line it runs, the flags argparse requires)
    "map-keywords": (["--data", "events.csv", "--out", "map.json"], ["--data", "--out"]),
    "train": (["--data", "training.csv", "--out", "model.json"], ["--data", "--out"]),
    "predict": (["--model", "model.json", "above_fold", "300x250", "22", "51"], ["--model"]),
    "evaluate": (["--model", "model.json", "--data", "validation.csv"], ["--model", "--data"]),
    "serve": (["--ads", "catalog.json", "--port", "0"], ["--ads"]),
    "simulate": (["--out", "sim"], ["--out"]),
}


IO_FLAGS = {"--data", "--ads", "--map", "--model", "--out"}
COMMAND_IO = {  # command -> its I/O flags
    "map-keywords": {"--data", "--out"},
    "train": {"--data", "--ads", "--map", "--out"},
    "predict": {"--model", "--map"},
    "evaluate": {"--model", "--data", "--out"},
    "serve": {"--ads", "--model", "--map", "--out"},
    "simulate": {"--out"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_IO))
def test_each_command_has_only_the_io_flags_it_reads(command, capsys):
    flags = COMMAND_IO[command]
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([command, "--help"])
    assert exit_.value.code == 0
    listed = {word.strip("[],") for word in capsys.readouterr().out.split()}
    assert listed & IO_FLAGS == flags
    argv, _ = FULL_COMMAND_LINES[command]
    for flag in sorted(IO_FLAGS - flags):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([command, *argv, flag, "x"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, removed", [
    ("train", {"--data", "--ads", "--map", "--out", "--method"}, ["--alpha 0.01", "--iters 400"]),
    ("simulate", {"--out", "--seed", "--events"}, ["--category sports"]),
])
def test_the_recipe_is_not_a_flag(command, flags, removed, capsys):
    """Gradient descent runs alpha 0.01 for 400 iterations and the simulator
    plants the sports vocabulary; neither is settable from the command line."""
    [commands] = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    declared = {opt for a in commands[command]._actions for opt in a.option_strings}
    assert declared - {"-h", "--help"} == flags
    argv, _ = FULL_COMMAND_LINES[command]
    for flag_value in removed:
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([command, *argv, *flag_value.split()])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag_value}" in capsys.readouterr().err


def test_ctrf_variables_do_nothing(tmp_path, monkeypatch, capsys):
    """The command line is the only input: an environment variable named
    like a flag, a positional or the command changes no output."""
    runs = [
        ["simulate", "--seed", "1", "--events", "50", "--out", str(tmp_path / "sim")],
        ["train", "--data", sample_data.fixture_path("training_sample.csv"),
         "--out", str(tmp_path / "m.json")],
        ["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
         "above_fold", "300x250", "22", "51"],
    ]

    def outputs():
        for argv in runs:
            assert main(argv) == 0
        return (capsys.readouterr(), (tmp_path / "sim" / "events.csv").read_bytes(),
                (tmp_path / "m.json").read_bytes())

    expected = outputs()
    assert expected[1].count(b"\n") == 51  # header + 50 rows
    for name, value in [("EVENTS", "5"), ("ITERS", "abc"), ("ALPHA", "0.5"),
                        ("METHOD", "banana"), ("NO_INTERCEPT", "yes"), ("COMMAND", "train"),
                        ("OUT", str(tmp_path / "elsewhere")), ("MODEL", "missing.json"),
                        ("PLACEMENT", "sideways"), ("BID", "x"), ("KEYWORD", "england"),
                        ("PORT", "none"), ("MODE", "foo")]:
        monkeypatch.setenv("CTRF_" + name, value)
    assert outputs() == expected
    assert not (tmp_path / "elsewhere").exists()


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


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in FULL_COMMAND_LINES.items()
                                           for f in flags])
def test_missing_required_flag_is_a_malformed_command_line(tmp_path, monkeypatch, capsys,
                                                           command, flag):
    argv, _ = FULL_COMMAND_LINES[command]
    build_parser().parse_args([command, *argv])
    i = argv.index(flag)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main([command, *argv[:i], *argv[i + 2:]])
    assert exit_.value.code == 2
    assert f"required: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_command_table_lists_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        command, flags = row.strip("|").split("|", 1)
        listed[command.strip(" `")] = set(re.findall(r"--[a-z][a-z-]*", flags))
    [commands] = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
                for name, p in commands.items()}
    assert listed == declared


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


# `train` also refuses an ad outside the catalog, a size outside the registry
# and a keywords field without a token; map-keywords reads none of these.
TRAIN_BAD_ROWS = {
    **BAD_ROWS,
    "ad_id": lambda f: f[:1] + ["ghost-ad"] + f[2:],
    "size": lambda f: f[:3] + ["999x1"] + f[4:],
    "keywords": lambda f: f[:5] + [";"] + f[6:],
}


@pytest.mark.parametrize("kind", sorted(TRAIN_BAD_ROWS))
def test_train_names_bad_row(sim_dir, tmp_path, capsys, kind):
    edit = TRAIN_BAD_ROWS[kind]
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



def child_python(*args, **environ):
    """A Python child process that imports this checkout's ctrserve, with
    `environ` added to this process's environment."""
    env = dict(os.environ, **environ)
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


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_on_a_port_out_of_range_is_one_json_error_line(tmp_path, port):
    log = tmp_path / "events.csv"
    proc = child_python("-X", "dev", "-W", "always::ResourceWarning", "-m", "ctrserve.cli",
                        "serve", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                        "--out", str(log), "--port", port)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 1 and out == ""
    [line] = err.splitlines()  # the error and no ResourceWarning
    assert "0-65535" in json.loads(line)["error"]
    assert log.read_text().splitlines() == [",".join(EVENT_LOG_HEADER)]


@pytest.mark.parametrize("method, error", [
    ("normal", "X^T X is rank deficient or near-singular (condition ~ inf)"),
    ("gd", "scaler means must be finite and stds finite and > 0"),
])
def test_a_bid_that_overflows_the_fit_is_one_json_error_line(tmp_path, method, error):
    """A bid near the float limit overflows X^T X and the scaler's std; each
    method refuses it with its own text and no numpy warning on stderr."""
    table = tmp_path / "t.csv"
    table.write_text("placement,size,bid,keyword_value,ctr\n1,1,20,50,0.08\n"
                     "1,1,1e300,47,0.04\n0,2,10,52,0.02\n1,2,40,52,0.06\n")
    proc = child_python("-W", "always", "-m", "ctrserve.cli", "train", "--data", str(table),
                        "--method", method, "--out", str(tmp_path / "model.json"))
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1 and out == ""
    [line] = err.splitlines()
    assert json.loads(line) == {"error": error}
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--model", sample_data.fixture_path("model_normal_eq.json"), "--data", "bad.csv"],
    ["predict", "--model", "bad.json", "above_fold", "300x250", "22", "51"],
    ["map-keywords", "--data", "bad.csv", "--out", "map.json"],
    ["train", "--data", "bad.csv", "--out", "model.json"],
    # a port out of range, so that a catalog that loaded could not serve and hang
    ["serve", "--ads", "bad.json", "--out", "events.csv", "--port", "70000"],
], ids=lambda argv: argv[0])
def test_a_file_that_is_not_utf8_is_one_json_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_bytes(b"y,y_pred\n0.5,\xff\n")
    Path("bad.json").write_bytes(b'{"category": "\xff"}')
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert "can't decode byte 0xff" in error
    [bad] = [arg for arg in argv if arg.startswith("bad.")]
    assert error.startswith(f"{bad} is not UTF-8 text")  # the one file at fault is named
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "bad.json"]


@pytest.mark.parametrize("text", ["[" * 100_000, "[1" + "0" * 5_000 + "]"],
                         ids=["deep nesting", "integer over the digit limit"])
@pytest.mark.parametrize("argv, message", [
    (["predict", "--model", "bad.json", "above_fold", "300x250", "22", "51"],
     "corrupt model stream: "),
    (["evaluate", "--model", "bad.json", "--data",
      sample_data.fixture_path("validation_sample.csv")], "corrupt model stream: "),
    (["predict", "--model", sample_data.fixture_path("model_normal_eq.json"), "--map", "bad.json",
      "above_fold", "300x250", "22", "football"], "invalid keyword-map file: "),
    # a port out of range, so that a catalog that loaded could not serve and hang
    (["serve", "--ads", "bad.json", "--out", "events.csv", "--port", "70000"],
     "catalog is not valid JSON: "),
], ids=["predict --model", "evaluate --model", "predict --map", "serve --ads"])
def test_json_the_parser_refuses_is_one_json_error_line(tmp_path, monkeypatch, capsys,
                                                         argv, message, text):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(text)
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == "" and json.loads(line)["error"].startswith(message)


@pytest.mark.parametrize("fixture, field, message", [
    *(("model_normal_eq.json", field, "invalid model payload")
      for field in ["version", "method", "theta", "schema", "scaler", "config", "cost_trace"]),
    *(("keyword_map_sports.json", field, "invalid keyword-map file")
      for field in ["category", "centroids", "values", "cluster_of"]),
])
def test_a_missing_field_is_one_json_error_line_naming_it(tmp_path, capsys, fixture, field,
                                                          message):
    payload = json.loads(sample_data._read(fixture))
    del payload[field]
    files = {"model_normal_eq.json": sample_data.fixture_path("model_normal_eq.json"),
             "keyword_map_sports.json": sample_data.fixture_path("keyword_map_sports.json"),
             fixture: str(tmp_path / fixture)}
    Path(files[fixture]).write_text(json.dumps(payload))
    assert main(["predict", "--model", files["model_normal_eq.json"],
                 "--map", files["keyword_map_sports.json"],
                 "above_fold", "300x250", "22", "51"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == ""
    assert json.loads(line) == {"error": f"{message}: missing field {field!r}"}


LONG_FIELD = "x" * 140_000  # over the csv module's 131,072-byte field limit


@pytest.mark.parametrize("where", ["header", "row 1", "row 2"])
@pytest.mark.parametrize("command", ["evaluate", "train", "map-keywords"])
def test_a_csv_field_over_the_size_limit_is_one_json_error_line_naming_the_row(
        tmp_path, capsys, command, where):
    data = tmp_path / "data.csv"
    if command == "evaluate":
        header, rows = "y,y_pred", ["0.03,0.04", f"0.05,{LONG_FIELD}"]
        args = ["--model", sample_data.fixture_path("model_normal_eq.json")]
        row_error = "pairs row 2"
    else:
        header = ",".join(EVENT_LOG_HEADER)
        rows = ["1,boots-01,above_fold,300x250,sports,football,PK,,,,,0",
                f"2,boots-01,above_fold,300x250,sports,{LONG_FIELD},PK,,,,,1"]
        args = ["--out", str(tmp_path / "out.json")]
        if command == "train":
            args += ["--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                     "--map", sample_data.fixture_path("keyword_map_sports.json")]
        row_error = "event row 2"
    if where == "header":
        header, rows = f"{header},{LONG_FIELD}", rows[:1]
        row_error = "event row 0" if command == "map-keywords" else f"{data} header"
    elif where == "row 1":
        rows, row_error = rows[1:], row_error.replace("row 2", "row 1")
    data.write_text("\n".join([header, *rows]) + "\n")
    assert main([command, "--data", str(data), *args]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == "" and json.loads(line)["error"] == (
        f"{row_error}: field larger than field limit (131072)")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "events.csv", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
      "--out", "out.json"], "missing required flag --map"),
    (["train", "--data", "events.csv", "--map", sample_data.fixture_path("keyword_map_sports.json"),
      "--out", "out.json"], "missing required flag --ads"),
    (["predict", "--model", sample_data.fixture_path("model_normal_eq.json"),
      "above_fold", "300x250", "22", "football"], "missing required flag --map"),
    (["map-keywords", "--data", "events.csv", "--category", "health", "--out", "out.json"],
     "no transactions for category 'health' in events.csv"),
])
def test_a_flag_the_input_needs_is_one_json_error_line(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    """The refusals that argparse cannot make: a flag needed by what the
    input holds, and a category the log does not hold."""
    monkeypatch.chdir(tmp_path)
    row = "1,boots-01,above_fold,300x250,sports,football,PK,,,,,0"
    Path("events.csv").write_text(f"{','.join(EVENT_LOG_HEADER)}\n{row}\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == "" and json.loads(line) == {"error": message}
    assert sorted(os.listdir()) == ["events.csv"]


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_serve_refuses_a_model_whose_theta_is_not_finite(tmp_path, capsys, literal):
    model = json.loads(sample_data._read("model_normal_eq.json"))
    model["theta"][3] = "THETA"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model).replace('"THETA"', literal))
    with socket.socket() as taken:  # a server that loaded the model could not serve and hang
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        rc = main(["serve", "--ads", sample_data.fixture_path("ad_catalog_sample.json"),
                   "--model", str(path),
                   "--map", sample_data.fixture_path("keyword_map_sports.json"),
                   "--out", str(tmp_path / "events.csv"), "--port", str(taken.getsockname()[1])])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "invalid model payload: theta must be finite"}
    assert not (tmp_path / "events.csv").exists()


def test_cli_import_loads_neither_numpy_nor_the_http_server():
    proc = child_python("-c", "import sys, ctrserve.cli; "
                              "print(sorted({'numpy', 'http.server'} & set(sys.modules)))")
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert out.strip() == "[]"


NUMPY_FREE_COMMANDS = """
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

with tempfile.TemporaryDirectory() as tmp:
    assert main(["simulate", "--seed", "1", "--events", "500", "--out", tmp]) == 0
    loaded["simulate"] = "numpy" in sys.modules
    assert main(["map-keywords", "--data", str(Path(tmp) / "events.csv"),
                 "--out", str(Path(tmp) / "map.json")]) == 0
loaded["map-keywords"] = "numpy" in sys.modules

assert main(["predict", "--model", model, "above_fold", "300x250", "22", "51"]) == 0
loaded["predict"] = "numpy" in sys.modules
for data in ("validation_sample.csv", "validation_pairs.csv"):
    assert main(["evaluate", "--model", model, "--data", fixture(data)]) == 0
loaded["evaluate"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_online_half_never_loads_numpy():
    """Nor do simulate and map-keywords: only `train` pays for numpy."""
    proc = child_python("-c", NUMPY_FREE_COMMANDS)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == {
        "import ctrserve.server": False, "serve a ctr /ad and a /reload": False,
        "simulate": False, "map-keywords": False, "predict": False, "evaluate": False}



ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.fixture(scope="module")
def non_ascii_run(tmp_path_factory):
    """A simulated log whose `football` is spelled `fútbol`, so that the
    mined map's first centroid is not ASCII, with its map and model."""
    out = tmp_path_factory.mktemp("non_ascii")
    assert main(["simulate", "--seed", "3", "--events", "2000", "--out", str(out)]) == 0
    events = out / "events.csv"
    events.write_text(events.read_text().replace("football", "fútbol"), encoding="utf-8")
    assert main(["map-keywords", "--data", str(events), "--out", str(out / "map.json")]) == 0
    assert json.loads((out / "map.json").read_text())["centroids"][0] == "fútbol"
    assert main(["train", "--data", str(events), "--ads", str(out / "catalog.json"),
                 "--map", str(out / "map.json"), "--method", "normal",
                 "--out", str(out / "model.json")]) == 0
    return out


@pytest.mark.parametrize("command", ["map-keywords", "train", "predict", "evaluate", "simulate"])
def test_every_command_prints_under_an_ascii_locale(non_ascii_run, tmp_path, command):
    d = non_ascii_run
    argv = {
        "map-keywords": ["--data", d / "events.csv", "--out", tmp_path / "map.json"],
        "train": ["--data", d / "events.csv", "--ads", d / "catalog.json", "--map", d / "map.json",
                  "--method", "normal", "--out", tmp_path / "model.json"],
        "predict": ["--model", d / "model.json", "--map", d / "map.json",
                    "above_fold", "300x250", "10", "fútbol"],
        "evaluate": ["--model", d / "model.json",
                     "--data", sample_data.fixture_path("validation_sample.csv")],
        "simulate": ["--events", "50", "--out", tmp_path / "sim"],
    }[command]
    proc = child_python("-m", "ctrserve.cli", command, *map(str, argv), **ASCII_LOCALE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    if command == "map-keywords":
        assert "centroids: f\\xfatbol," in out
