import csv
import json

import numpy as np
import pytest

from oscresp.cli import main
from oscresp.grids import read_kernel_csv, read_kernel_json
from oscresp.suites import Config, ConfigError, SuiteReport, run_suite


def test_config_defaults_place_omega_on_bin_eight():
    cfg = Config()
    g = cfg.grid()
    assert g.n == 256
    k = cfg.omega0 * g.n * g.dt / (2 * np.pi)
    assert k == pytest.approx(8.0, abs=1e-12)


def test_config_loading_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "params": {"mass": 2.0, "omega0": 1.0, "hbar": 1.0},
        "grid": {"n": 128, "bin_index": 4},
        "dim": 30,
        "seed": 3,
        "tolerances": {"dr-real": 1e-12},
    }))
    cfg = Config.load(path)
    assert cfg.mass == 2.0 and cfg.n == 128 and cfg.seed == 3
    assert cfg.tolerances["dr-real"] == 1e-12

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"n": 128}, "bogus": 1}))
    with pytest.raises(ConfigError):
        Config.load(bad)
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        Config.load(bad)


@pytest.mark.parametrize("data", [
    {"grid": {"n": 7}},
    {"dim": 1},
    {"grid": {"bin_index": 200}},
    {"tolerances": {"dr-real": "abc"}},
    {"params": {"mass": -1}},
    {"grid": {"dt": 0.1}},
    {"seed": 1.5},
    {"seed": -1},
    {"dim": 4.5},
    {"tolerances": {"dr-real": "nan"}},
    {"tolerances": {"dr-real": -1.0}},
])
def test_bad_config_values_exit_with_the_usage_code(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        Config.from_dict(data)
    assert main(["verify", "all", "--config", str(cfg)]) == 2


def test_unusable_runs_exit_with_the_usage_code(tmp_path, capsys):
    # a basis too small for the suites' coherent state, and a negative seed flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2}))
    assert main(["verify", "wick", "--config", str(cfg)]) == 2
    assert main(["verify", "wick", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_suite_kernels_all_rows_pass():
    report = run_suite("kernels", Config(seed=1))
    assert report.passed
    assert all(row.residual <= 1e-10 for row in report.rows)
    assert report.rows and all(row.tag for row in report.rows)


def test_field_suite_passes_at_seed_3():
    # the swap reflection misses its 1e-13 bound here unless the kernels
    # are sampled at lags that the reflection maps to -tau exactly
    assert run_suite("field", Config(seed=3)).passed


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("bogus", Config())


def test_tolerance_override_can_fail_a_row():
    cfg = Config(seed=1, tolerances={"dr-real": -1.0})
    report = run_suite("kernels", cfg)
    assert not report.passed


def test_reports_are_deterministic_for_a_seed():
    report_a = run_suite("all", Config(seed=7))
    report_b = run_suite("all", Config(seed=7))
    assert report_a.rows == report_b.rows

    # byte-identical serialization once the wall time is dropped
    dict_a, dict_b = report_a.to_dict(), report_b.to_dict()
    dict_a.pop("wall_time_s")
    dict_b.pop("wall_time_s")
    assert json.dumps(dict_a, sort_keys=True) == json.dumps(dict_b, sort_keys=True)

    rows_c = run_suite("all", Config(seed=8)).rows
    assert [r.id for r in report_a.rows] == [r.id for r in rows_c]


def test_report_round_trip(tmp_path):
    report = run_suite("field", Config(seed=2))
    path = tmp_path / "report.json"
    report.save(path)
    back = SuiteReport.load(path)
    assert back.suite == report.suite
    assert back.rows == report.rows
    assert back.config == report.config
    assert back.schema_version == report.schema_version


def test_verify_command_exit_codes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["verify", "field", "--out", str(out)]) == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "[PASS]" in text

    # a sabotaged tolerance turns the exit code into a gating failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"field-d-from-dr": 0.0}}))
    assert main(["verify", "field", "--config", str(cfg)]) == 1

    missing = tmp_path / "nope.json"
    assert main(["verify", "field", "--config", str(missing)]) == 2

    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_report_command_reads_back(tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["verify", "charged", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--path", str(out)]) == 0
    assert "suite=charged" in capsys.readouterr().out
    assert main(["report", "--path", str(tmp_path / "absent.json")]) == 2


def test_kernel_export_csv_and_json(tmp_path):
    out_csv = tmp_path / "dr.csv"
    assert main(["kernels", "--n", "64", "--bin", "2", "--kind", "dr",
                 "--out", str(out_csv)]) == 0
    k = read_kernel_csv(out_csv)
    assert k.grid.n == 64
    assert np.max(np.abs(k.values.imag)) < 1e-14

    out_json = tmp_path / "d.json"
    assert main(["kernels", "--n", "64", "--bin", "2", "--kind", "d",
                 "--format", "json", "--out", str(out_json)]) == 0
    k = read_kernel_json(out_json)
    assert abs(k.value_at_tau(0.0) - (-0.5j)) < 1e-14

    assert main(["kernels", "--params", "1,2", "--out", str(out_csv)]) == 2


def test_outdir_env_redirects_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCRESP_OUTDIR", str(tmp_path))
    assert main(["kernels", "--n", "64", "--bin", "2", "--out", "k.csv"]) == 0
    assert (tmp_path / "k.csv").exists()


def test_drive_export(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["drive", "--current", "step:1.0", "--t-on", "0",
                 "--params", "1,1,1", "--n", "256", "--dt", "0.02",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_j", "ode_q", "abs_diff"]
    assert len(rows) == 257
    assert main(["drive", "--current", "ramp:1.0", "--out", str(out)]) == 2
    # an onset after the last sample leaves the causal window empty
    assert main(["drive", "--t-on", "2.55", "--out", str(out)]) == 0


def test_wick_export(tmp_path, capsys):
    assert main(["wick", "--factors", "+t0.0,+t1.3,-t0.7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4
    assert all(set(term) == {"pairs", "kinds", "rest"} for term in payload)
    kinds = sorted(k for term in payload for k in term["kinds"])
    assert kinds == ["F", "cross", "cross"]

    out = tmp_path / "expansion.json"
    assert main(["wick", "--factors", "+t0.0,+t0.5,+t1.0,+t1.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    perfect = [term for term in payload if not term["rest"]]
    assert len(perfect) == 3
    assert main(["wick", "--factors", "t0.0"]) == 2


@pytest.mark.parametrize("argv", [
    ["kernels", "--n", "7"],
    ["kernels", "--dt", "-1"],
    ["drive", "--n", "7"],
    ["drive", "--dt", "0"],
    ["drive", "--dt", "nan"],
    ["drive", "--dt", "3.0"],
    ["drive", "--dt", "10"],
    ["wick", "--factors", ",".join(f"+t{k}.0" for k in range(9))],
    ["drive", "--t-on", "100"],
    ["drive", "--t-on=-100"],
    ["drive", "--current", "step:nan"],
    ["drive", "--current", "sin:inf"],
    ["wick", "--factors", "+tnan"],
])
def test_bad_command_inputs_exit_with_the_usage_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", [
    "[]",
    json.dumps({"suite": "field", "config": {}, "wall_time_s": 0.0, "schema_version": 1,
                "checks": [{"id": "x", "tag": "x", "residual": "abc", "tolerance": 1.0,
                            "gating": True}]}),
])
def test_malformed_reports_exit_with_the_usage_code(tmp_path, capsys, text):
    path = tmp_path / "rep.json"
    path.write_text(text)
    assert main(["report", "--path", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read report")
