import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oscresp
from oscresp.cli import main
from oscresp.grids import Kernel
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


def test_config_takes_numpy_integers_as_ints():
    # one integer rule for every size: a numpy integer is an integer, stored as int
    cfg = Config.from_dict({"grid": {"n": np.int64(128), "bin_index": np.int32(4)},
                            "dim": np.int64(30), "seed": np.uint8(3)})
    assert all(type(getattr(cfg, name)) is int for name in ("n", "bin_index", "dim", "seed"))
    assert Config.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("data", [
    {"grid": {"n": 7}},
    {"dim": 1},
    {"grid": {"bin_index": 200}},
    {"grid": {"bin_index": True}},
    {"grid": {"n": 256.0}},
    {"tolerances": {"dr-real": "abc"}},
    {"params": {"mass": -1}},
    {"grid": {"dt": 0.1}},
    {"seed": 1.5},
    {"seed": -1},
    {"dim": 4.5},
    {"tolerances": {"dr-real": "nan"}},
    {"tolerances": {"dr-real": -1.0}},
    {"params": [1, 2]},
    {"grid": 5},
    {"grid": None},
])
def test_bad_config_values_exit_with_the_usage_code(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        Config.from_dict(data)
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unusable_runs_exit_with_the_usage_code(tmp_path, capsys):
    # a basis too small for the suites' coherent state, and a negative seed flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2}))
    assert main(["verify", "wick", "--config", str(cfg)]) == 2
    assert main(["verify", "wick", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a grid too short for the demo field modes, which sit on bins up to 14
    cfg.write_text(json.dumps({"grid": {"n": 28, "bin_index": 1}}))
    assert main(["verify", "all", "--config", str(cfg)]) == 2
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
    # tolerance overrides are keyed on the id
    assert len({r.id for r in report_a.rows}) == len(report_a.rows)


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


def test_override_of_no_check_fails_a_full_run_with_the_usage_code(tmp_path, capsys):
    # "dr-reall", a typo of dr-real, names no row of any suite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"dr-reall": 0.0, "dr-real": 1e-12}}))
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dr-reall" in err and "'dr-real'" not in err
    with pytest.raises(ConfigError, match="dr-reall"):
        run_suite("all", Config(seed=7, tolerances={"dr-reall": 0.0}))


def test_single_suite_accepts_the_override_ids_of_other_suites(tmp_path, capsys):
    # field-d-from-dr is a field row; the kernels run neither uses nor refuses it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"field-d-from-dr": 0.0, "dr-real": 1e-12}}))
    assert main(["verify", "kernels", "--config", str(cfg)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    report = run_suite("kernels", Config(seed=7, tolerances={"field-d-from-dr": 0.0}))
    assert report.passed
    assert "field-d-from-dr" not in {row.id for row in report.rows}


def test_report_command_reads_back(tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["verify", "charged", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--path", str(out)]) == 0
    assert "suite=charged" in capsys.readouterr().out
    assert main(["report", "--path", str(tmp_path / "absent.json")]) == 2


def test_report_diff_lists_changed_and_unpaired_rows(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    report = run_suite("field", Config(seed=7))
    report.save(old)
    rows = report.rows
    rows[0] = replace(rows[0], residual=rows[0].residual * (1.0 + 2.0 ** -52))   # one bit
    rows[1] = replace(rows[1], tolerance=0.5, gating=False)
    gone = rows.pop(2).id
    rows.append(replace(rows[0], id="new-row", residual=2.0, tolerance=1.0))
    report.save(new)
    capsys.readouterr()
    assert main(["report", "--path", str(old), "--diff", str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    old_rows = {row.id: row for row in SuiteReport.load(old).rows}
    assert lines[0] == (f"[DIFF] {rows[0].id}: residual={old_rows[rows[0].id].residual!r} "
                        f"-> {rows[0].residual!r}")
    assert lines[1] == (f"[DIFF] {rows[1].id}: tolerance={old_rows[rows[1].id].tolerance!r} "
                        f"-> 0.5 gating=True -> False")
    assert lines[2] == f"[ONLY] {gone}: only in {old}"
    assert lines[3] == f"[ONLY] new-row: only in {new}"
    assert lines[4] == (f"rows={len(old_rows)}/{len(rows)} differing=2 "
                        f"only_in_path=1 only_in_diff=1")
    # a report against itself differs nowhere, and a failing row does not set the exit code
    assert main(["report", "--path", str(new), "--diff", str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"rows={len(rows)}/{len(rows)} differing=0 only_in_path=0 only_in_diff=0"]
    absent = str(tmp_path / "absent.json")
    for path, diff in ((str(old), absent), (absent, str(old))):
        assert main(["report", "--path", path, "--diff", diff]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read report")


def test_kernel_export_csv_and_json(tmp_path):
    out_csv = tmp_path / "dr.csv"
    assert main(["kernels", "--n", "64", "--bin", "2", "--kind", "dr",
                 "--out", str(out_csv)]) == 0
    k = Kernel.read_csv(out_csv)
    assert k.grid.n == 64
    assert np.max(np.abs(k.values.imag)) < 1e-14

    out_json = tmp_path / "d.json"
    assert main(["kernels", "--n", "64", "--bin", "2", "--kind", "d",
                 "--format", "json", "--out", str(out_json)]) == 0
    k = Kernel.read_json(out_json)
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
    ["kernels", "--n", "16", "--bin", "8"],
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


@pytest.mark.parametrize("argv, code", [
    (["verify", "field", "--seed", "7"], 0),
    (["verify", "nosuchsuite"], 2),
], ids=["passing-suite", "usage-error"])
def test_python_dash_m_runs_the_cli(tmp_path, argv, code):
    done = run_checkout_python(["-m", "oscresp", *argv], tmp_path)
    assert done.returncode == code, done.stderr


def run_checkout_python(args, cwd):
    """Run python with this checkout's oscresp first on the path."""
    src = str(Path(oscresp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


WORKER_PROBE = """
import os, threading
start = threading.active_count()
import numpy as np
import oscresp
from oscresp import grids, kernels
from oscresp.suites import Config, run_suite
assert run_suite("all", Config(seed=7)).passed
assert threading.active_count() == start, threading.enumerate()
assert grids._pool.cache_info().currsize == 0
ones = np.ones((4, 4, 4, 4, 256))                # 16 blocks of 4096 samples: inline
kernels.reconstruction_residuals(ones, ones, ones)
kernels.reconstruct(ones, "d_f")
assert threading.active_count() == start, threading.enumerate()
assert grids._pool.cache_info().currsize == 0
cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def on_pool(call, *args):
    # call(*args) must ask for the pool, as only a large family does, and
    # leave at least one and at most 9 worker threads
    asked = sum(grids._pool.cache_info()[:2])
    call(*args)
    assert sum(grids._pool.cache_info()[:2]) > asked, call
    extra = threading.active_count() - start
    assert (1 <= extra <= min(cpus, 9)) if cpus > 1 else extra == 0, (extra, cpus)


grid = grids.make_grid(4096, 0.1)
modes = oscresp.ModeSet(np.arange(1, 9) * 2 * np.pi / grid.period, np.ones((8, 3, 3)))
on_pool(oscresp.neutral_field_kernels, modes, grid)      # 9 blocks of 9 rows: large
ones = np.ones((3, 3, 3, 3, 8192))                       # 9 blocks of 9 rows: large
on_pool(kernels.reconstruction_residuals, ones, ones, ones)
on_pool(kernels.reconstruct, ones, "backward")
assert grids._pool.cache_info().currsize == 1
"""


def test_worker_threads_start_only_for_a_large_family(tmp_path):
    # importing and a full verify run stay on the calling thread; the pool
    # is made by the first large family, rebuilt, built or checked, with at
    # most one thread per block
    done = run_checkout_python(["-c", WORKER_PROBE], tmp_path)
    assert done.returncode == 0, done.stderr


OFF_MAIN_PROBE = """
import inspect, sys, threading
import numpy as np
import oscresp.cli
from oscresp import grids, kernels

ran_off_main = []


def traced(name, fn):
    def wrapper(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            ran_off_main.append(name)
        return fn(*args, **kwargs)
    return wrapper


wrappers = {}
for layer in ("grids", "kernels", "fock", "wick", "functionals", "driven", "suites"):
    module = sys.modules["oscresp." + layer]
    wrappers.update({fn: traced(layer + "." + name, fn) for name, fn in vars(module).items()
                     if inspect.isfunction(fn) and fn.__module__ == module.__name__
                     and not name.startswith("_")})
for key, module in list(sys.modules.items()):
    if key == "oscresp" or key.startswith("oscresp."):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])

grid = grids.make_grid(8192, 0.1)                        # no split mask of 8192 bins yet
modes = oscresp.ModeSet(np.arange(1, 9) * 2 * np.pi / grid.period, np.ones((8, 3, 3)))
nk = kernels.neutral_field_kernels(modes, grid)          # 9 blocks of 9 rows: large
for name in kernels.RECONSTRUCTED[1:]:
    kernels.reconstruct(nk.d_r, name)
kernels.reconstruction_residuals(nk.d, nk.d_f, nk.d_r)
kernels.reconstruction_residuals(nk.d, nk.d_f, nk.d_r, backward=grids.swap_reflect(nk.d))
assert grids._pool.cache_info().currsize == 1            # the pool was asked for
assert ran_off_main == [], sorted(set(ran_off_main))
"""


def test_worker_thread_blocks_call_no_public_function(tmp_path):
    # every public function of the seven layers is wrapped where it is bound,
    # as a tracer wraps them; the blocks of a large family, on a cold cache,
    # must call none of them
    done = run_checkout_python(["-c", OFF_MAIN_PROBE], tmp_path)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves_once():
    names = oscresp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(oscresp, name)]
    assert missing == []
