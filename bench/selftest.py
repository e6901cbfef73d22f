#!/usr/bin/env python3
"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

It checks that every workload prints each metric named in BENCHMARK.json
with its unit, in both modes; that a deliberately perturbed output is
caught by each workload's output check; and that the benchmark refuses to
run, without printing a result, where no oscresp sources are present.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = _run("--workload", workload["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = _last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
                [(m["name"], m["unit"]) for m in wanted]
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _checks(workload, ops, perturb=None):
    """Run `ops` once, optionally perturb the results, and return the failed checks."""
    _, _, ctx, errors = run.run_pass(workloads.Workload(workload.name, ops))
    if perturb is not None:
        perturb(ctx)
    checks, _ = run.check_pass(workloads.Workload(workload.name, ops), ctx, errors, set())
    return [c for c in checks if not c.ok]


def test_perturbed_outputs_are_caught():
    # verify_all: one residual off by one unit in the last place
    wl = workloads.build("verify_all", 5)
    ops = wl.ops[:1]
    name = ops[0].name
    assert name.startswith("suite/spectral/") and _checks(wl, ops) == []

    def nudge_row(ctx):
        report = ctx[name]
        row = report.rows[0]
        report.rows[0] = type(row)(row.id, row.tag, np.nextafter(row.residual, 1.0),
                                   row.tolerance, row.gating)

    assert [c.id for c in _checks(wl, ops, nudge_row)] == [f"{name}/split-additivity"]

    # fock_oracle: one average off by 1e-7 of its size, against a prediction and a stored value
    wl = workloads.build("fock_oracle", 5)
    names = ["weyl/m4/dim20/coherent", "plain/m8/dim20/vacuum"]
    ops = [op for op in wl.ops if op.name in names]
    assert _checks(wl, ops) == []
    for name in names:
        def nudge_average(ctx, name=name):
            ctx[name] += 1e-7 * max(1.0, abs(ctx[name]))
        assert [c.id for c in _checks(wl, ops, nudge_average)] == [name]

    # spectral_fields: a reconstructed kernel off by 1e-9
    wl = workloads.build("spectral_fields", 5)
    ops = wl.ops[:7]
    assert _checks(wl, ops) == []

    def nudge_kernel(ctx):
        d = ctx["contraction_from_retarded/n256"]
        ctx["contraction_from_retarded/n256"] = type(d)(d.grid, d.values + 1e-9)

    failed = _checks(wl, ops, nudge_kernel)
    assert [(c.id, c.known_red) for c in failed] == [("d-from-dr/n256", False)]


def test_known_red_checks_are_counted_but_do_not_fail_the_run():
    wl = workloads.build("spectral_fields", 5)
    ops = [op for op in wl.ops if "/step" in op.name]
    failed = _checks(wl, ops)
    assert [(c.id, c.known_red) for c in failed] == [("displacement-vs-ode-step", True)]


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
