"""Command-line harness: run verification suites and export artifacts.

Exit codes: 0 all gating checks pass, 1 a gating check fails, 2 usage or
configuration error.  Relative output paths are resolved against the
OSCRESP_OUTDIR environment variable when it is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import driven, fock, wick
from .grids import GridError, make_grid, write_csv, write_json
from .kernels import CommensurabilityError, OscillatorParams, osc_kernels
from .suites import SUITES, Config, ConfigError, SuiteReport, run_suite

USAGE_ERROR = 2
GATING_ERROR = 1


def _output_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("OSCRESP_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _parse_params(text: str) -> OscillatorParams:
    try:
        m, w0, hbar = (float(x) for x in text.split(","))
        return OscillatorParams(mass=m, omega0=w0, hbar=hbar)
    except ValueError as exc:
        raise ConfigError(f"bad --params {text!r}: expected m,omega0,hbar") from exc


def _load_config(args) -> Config:
    cfg = Config.load(args.config) if args.config else Config()
    if args.seed is not None:
        cfg = Config.from_dict({**cfg.to_dict(), "seed": args.seed})
    return cfg


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = run_suite(args.suite, cfg)
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.id}: residual={row.residual:.3e} "
              f"tol={row.tolerance:.1e}  -- {row.tag}")
    print(f"suite={report.suite} checks={len(report.rows)} "
          f"passed={report.passed} wall={report.wall_time_s:.2f}s")
    if args.out:
        path = _output_path(args.out)
        report.save(path)
        print(f"report written to {path}")
    return 0 if report.passed else GATING_ERROR


def _cmd_kernels(args) -> int:
    params = _parse_params(args.params)
    if args.dt is not None:
        grid = make_grid(args.n, args.dt)
        loose = True
    else:
        grid = make_grid(args.n, 2.0 * np.pi * args.bin / (args.n * params.omega0))
        loose = False
    kers = osc_kernels(params, grid, loose=loose)
    kernel = {"dr": kers.d_r, "d": kers.d, "df": kers.d_f}[args.kind]
    path = _output_path(args.out)
    if args.format == "csv":
        write_csv(kernel, path)
    else:
        write_json(kernel, path)
    print(f"{args.kind} kernel ({grid.n} samples) written to {path}")
    return 0


def _parse_current(text: str):
    try:
        name, amp = text.split(":")
        amp = float(amp)
    except ValueError as exc:
        raise ConfigError(f"bad --current {text!r}: expected step:AMP or sin:AMP") from exc
    if name not in ("step", "sin"):
        raise ConfigError(f"unknown current kind {name!r}")
    return name, amp


def _cmd_drive(args) -> int:
    params = _parse_params(args.params)
    grid = make_grid(args.n, args.dt)
    name, amp = _parse_current(args.current)
    build = driven.step_scenario if name == "step" else driven.sin_scenario
    sc = build(params, grid, amp, t_on=args.t_on)
    kers = osc_kernels(params, grid, loose=True)
    q_conv = driven.classical_displacement(sc, kers.d_r)
    q_ode = driven.ode_oscillator(sc)
    path = _output_path(args.out)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "q_j", "ode_q", "abs_diff"])
            for t, a, b in zip(grid.times(), q_conv.values.real, q_ode.values.real):
                writer.writerow([f"{t:.17g}", f"{a:.17g}", f"{b:.17g}",
                                 f"{abs(a - b):.17g}"])
    except OSError as exc:
        raise ConfigError(f"cannot write trajectory to {path}: {exc}") from exc
    window = driven.causal_window(grid, args.t_on)
    gap = float(np.max(np.abs(q_conv.values.real - q_ode.values.real)[window], initial=0.0))
    print(f"trajectory written to {path}; max |conv - ode| on the causal window: {gap:.3e}")
    return 0


def _parse_factors(text: str):
    factors = []
    for token in text.split(","):
        token = token.strip()
        if len(token) < 3 or token[0] not in "+-" or token[1] != "t":
            raise ConfigError(
                f"bad factor {token!r}: expected e.g. +t0.0 or -t1.3")
        branch = "plus" if token[0] == "+" else "minus"
        try:
            t = float(token[2:])
        except ValueError as exc:
            raise ConfigError(f"bad factor time in {token!r}") from exc
        if not math.isfinite(t):
            raise ConfigError(f"factor time in {token!r} must be finite")
        factors.append((branch, t))
    return factors


def _cmd_wick(args) -> int:
    factors = _parse_factors(args.factors)
    terms = wick.hori_expand(factors)
    payload = [
        {"pairs": [list(pair) for pair in term.pairs],
         "kinds": list(term.kinds),
         "rest": list(term.rest)}
        for term in terms
    ]
    text = json.dumps(payload, indent=1)
    if args.out:
        path = _output_path(args.out)
        try:
            Path(path).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write expansion to {path}: {exc}") from exc
        print(f"expansion ({len(terms)} terms) written to {path}")
    else:
        print(text)
    return 0


def _read_report(raw: str) -> SuiteReport:
    path = _output_path(raw)
    try:
        return SuiteReport.load(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc


def _cmd_report(args) -> int:
    report = _read_report(args.path)
    if args.diff is not None:
        _print_diff(report, _read_report(args.diff), args.path, args.diff)
        return 0
    failing = [r for r in report.rows if r.gating and not r.passed]
    print(f"suite={report.suite} schema={report.schema_version} "
          f"checks={len(report.rows)} failing={len(failing)} passed={report.passed}")
    for row in failing:
        print(f"[FAIL] {row.id}: residual={row.residual:.3e} tol={row.tolerance:.1e}")
    return 0 if report.passed else GATING_ERROR


def _print_diff(old: SuiteReport, new: SuiteReport, old_name: str, new_name: str) -> None:
    """Print each row id whose residual, tolerance or gating differs, and each unpaired id.

    Values are compared and printed by repr, so a float differs when one bit
    does and two NaN residuals are equal.
    """
    old_rows = {row.id: row for row in old.rows}
    new_rows = {row.id: row for row in new.rows}
    changed = 0
    for row_id, row in old_rows.items():
        if row_id not in new_rows:
            print(f"[ONLY] {row_id}: only in {old_name}")
            continue
        pairs = [(name, repr(getattr(row, name)), repr(getattr(new_rows[row_id], name)))
                 for name in ("residual", "tolerance", "gating")]
        fields = [f"{name}={a} -> {b}" for name, a, b in pairs if a != b]
        if fields:
            changed += 1
            print(f"[DIFF] {row_id}: {' '.join(fields)}")
    added = [row_id for row_id in new_rows if row_id not in old_rows]
    for row_id in added:
        print(f"[ONLY] {row_id}: only in {new_name}")
    print(f"rows={len(old_rows)}/{len(new_rows)} differing={changed} "
          f"only_in_path={len(old_rows.keys() - new_rows.keys())} only_in_diff={len(added)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscresp",
        description="verification suites and exports for the oscillator response algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument("--config", help="JSON run configuration")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", help="write the suite report JSON here")
    p_verify.set_defaults(func=_cmd_verify)

    p_kernels = sub.add_parser("kernels", help="export oscillator kernel samples")
    p_kernels.add_argument("--params", default="1,1,1", help="m,omega0,hbar")
    p_kernels.add_argument("--n", type=int, default=256)
    p_kernels.add_argument("--dt", type=float, default=None,
                           help="explicit step (off-bin frequencies allowed)")
    p_kernels.add_argument("--bin", type=int, default=8,
                           help="DFT bin for omega0 when --dt is not given")
    p_kernels.add_argument("--kind", choices=("dr", "d", "df"), default="dr")
    p_kernels.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kernels.add_argument("--out", required=True)
    p_kernels.set_defaults(func=_cmd_kernels)

    p_drive = sub.add_parser("drive", help="export a driven trajectory")
    p_drive.add_argument("--current", default="step:1.0", help="step:AMP or sin:AMP")
    p_drive.add_argument("--t-on", type=float, default=0.0, dest="t_on")
    p_drive.add_argument("--params", default="1,1,1")
    p_drive.add_argument("--n", type=int, default=256)
    p_drive.add_argument("--dt", type=float, default=0.02)
    p_drive.add_argument("--out", required=True)
    p_drive.set_defaults(func=_cmd_drive)

    p_wick = sub.add_parser("wick", help="print a contraction expansion as JSON")
    p_wick.add_argument("--factors", required=True,
                        help="comma list of branch-labelled times, e.g. +t0.0,+t1.3,-t0.7")
    p_wick.add_argument("--out")
    p_wick.set_defaults(func=_cmd_wick)

    p_report = sub.add_parser("report", help="re-read a suite report and summarise it")
    p_report.add_argument("--path", required=True)
    p_report.add_argument("--diff", help="a second report: list the rows that differ from it")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CommensurabilityError, GridError, driven.DriveError,
            driven.OdeAccuracyError, fock.FockError, wick.WickError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
