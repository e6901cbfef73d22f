#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It imports ``oscresp`` from the
checkout's ``src/`` and pins OpenBLAS to one thread.  One process issues
each op after the previous one returns (a closed loop with one client).

A run measures set-up (import of oscresp plus input generation) in
several fresh processes and in its own, runs one untimed warm-up pass,
then repeats timed passes over the workload's op list until ``--seconds``
have passed.  Output checks run after each pass, outside the timed
region.  With ``--trace 1`` every second pass is traced, and the run
reports the per-layer metrics and the tracing overhead instead of the
end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (ops issued in measured passes), ``failed``
(ops that raised or failed a check that is not known red) and
``metrics``; the metric names and units are those of BENCHMARK.json.
The full record, with the environment block, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 8
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used by the run itself)")
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import oscresp (through the workloads module) and build the inputs.

    Raises KeyError for an unknown workload name.
    """
    start = perf_counter()
    import workloads

    workload = workloads.build(name, seed)
    return workload, perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(workload, tracer=None):
    """Issue every op once; return (wall time, op latencies, results, errors)."""
    ctx, errors, latencies = {}, {}, []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for op in workload.ops:
            t0 = perf_counter()
            try:
                result = op.call(ctx)
            except Exception as exc:     # an op that raises counts as failed
                result, errors[op.name] = None, exc
            latencies.append(perf_counter() - t0)
            ctx[op.name] = result
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, latencies, ctx, errors


def check_pass(workload, ctx, errors, reported):
    """Run the output checks of one pass; return (checks, ops failed)."""
    from workloads import Check

    checks, failed_ops = [], 0
    for op in workload.ops:
        if op.name in errors:
            if op.name not in reported:
                reported.add(op.name)
                traceback.print_exception(errors[op.name], file=sys.stderr)
            checks.append(Check(f"{op.name}/raised", False))
            failed_ops += 1
            continue
        if op.check is None:
            continue
        try:
            op_checks = op.check(ctx[op.name], ctx)
        except Exception:
            if op.name not in reported:
                reported.add(op.name)
                traceback.print_exc(file=sys.stderr)
            op_checks = [Check(f"{op.name}/check-raised", False)]
        checks.extend(op_checks)
        failed_ops += any(not c.ok and not c.known_red for c in op_checks)
    return checks, failed_ops


def measure(workload, seconds: float, tracer=None, probe=None, probes: int = 0) -> dict:
    """Warm-up pass, then timed passes until `seconds` have passed.

    `probe`, when given, is called `probes` times between passes, spread
    over the run; the time it takes is added to the deadline.
    """
    reported = set()
    _, _, ctx, errors = run_pass(workload)
    check_pass(workload, ctx, errors, reported)     # the warm-up sets references
    del ctx, errors

    untraced, traced = [], []       # (wall time, op latencies) per pass
    setups = []
    attempted = failed = checks_total = checks_ok = 0
    failing = {}
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        use_tracer = tracer is not None and index % 2 == 1
        if use_tracer:
            tracer.begin_pass(index)
        wall, lats, ctx, errors = run_pass(workload, tracer if use_tracer else None)
        checks, failed_ops = check_pass(workload, ctx, errors, reported)
        del ctx, errors
        if use_tracer:
            # keep the growing span store out of the collector's scans, so the
            # untraced passes of a traced run cost what they cost without spans
            gc.freeze()
        (traced if use_tracer else untraced).append((wall, lats))
        attempted += len(workload.ops)
        failed += failed_ops
        checks_total += len(checks)
        checks_ok += sum(c.ok for c in checks)
        for c in checks:
            if not c.ok:
                failing[c.id] = "known red" if c.known_red else "failed"
        index += 1
        if probe is not None and len(setups) < probes * (perf_counter() - start) / seconds:
            t0 = perf_counter()
            setups.append(probe())
            deadline += perf_counter() - t0
        if perf_counter() >= deadline and untraced and (tracer is None or traced):
            break
    while probe is not None and len(setups) < probes:
        setups.append(probe())
    return {"untraced": untraced, "traced": traced, "setups": setups,
            "attempted": attempted, "failed": failed, "checks": checks_total,
            "checks_ok": checks_ok, "failing": failing}


def fastest_eighth(values):
    """The fastest eighth of `values`, at least one."""
    return sorted(values)[:max(1, len(values) // 8)]


def end_to_end_metrics(m: dict):
    """Timings from the fastest eighth of each op's samples, and of the set-ups.

    The host's speed swings by up to 1.5x within seconds (other tenants on
    the same cores); a median over all samples moves with the share of slow
    time in a run, the fastest eighth of each op's samples much less.
    pass_s is the sum over the op list of each op's median kept latency.
    """
    per_op = [fastest_eighth(samples) for samples in zip(*(lats for _, lats in m["untraced"]))]
    lat = [t for kept in per_op for t in kept]
    setups = m["setups"]
    samples = {"passes": len(m["untraced"]), "op_samples": len(lat),
               "setups": len(fastest_eighth(setups))}
    return samples, {
        "pass_s": sum(statistics.median(kept) for kept in per_op),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(fastest_eighth(setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_share": m["checks_ok"] / m["checks"],
    }


def per_layer_metrics(m: dict, tracer) -> dict:
    """Per-pass means, so that layer self times add up to the traced pass time."""
    from tracing import LAYERS, layer_metrics

    out = layer_metrics(tracer.spans, len(m["traced"]))
    traced = statistics.fmean(wall for wall, _ in m["traced"])
    untraced = statistics.fmean(wall for wall, _ in m["untraced"])
    out.update({
        "trace.pass_s": traced,
        "trace.untraced_pass_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.layers_s": sum(out[f"{layer}.self_s"] for layer in LAYERS),
        "trace.spans": len(tracer.spans) / len(m["traced"]),
    })
    return out


def write_spans(path: Path, tracer) -> None:
    """Write the spans of the last traced pass, each with its index in the run."""
    from tracing import PASS

    last = tracer.spans[-1][PASS] if tracer.spans else None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["index", "name", "layer", "start", "end", "parent", "pass",
                              "info", "error"],
                   "spans": [[i, *span] for i, span in enumerate(tracer.spans)
                             if span[PASS] == last]}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oscresp" / "__init__.py").is_file():
        print(f"run.py: no oscresp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]

    try:
        workload, own_setup = timed_setup(args.workload, args.seed)
    except KeyError:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    import hostinfo
    from tracing import Tracer

    env = hostinfo.environment(ROOT)
    env["reference_loop_start_s"] = hostinfo.reference_loop()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        m = measure(workload, args.seconds, tracer)
        samples, values = {}, per_layer_metrics(m, tracer)
        wanted = spec["per_layer"]
    else:
        try:
            m = measure(workload, args.seconds, probe=lambda: probe_setup(args),
                        probes=SETUP_PROBES)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        m["setups"].append(own_setup)
        samples, values = end_to_end_metrics(m)
        wanted = spec["end_to_end"]
    env["reference_loop_end_s"] = hostinfo.reference_loop()
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": {"untraced": len(m["untraced"]), "traced": len(m["traced"])},
        "setup_times": m["setups"], "samples_used": samples,
        "op_latencies": {op.name: [lats[i] for _, lats in m["untraced"]]
                         for i, op in enumerate(workload.ops)},
        "checks": {"attempted": m["checks"], "passed": m["checks_ok"],
                   "failing": m["failing"]},
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        write_spans(OUT / f"spans-{args.workload}.json", tracer)

    print(f"workload {args.workload} seed {args.seed}: {len(m['untraced'])} untraced and "
          f"{len(m['traced'])} traced passes, {m['checks_ok']}/{m['checks']} checks passed")
    if samples:
        print(f"  timings from the fastest eighth of each op's samples over "
              f"{samples['passes']} passes ({samples['op_samples']} op samples kept) "
              f"and from {samples['setups']} of the set-ups")
    failing = sorted(m["failing"].items())
    for check_id, verdict in failing[:4]:
        print(f"  failing check {check_id} ({verdict})")
    if len(failing) > 4:
        print(f"  ... {len(failing)} distinct failing checks in all, listed in the record")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
