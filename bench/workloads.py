"""The benchmark's workloads: op lists built from a seed, and their output checks.

Each workload is a fixed list of ops.  An op calls into the public API of
``oscresp`` through module attributes (``fock.ordered_average``, never a
name imported from a module), so that the traced run can rebind those
attributes and see every call.  Ops of one pass share a ``ctx`` dict that
maps op names to results; a later op may read an earlier op's result.

Checks run after a pass, outside the timed region.  Each check is one
verdict.  Checks on the criterion-5 comparison (displacement against the
integrated equation of motion at 1e-6) are known red at the seed commit:
they are counted as failed checks, but do not make the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oscresp import driven, fock, functionals, grids, kernels, suites
from oscresp.kernels import OscillatorParams

REFERENCE_PATH = Path(__file__).resolve().parent / "fock_reference.json"

# Checks that fail at the seed commit for a documented reason.  They count
# as failed checks in check_pass_share but do not make a run incorrect.
KNOWN_RED = (
    # criterion 5: the dt-weighted convolution is second order, so at
    # dt = 0.005 it misses the 1e-6 bound (residual 4.17e-6)
    "displacement-vs-ode",
    # the field suite's absolute 1e-13 bound on the swap reflection is below
    # its rounding error for 171 of config seeds 0..19999 (residuals up to 1.9e-13)
    "field-swap-reflection",
)


def is_known_red(check_id: str) -> bool:
    return any(key in check_id for key in KNOWN_RED)


@dataclass(frozen=True)
class Check:
    id: str
    ok: bool
    known_red: bool = False


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable            # ctx -> result
    check: Optional[Callable] = None   # (result, ctx) -> list of Check


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list


def within(check_id: str, residual: float, tolerance: float) -> Check:
    """Check residual <= tolerance; a NaN residual fails."""
    return Check(check_id, bool(residual <= tolerance), known_red=is_known_red(check_id))


def max_abs(values) -> float:
    return float(np.max(np.abs(values)))


# -- verify_all ----------------------------------------------------------------

# The wick suite draws its factor counts from the config seed, so its cost
# varies by about 20% from one seed to the next; a pass over 32 config
# seeds averages most of that out.
CONFIG_SEEDS_PER_PASS = 32


def verify_all(seed: int) -> Workload:
    """`oscresp verify all` at 32 config seeds derived from `seed`.

    One op per suite and config seed.  Check: every row is bit-identical
    to the same row of the first pass (the warm-up pass), and gating rows
    pass.
    """
    first_rows = {}

    def suite_op(name, cfg):
        key = f"suite/{name}/seed{cfg.seed}"

        def call(ctx):
            return suites.run_suite(name, cfg)

        def check(report, ctx):
            ref = first_rows.setdefault(key, report.rows)
            out = []
            for row, ref_row in zip(report.rows, ref):
                identical = row == ref_row
                out.append(Check(f"{key}/{row.id}", identical and (row.passed or not row.gating),
                                 known_red=identical and is_known_red(row.id)))
            if len(report.rows) != len(ref):
                out.append(Check(f"{key}/row-count", False))
            return out

        return Op(key, call, check)

    first = CONFIG_SEEDS_PER_PASS * seed
    configs = [suites.Config(seed=s) for s in range(first, first + CONFIG_SEEDS_PER_PASS)]
    return Workload("verify_all", [suite_op(name, cfg) for cfg in configs
                                   for name in suites.SUITES])


# -- fock_oracle -----------------------------------------------------------------

FOCK_DIMS = (20, 40, 80)
FOCK_STATES = (("vacuum", 0.0), ("coherent", 0.8))
FOCK_FACTOR_COUNTS = range(2, 9)
# The m! permutation average costs 0.8 s at m = 7, dim 40 and 7.3 s at m = 8.
WEYL_MAX_FACTORS = {20: 7, 40: 7, 80: 6}
# Factor lists longer than this have no functional prediction
# (gaussian_moments is capped there); they are fixed, not drawn from the
# seed, and compared with values stored in fock_reference.json.
PREDICTED_MAX_FACTORS = 6
REFERENCE_FACTOR_SEED = 804
FOCK_TOLERANCE = 1e-10     # relative to max(1, |expected|)


def _factor_list(rng, ordering: str, m: int) -> tuple:
    times = rng.uniform(-2.0, 2.0, size=m)
    if ordering == "double_time":
        branches = ["plus" if b else "minus" for b in rng.random(m) < 0.5]
    else:
        branches = [None] * m
    return tuple(("q", float(t), b) for t, b in zip(times, branches))


def predicted_average(ordering: str, factors, p: OscillatorParams, mean) -> complex:
    """The Gaussian-functional value of a product of q Factors in a vacuum or coherent state.

    double_time, weyl and normal use the predictions of ``functionals``.
    The plain product pairs (i < j) into <q(t_i) q(t_j)>_vac = i hbar D(t_i - t_j);
    the antinormal one pairs into twice the symmetric contraction,
    i hbar [D(tau) + D(-tau)].  Both are summed by ``gaussian_moments``.
    """
    times = [f.time for f in factors]
    if ordering == "double_time":
        return functionals.predicted_double_time_moment(
            [(f.branch, f.time) for f in factors], p, mean)
    if ordering == "weyl":
        return functionals.predicted_weyl_moment(times, p, mean)
    if ordering == "normal":
        return functionals.predicted_normal_moment(times, mean)
    m = len(times)
    quad = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            tau = times[i] - times[j]
            value = kernels.osc_d_value(tau, p)
            if ordering == "antinormal":
                value += kernels.osc_d_value(-tau, p)
            quad[i, j] = quad[j, i] = 1j * p.hbar * value
    lin = np.array([mean(t) if mean is not None else 0.0 for t in times], dtype=complex)
    return functionals.gaussian_moments(quad, lin)


def load_fock_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        values = json.load(fh)["values"]
    return {name: complex(re, im) for name, (re, im) in values.items()}


def fock_oracle(seed: int) -> Workload:
    """fock.ordered_average over orderings x m x dim x {vacuum, coherent}.

    Every op gets its own state object, so no (state, ordering) pair is
    seen twice in a pass.
    """
    p = OscillatorParams()
    rng = np.random.default_rng(seed)
    fixed_rng = np.random.default_rng(REFERENCE_FACTOR_SEED)
    expected = {}
    stored = {}

    def average_op(name, state, spec, mean):
        def call(ctx):
            return fock.ordered_average(state, spec, p)

        def check(value, ctx):
            if name not in expected:
                if len(spec.factors) <= PREDICTED_MAX_FACTORS:
                    expected[name] = predicted_average(spec.ordering, spec.factors, p, mean)
                else:
                    if not stored:
                        stored.update(load_fock_reference())
                    expected[name] = stored[name]
            target = expected[name]
            return [within(name, abs(value - target), FOCK_TOLERANCE * max(1.0, abs(target)))]

        return Op(name, call, check)

    ops = []
    for dim in FOCK_DIMS:
        for kind, alpha in FOCK_STATES:
            mean = functionals.coherent_mean(alpha, p) if kind == "coherent" else None
            for ordering in fock.ORDERINGS:
                for m in FOCK_FACTOR_COUNTS:
                    if ordering == "weyl" and m > WEYL_MAX_FACTORS[dim]:
                        continue
                    source = rng if m <= PREDICTED_MAX_FACTORS else fixed_rng
                    spec = fock.OrderedProductSpec(
                        factors=_factor_list(source, ordering, m), ordering=ordering)
                    state = fock.make_state(kind, dim, alpha=alpha)
                    ops.append(average_op(f"{ordering}/m{m}/dim{dim}/{kind}", state, spec, mean))
    return Workload("fock_oracle", ops)


# -- spectral_fields -------------------------------------------------------------

SPECTRAL_SIZES = (256, 2048, 16384)
CONV_PROBES = 8


def _grid(n: int):
    """Grid with omega0 = 1 on bin 8, the suites' default placement."""
    return grids.make_grid(n, 2.0 * np.pi * 8 / n)


def _complex_normal(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _size_ops(n: int, p: OscillatorParams, rng) -> list:
    """Split, convolution, oscillator kernels and the vacuum functional at size n."""
    grid = _grid(n)
    tag = f"n{n}"
    signal = grids.SampledSignal(grid, _complex_normal(rng, n))
    kernel = grids.Kernel(grid, _complex_normal(rng, n))
    probes = functionals.ProbeSet(
        grids.without_zero_nyquist(grids.SampledSignal(grid, _complex_normal(rng, n, 0.15))),
        grids.without_zero_nyquist(grids.SampledSignal(grid, _complex_normal(rng, n, 0.15))),
        hbar=p.hbar)
    conv_at = rng.integers(0, n, size=CONV_PROBES)
    kers_key = f"osc_kernels/{tag}"
    quad_key = f"phi_vac_quadratic/{tag}"

    def check_split(parts, ctx):
        plus, minus = parts
        return [within(f"split-additivity/{tag}",
                       max_abs(plus.values + minus.values - signal.values), 1e-14)]

    def check_conv(out, ctx):
        # direct dt-weighted sum at a few output samples
        kz = np.roll(kernel.values, -(n // 2))
        lags = np.arange(n)
        direct = np.array([grid.dt * np.sum(kz[(i - lags) % n] * signal.values)
                           for i in conv_at])
        return [within(f"conv-direct-sum/{tag}",
                       max_abs(direct - out.values[conv_at]) / max_abs(direct), 1e-12)]

    def check_emission(resp, ctx):
        quad = ctx[quad_key]
        return [within(f"vacuum-emission-form/{tag}", abs(quad - resp) / abs(quad), 1e-10)]

    return [
        Op(f"frequency_split/{tag}", lambda ctx: grids.frequency_split(signal), check_split),
        Op(f"circular_convolve/{tag}", lambda ctx: grids.circular_convolve(kernel, signal),
           check_conv),
        Op(kers_key, lambda ctx: kernels.osc_kernels(p, grid),
           lambda kers, ctx: [within(f"dr-real/{tag}", max_abs(kers.d_r.values.imag), 1e-14)]),
        Op(f"contraction_from_retarded/{tag}",
           lambda ctx: kernels.contraction_from_retarded(ctx[kers_key].d_r),
           lambda d, ctx: [within(f"d-from-dr/{tag}",
                                  max_abs(d.values - ctx[kers_key].d.values), 1e-10)]),
        Op(f"feynman_from_retarded/{tag}",
           lambda ctx: kernels.feynman_from_retarded(ctx[kers_key].d_r),
           lambda d_f, ctx: [within(f"df-from-dr/{tag}",
                                    max_abs(d_f.values - ctx[kers_key].d_f.values), 1e-10)]),
        Op(quad_key, lambda ctx: functionals.phi_vac_quadratic(probes, ctx[kers_key])),
        Op(f"phi_vac_response/{tag}",
           lambda ctx: functionals.phi_vac_response(probes, ctx[kers_key].d_r), check_emission),
    ]


def _neutral_ops(tag: str, n: int, bins, labels: int, points: int, rng) -> list:
    """Mode-sum field kernels and their reconstruction residuals."""
    grid = _grid(n)
    modes = kernels.ModeSet(
        frequencies=np.asarray(bins) * 2.0 * np.pi / grid.period,
        amplitudes=_complex_normal(rng, len(bins) * labels * points).reshape(
            len(bins), labels, points))
    key = f"neutral_field_kernels/{tag}"

    def check(res, ctx):
        return [within(f"field-d-from-dr/{tag}", res["d"], 1e-10),
                within(f"field-df-from-dr/{tag}", res["d_f"], 1e-10)]

    return [
        Op(key, lambda ctx: kernels.neutral_field_kernels(modes, grid)),
        Op(f"neutral_identity_residuals/{tag}",
           lambda ctx: kernels.neutral_identity_residuals(ctx[key]), check),
    ]


# tolerances of the charged suite rows
CHARGED_TOLERANCES = {"d_r_two_defs": 1e-12, "d_a": 1e-10, "d_b": 1e-10,
                      "d_f": 1e-10, "d_f_dag": 1e-10}


def _charged_ops(n: int) -> list:
    grid = _grid(n)
    scale = 2.0 * np.pi / grid.period
    modes = kernels.ChargedModeSet(
        omegas_a=np.array([5, 9, 14]) * scale, weights_a=np.array([0.7, 1.1, 0.4]),
        omegas_b=np.array([6, 11]) * scale, weights_b=np.array([0.9, 0.6]))
    key = f"charged_field_kernels/n{n}"

    def check(res, ctx):
        return [within(f"charged-{name}/n{n}", res[name], tol)
                for name, tol in CHARGED_TOLERANCES.items()]

    return [
        Op(key, lambda ctx: kernels.charged_field_kernels(modes, grid)),
        Op(f"charged_identity_residuals/n{n}",
           lambda ctx: kernels.charged_identity_residuals(ctx[key]), check),
    ]


def _drive_ops(name: str, scenario, d_r) -> list:
    """Criterion 5: convolved displacement against RK4 on the causal window."""
    key = f"classical_displacement/{name}"
    window = driven.causal_window(scenario.grid, scenario.t_on)

    def check(q_ode, ctx):
        q_conv = ctx[key]
        return [within(f"displacement-vs-ode-{name}",
                       max_abs((q_conv.values.real - q_ode.values.real)[window]), 1e-6)]

    return [
        Op(key, lambda ctx: driven.classical_displacement(scenario, d_r)),
        Op(f"ode_oscillator/{name}",
           lambda ctx: driven.ode_oscillator(scenario, error_tol=1e-6), check),
    ]


def spectral_fields(seed: int) -> Workload:
    """Grids, kernels, field families and the drive oracle; fock never runs."""
    p = OscillatorParams()
    rng = np.random.default_rng(seed)
    ops = []
    for n in SPECTRAL_SIZES:
        ops += _size_ops(n, p, rng)
    # the field suite's demo family, and one whose three 21 MB arrays
    # (plus temporaries) exceed the last-level cache
    ops += _neutral_ops("demo", 256, (4, 7, 12), 2, 2, rng)
    ops += _neutral_ops("large", 16384, (4, 7, 12, 17, 23, 31, 40, 52), 3, 3, rng)
    for n in (256, 16384):
        ops += _charged_ops(n)
    fine = grids.make_grid(2048, 0.005)
    d_r = kernels.osc_kernels(p, fine, loose=True).d_r
    for name, build in (("step", driven.step_scenario), ("sin", driven.sin_scenario)):
        ops += _drive_ops(name, build(p, fine, 1.0), d_r)
    return Workload("spectral_fields", ops)


WORKLOADS = {
    "verify_all": verify_all,
    "fock_oracle": fock_oracle,
    "spectral_fields": spectral_fields,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
