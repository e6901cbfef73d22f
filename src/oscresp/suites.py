"""Named verification suites and their reports.

Each suite yields a fixed list of residual checks at pinned tolerances;
``run_suite`` turns them into a self-describing report: one row per check
with its identity tag, residual, tolerance and pass flag.  Runs are
deterministic for a given seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import driven, fock, functionals, wick
from .grids import (Kernel, SampledSignal, TimeGrid, _require_int, _unstack, adjoint,
                    circular_convolve, frequency_split, half_step, kernel_adjoint, make_grid,
                    reflect_values, without_zero_nyquist)
from .kernels import (ChargedModeSet, ModeSet, OscillatorParams,
                      charged_field_kernels, check_commensurate, commutator_kernel,
                      neutral_field_kernels, osc_kernels, qp_commutator_kernel,
                      reconstruction_residuals)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass
class Config:
    """Run configuration: physics parameters, grid, sizes, seed, overrides."""

    mass: float = 1.0
    omega0: float = 1.0
    hbar: float = 1.0
    n: int = 256
    bin_index: int = 8
    dim: int = 40
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        known = {f for f in cls.__dataclass_fields__}
        flat = {k: v for k, v in data.items() if k not in ("params", "grid")}
        try:
            merged = {**data.get("params", {}), **data.get("grid", {}), **flat}
            unknown = set(merged) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            cfg = cls(**merged)
            cfg.tolerances = {k: float(v) for k, v in dict(cfg.tolerances).items()}
            check_commensurate(cfg.params().omega0, cfg.grid())
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for name, least in (("n", 4), ("bin_index", 1), ("dim", 2), ("seed", 0)):
            setattr(cfg, name, _require_int(getattr(cfg, name), name, ConfigError, least))
        bad = {k: v for k, v in cfg.tolerances.items() if not 0.0 <= v < math.inf}
        if bad:
            raise ConfigError(f"tolerances must be finite and nonnegative, got {bad}")
        return cfg

    @classmethod
    def load(cls, path) -> "Config":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(data)

    def params(self) -> OscillatorParams:
        return OscillatorParams(mass=self.mass, omega0=self.omega0, hbar=self.hbar)

    def grid(self) -> TimeGrid:
        return make_grid(self.n, 2.0 * np.pi * self.bin_index / (self.n * self.omega0))

    def to_dict(self) -> dict:
        return {
            "params": {"mass": self.mass, "omega0": self.omega0, "hbar": self.hbar},
            "grid": {"n": self.n, "bin_index": self.bin_index},
            "dim": self.dim,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
        }


@dataclass(frozen=True)
class CheckRow:
    id: str
    tag: str
    residual: float
    tolerance: float
    gating: bool = True

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class SuiteReport:
    suite: str
    rows: list
    config: dict
    wall_time_s: float
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows if row.gating)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
            "config": self.config,
            "checks": [{**asdict(r), "passed": r.passed} for r in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteReport":
        rows = [
            CheckRow(
                id=row["id"],
                tag=row["tag"],
                residual=float(row["residual"]),
                tolerance=float(row["tolerance"]),
                gating=bool(row["gating"]),
            )
            for row in data["checks"]
        ]
        return cls(
            suite=data["suite"],
            rows=rows,
            config=data["config"],
            wall_time_s=float(data["wall_time_s"]),
            schema_version=int(data["schema_version"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SuiteReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _random_signals(grid: TimeGrid, rng, shape=(), scale=1.0, clean=True) -> SampledSignal:
    """A stack of random complex signals of the given shape, drawn in one ``rng`` call.

    Each signal takes its real samples and then its imaginary ones, in C
    order over the stack, so the stack holds the signals that drawing one
    signal at a time would give.  Shape () is one signal.
    """
    draws = rng.standard_normal((*shape, 2, grid.n))
    sig = SampledSignal(grid, scale * (draws[..., 0, :] + 1j * draws[..., 1, :]))
    return without_zero_nyquist(sig) if clean else sig


# -- spectral ------------------------------------------------------------------

def _direct_convolution(k: Kernel, s: SampledSignal) -> np.ndarray:
    """dt * sum_m k(m dt) s(t - m dt) of each stacked s, summed over samples with no transform.

    Window o of s reversed and repeated holds s[(-1 - o - m) % n] at m, so
    output i is window n - 1 - i against the zero-based kernel samples.
    """
    n = k.grid.n
    zero_based = np.concatenate((k.values[n // 2:], k.values[:n // 2]))
    repeated = np.concatenate((s.values, s.values), axis=-1)[..., ::-1]
    windows = sliding_window_view(repeated, n, axis=-1)
    return k.grid.dt * (windows[..., :n, :] @ zero_based)[..., ::-1]


def suite_spectral(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    s = _random_signals(grid, rng, (5,), clean=False)
    plus, minus = frequency_split(s)
    yield ("split-additivity", "plus and minus parts re-add to the signal",
           float(np.max(np.abs(plus.values + minus.values - s.values))), 1e-14)

    s = _random_signals(grid, rng, clean=True)
    plus, _ = frequency_split(s)
    pp, _ = frequency_split(plus)
    yield ("split-projection", "taking the plus part twice is idempotent",
           float(np.max(np.abs(pp.values - plus.values))), 1e-14)

    s = _random_signals(grid, rng, clean=False)
    plus, minus = frequency_split(s)
    rs = SampledSignal(grid, reflect_values(s.values))
    rplus, rminus = frequency_split(rs)
    res = max(
        float(np.max(np.abs(rplus.values - reflect_values(minus.values)))),
        float(np.max(np.abs(rminus.values - reflect_values(plus.values)))),
    )
    yield ("split-time-inversion", "time inversion swaps the frequency halves", res, 1e-13)

    s = SampledSignal(grid, rng.standard_normal(grid.n).astype(complex))
    plus, minus = frequency_split(s)
    yield ("split-conjugation", "conjugating a real signal swaps the halves",
           float(np.max(np.abs(np.conj(plus.values) - minus.values))), 1e-13)

    s = _random_signals(grid, rng, clean=False)
    plus, minus = frequency_split(s)
    spec = np.fft.fft(s.values)
    edge = 0.5 * (abs(spec[0]) ** 2 + abs(spec[grid.n // 2]) ** 2) / grid.n
    lhs = float(np.sum(np.abs(s.values) ** 2))
    rhs = float(np.sum(np.abs(plus.values) ** 2) + np.sum(np.abs(minus.values) ** 2) + edge)
    yield ("split-parseval", "energy splits across halves plus shared edge bins",
           abs(lhs - rhs) / max(lhs, 1.0), 1e-13)

    delta = np.zeros(grid.n, dtype=complex)
    delta[grid.n // 2] = 1.0 / grid.dt
    k = Kernel(grid, delta)
    s = _random_signals(grid, rng, clean=False)
    out = circular_convolve(k, s)
    yield ("conv-identity-kernel", "the unit spike kernel convolves to the identity",
           float(np.max(np.abs(out.values - s.values))), 1e-12)

    k = Kernel(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    s = _random_signals(grid, rng, clean=False)
    # both sides are the same bin-by-bin product, so one is summed sample by sample
    lhs = _direct_convolution(frequency_split(k)[0], s)
    rhs = circular_convolve(k, frequency_split(s)[0]).values
    scale = max(float(np.max(np.abs(lhs))), 1e-30)
    yield ("conv-split-shift", "frequency halves shift across a convolution",
           float(np.max(np.abs(lhs - rhs))) / scale, 1e-12)

    k = Kernel(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    twice = kernel_adjoint(kernel_adjoint(k))
    yield ("adjoint-involution", "kernel conjugation is an involution",
           float(np.max(np.abs(twice.values - k.values))), 0.0)


# -- kernels -------------------------------------------------------------------

def suite_kernels(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params()
    grid = cfg.grid()
    kers = osc_kernels(p, grid)

    rebuilt = reconstruction_residuals(kers.d.values, kers.d_f.values, kers.d_r.values,
                                       names=("d_r_two_defs", "forward", "d_f"))
    yield ("dr-from-contractions", "retarded kernel from the two contractions",
           rebuilt["d_r_two_defs"], 1e-10)

    lhs = kers.d_r.values - reflect_values(kers.d_r.values)
    rhs = kers.d.values - reflect_values(kers.d.values)
    yield ("dr-antisymmetrized", "antisymmetrized retarded equals antisymmetrized plain",
           float(np.max(np.abs(lhs - rhs))), 1e-10)

    yield ("d-from-dr", "plain contraction from half the retarded spectrum",
           rebuilt["forward"], 1e-10)
    yield ("df-from-dr", "time-ordered contraction from the retarded halves",
           rebuilt["d_f"], 1e-10)

    _, d_minus = frequency_split(kers.d)
    yield ("d-frequency-positive", "plain contraction has no negative frequencies",
           float(np.max(np.abs(d_minus.values))), 1e-12)
    yield ("dr-real", "retarded kernel is real",
           float(np.max(np.abs(kers.d_r.values.imag))), 1e-14)
    dr_p, dr_m = frequency_split(kers.d_r)
    yield ("dr-conjugation-swap", "conjugation swaps the retarded kernel halves",
           float(np.max(np.abs(np.conj(dr_p.values) - dr_m.values))), 1e-13)

    # matrix-oracle agreement for the three vacuum two-point orderings
    vac = fock.make_state("vacuum", 20)
    pairs = (("forward", "double_time", "plus"), ("plain", "plain", None),
             ("backward", "double_time", "minus"))
    specs, names = [], []
    for _ in range(10):
        t1, t2 = rng.uniform(-4.0, 4.0, size=2)
        for name, ordering, branch in pairs:
            specs.append(fock.OrderedProductSpec((("q", t1, branch), ("q", t2, branch)),
                                                 ordering))
            names.append(name)
    res = {name: 0.0 for name, _, _ in pairs}
    for name, residual in zip(names, functionals.moment_residuals(vac, specs, p).tolist()):
        res[name] = max(res[name], residual)
    yield ("two-point-forward", "forward-ordered vacuum pair equals the F kernel",
           res["forward"], 1e-12)
    yield ("two-point-plain", "plain vacuum pair equals the plain kernel", res["plain"],
           1e-12)
    yield ("two-point-backward", "backward-ordered vacuum pair equals the conjugate kernel",
           res["backward"], 1e-12)

    def commutators(state, products):
        """<[X(t1), Y(t2)]> = 2i Im<X(t1) Y(t2)> of each (X, t1, Y, t2), X, Y, rho Hermitian."""
        specs = [fock.OrderedProductSpec(((x, t1, None), (y, t2, None)), "plain")
                 for x, t1, y, t2 in products]
        return [2j * value.imag for value in fock.ordered_averages(state, specs, p).tolist()]

    def time_pairs():
        return [grid.times()[rng.integers(0, grid.n, size=2)] for _ in range(4)]

    # commutators rebuilt from the response kernel, in three states
    dim = cfg.dim
    comm = commutator_kernel(kers.d_r, p.hbar)
    res = 0.0
    for kind, kw in [("vacuum", {}), ("coherent", {"alpha": 1.0}), ("fock", {"n": 2})]:
        state = fock.make_state(kind, dim, **kw)
        times = time_pairs()
        values = commutators(state, [("q", t1, "q", t2) for t1, t2 in times])
        for (t1, t2), value in zip(times, values):
            res = max(res, abs(value - comm.value_at_tau(t1 - t2)))
    yield ("commutator-reconstruction",
           "two-time commutator equals the response-kernel difference in any state",
           res, 1e-10)

    # the vacuum and the top level of the basis, each read in one call with the
    # equal-time pair last
    ends = (fock.make_state("vacuum", dim), fock.make_state("fock", dim, n=dim - 1))
    qp = qp_commutator_kernel(p, grid)
    times = time_pairs()
    res, canonical = 0.0, 0.0
    for state in ends:
        *values, equal = commutators(
            state, [("q", t1, "p", t2) for t1, t2 in times] + [("q", 0.7, "p", 0.7)])
        for (t1, t2), value in zip(times, values):
            res = max(res, abs(value - qp.value_at_tau(t1 - t2)))
        canonical = max(canonical, abs(equal - 1j * p.hbar))
    yield ("qp-commutator", "position-momentum commutator from the response kernel",
           res, 1e-10)
    yield ("canonical-commutator", "equal-time commutator is i*hbar", canonical, 1e-10)


# -- wick ----------------------------------------------------------------------

def suite_wick(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params()

    res = 0.0
    for m in (2, 4, 6, 8):
        perfect = sum(1 for pairs, rest in wick.enumerate_pairings(m) if not rest)
        res = max(res, abs(perfect - math.prod(range(m - 1, 0, -2))))     # (m - 1)!!
    counts = wick.enumerate_pairings(3)
    res = max(res, abs(len(counts) - 4))
    yield ("pairing-counts", "pairing enumeration has the right cardinalities", res, 0.0)

    res = 0.0
    for m, napply in [(4, 2), (6, 3)]:
        counts = wick.pair_operator_counts(m, napply)
        expected = float(math.factorial(napply))
        res = max(res, max(abs(c - expected) for c in counts.values()))
    yield ("pair-operator-counts",
           "n applications of the pairing operator make each n-pair pattern n! times",
           res, 0.0)

    vac = fock.make_state("vacuum", cfg.dim)
    times = [0.3, 0.9, 1.7, 2.2]
    res = wick.verify_wick(vac, [("plus", t) for t in times], p)
    yield ("four-point-forward", "forward four-point product equals the three-pairing sum",
           res, 1e-11)

    states = [fock.make_state("vacuum", cfg.dim),
              fock.make_state("coherent", cfg.dim, alpha=1.0),
              fock.make_state("fock", cfg.dim, n=2)]
    res = 0.0
    for _ in range(20):
        state = states[rng.integers(0, len(states))]
        m = int(rng.integers(2, 5))
        factors = [("plus" if rng.random() < 0.5 else "minus",
                    float(rng.uniform(-2.0, 2.0))) for _ in range(m)]
        res = max(res, wick.verify_wick(state, factors, p))
    yield ("randomized-expansion", "pair expansion holds for random branches and states",
           res, 1e-9)


# -- functional ------------------------------------------------------------------

def suite_functional(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params()
    grid = cfg.grid()
    kers = osc_kernels(p, grid)

    ep, em = _unstack(_random_signals(grid, rng, (5, 2), scale=0.3, clean=False))
    eta, sigma = functionals.response_substitution(ep, em, p.hbar)
    ep2, em2 = functionals.inverse_substitution(eta, sigma, p.hbar)
    res = max(float(np.max(np.abs(ep2.values - ep.values))),
              float(np.max(np.abs(em2.values - em.values))))
    yield ("substitution-roundtrip", "probe substitution inverts exactly", res, 1e-12)

    ps = functionals.ProbeSet(*_unstack(_random_signals(grid, rng, (10, 2), scale=0.15)),
                              hbar=p.hbar)
    quad = functionals.phi_vac_quadratic(ps, kers)
    resp = functionals.phi_vac_response(ps, kers.d_r)
    yield ("vacuum-emission-form", "quadratic vacuum functional equals its emission form",
           float(np.max(np.abs(quad - resp) / np.maximum(np.abs(quad), 1e-300))), 1e-10)
    yield ("probe-edge-content", "probe sets stay clear of the shared edge bins",
           float(np.max(ps.edge_bin_fraction())), 1e-10)

    ep = _random_signals(grid, rng, scale=0.2, clean=False)
    ps = functionals.ProbeSet(ep, ep.conj(), hbar=p.hbar)
    phi = functionals.phi_vac_quadratic(ps, kers)
    yield ("vacuum-reality", "conjugate probe pairs give a real functional",
           abs(phi.imag) / max(abs(phi), 1e-300), 1e-12)

    state = fock.make_state("coherent", cfg.dim, alpha=0.5)
    res = fock.reality_check(state, [(0.4, 0.3)], [(1.1, 0.2)], p)
    yield ("functional-reality",
           "double-ordered exponential pair obeys the conjugation symmetry",
           res, 1e-10)

    eta = _random_signals(grid, rng, scale=0.3)
    yield ("weyl-kernel-rearrangement",
           "symmetric Gaussian factor rewrites through the retarded kernel",
           functionals.weyl_kernel_identity_residual(eta, kers.d, kers.d_r), 1e-10)

    states = {None: (fock.make_state("vacuum", cfg.dim), None)}
    for alpha in (1.0, 0.5):
        states[alpha] = (fock.make_state("coherent", cfg.dim, alpha=alpha),
                         functionals.coherent_mean(alpha, p))

    def weyl_residual(alpha, *time_lists):
        """The largest moment residual of the symmetric products at these times."""
        state, mean = states[alpha]
        specs = [fock.OrderedProductSpec(tuple(("q", t, None) for t in times), "weyl")
                 for times in time_lists]
        return max(functionals.moment_residuals(state, specs, p, mean).tolist())

    res = max(weyl_residual(None, [0.0, 0.0], [0.3, 1.1]), weyl_residual(1.0, [0.3, 1.1]))
    yield ("weyl-two-point", "symmetric two-point average matches the Gaussian factor",
           res, 1e-10)

    times = [0.2, 0.7, 1.3, 1.9]
    yield ("weyl-four-point", "four-point symmetric average matches the Gaussian factor",
           max(weyl_residual(None, times), weyl_residual(0.5, times)), 1e-9)

    # the one row that reads quad_form against a sum with no transform: each
    # form of the stack is dt sum eta (D_R * j), the convolution summed directly
    eta, current = _unstack(_random_signals(grid, rng, (2, 2), scale=0.3, clean=False))
    forms = functionals.quad_form(eta, kers.d_r, current)
    direct = grid.dt * np.sum(eta.values * _direct_convolution(kers.d_r, current), axis=-1)
    yield ("quad-form-direct-sum", "the quadratic form equals its direct periodic sum",
           float(np.max(np.abs(forms - direct) / np.abs(direct))), 1e-12)


# -- driven ----------------------------------------------------------------------

def suite_driven(cfg: Config):
    p = cfg.params()

    # continuum cross-check at the pinned fine step
    fine_grid = make_grid(2048, 0.005)
    fine_d_r = osc_kernels(p, fine_grid, loose=True).d_r
    for name, build in [("step", driven.step_scenario), ("sin", driven.sin_scenario)]:
        sc = build(p, fine_grid, 1.0)
        q_conv = driven.classical_displacement(sc, fine_d_r)
        q_ode = driven.ode_oscillator(sc, error_tol=1e-6)
        window = driven.causal_window(fine_grid, sc.t_on)
        res = float(np.max(np.abs(q_conv.values.real - q_ode.values.real)[window]))
        yield (f"displacement-vs-ode-{name}",
               f"convolved displacement tracks the integrated motion ({name} drive)",
               res, 1e-6)

    grid = cfg.grid()
    kers = osc_kernels(p, grid)

    sc = driven.step_scenario(p, grid, 1.0)
    q_j = driven.classical_displacement(sc, kers.d_r)
    times = grid.times()
    window = driven.causal_window(grid)
    probe_idx = np.flatnonzero(window)[len(np.flatnonzero(window)) // 3]
    t_probe = float(times[probe_idx])
    sc_bumped = driven.DriveScenario(
        p, grid, lambda t, j=sc.current_fn: j(t) + np.where(t > t_probe + 1e-9, 0.8, 0.0))
    q_j2 = driven.classical_displacement(sc_bumped, kers.d_r)
    yield ("displacement-causality",
           "displacement before a current change is untouched by it",
           float(np.max(np.abs((q_j2.values - q_j.values)[window & (times <= t_probe)]))),
           1e-14)

    sc1 = driven.step_scenario(p, grid, 0.7)
    sc2 = driven.sin_scenario(p, grid, 0.4)
    sc_mix = driven.DriveScenario(
        p, grid, lambda t: 2.0 * sc1.current_fn(t) - 3.0 * sc2.current_fn(t))
    lhs = driven.classical_displacement(sc_mix, kers.d_r).values
    rhs = (2.0 * driven.classical_displacement(sc1, kers.d_r).values
           - 3.0 * driven.classical_displacement(sc2, kers.d_r).values)
    yield ("displacement-linearity", "displacement is linear in the current",
           float(np.max(np.abs(lhs - rhs))), 1e-13)

    states = {"vacuum": (fock.make_state("vacuum", cfg.dim), None),
              "coherent": (fock.make_state("coherent", cfg.dim, alpha=0.5),
                           functionals.coherent_mean(0.5, p))}
    for current_name, build in [("step", driven.step_scenario), ("sin", driven.sin_scenario)]:
        sc = build(p, grid, 1.0)
        for kind, (state, mean) in states.items():
            residuals = driven.verify_driven_factorization(sc, kers.d_r, state, mean)
            for check, res in residuals.items():
                yield (f"factorization-{current_name}-{kind}-{check}",
                       f"drive factorization: {check} ({current_name}, {kind})",
                       res, 1e-9)


# -- charged ---------------------------------------------------------------------

def _demo_charged_modes(grid: TimeGrid) -> ChargedModeSet:
    scale = 2.0 * np.pi / grid.period
    return ChargedModeSet(
        omegas_a=np.array([5, 9, 14]) * scale,
        weights_a=np.array([0.7, 1.1, 0.4]),
        omegas_b=np.array([6, 11]) * scale,
        weights_b=np.array([0.9, 0.6]),
    )


def suite_charged(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params()
    grid = cfg.grid()
    ck = charged_field_kernels(_demo_charged_modes(grid), grid)

    ident = reconstruction_residuals(ck.d_a.values, ck.d_f.values, ck.d_r.values,
                                     backward=ck.d_b.values)
    yield ("charged-dr-two-defs", "the two retarded combinations coincide",
           ident["d_r_two_defs"], 1e-12)
    yield ("charged-da-from-dr", "particle kernel from the retarded halves",
           ident["forward"], 1e-10)
    yield ("charged-db-from-dr", "antiparticle kernel from the retarded halves",
           ident["backward"], 1e-10)
    yield ("charged-df-from-dr", "time-ordered kernel from the retarded halves",
           ident["d_f"], 1e-10)

    res = max(
        float(np.max(np.abs(kernel_adjoint(ck.d_a).values + ck.d_a.values))),
        float(np.max(np.abs(kernel_adjoint(ck.d_b).values + ck.d_b.values))),
    )
    yield ("charged-anti-hermitian", "species kernels are anti-Hermitian", res, 1e-14)

    _, da_minus = frequency_split(ck.d_a)
    db_plus, _ = frequency_split(ck.d_b)
    yield ("charged-frequency-signs",
           "particle kernel is frequency-positive, antiparticle negative",
           max(float(np.max(np.abs(da_minus.values))),
               float(np.max(np.abs(db_plus.values)))), 1e-12)

    bar_plus, bar_minus, plus, minus = _unstack(_random_signals(grid, rng, (5, 4), scale=0.3))
    bar = functionals.ProbeSet(bar_plus, bar_minus, hbar=p.hbar)
    plain = functionals.ProbeSet(plus, minus, hbar=p.hbar)
    yield ("charged-substitution", "doubled substitution collapses the four-block form",
           float(np.max(functionals.charged_substitution_residual(bar, plain, ck))), 1e-10)

    single = ChargedModeSet(
        omegas_a=np.array([9 * 2.0 * np.pi / grid.period]), weights_a=np.array([1.0]),
        omegas_b=np.array([], dtype=float), weights_b=np.array([], dtype=float))
    ck1 = charged_field_kernels(single, grid)
    res = max(
        float(np.max(np.abs(ck1.d_b.values))),
        float(np.max(np.abs(ck1.d_r.values - half_step(grid.n) * ck1.d_a.values))),
    )
    yield ("charged-single-species", "with no antiparticle modes the retarded kernel is the stepped particle kernel",
           res, 1e-14)


# -- neutral field -----------------------------------------------------------------

def _demo_mode_set(grid: TimeGrid, rng) -> ModeSet:
    scale = 2.0 * np.pi / grid.period
    freqs = np.array([4, 7, 12]) * scale
    amps = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    return ModeSet(frequencies=freqs, amplitudes=amps)


def suite_field(cfg: Config):
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    p = cfg.params()

    nk = neutral_field_kernels(_demo_mode_set(grid, rng), grid)
    ident = reconstruction_residuals(nk.d, nk.d_f, nk.d_r, names=("forward", "d_f"))
    yield ("field-d-from-dr", "field contraction from the retarded halves",
           ident["forward"], 1e-10)
    yield ("field-df-from-dr", "field time-ordered kernel from the retarded halves",
           ident["d_f"], 1e-10)

    yield ("field-swap-reflection", "label swap with time inversion conjugates and flips sign",
           float(np.max(np.abs(adjoint(nk.d) + nk.d))), 1e-13)

    single = ModeSet(
        frequencies=np.array([p.omega0]),
        amplitudes=np.ones((1, 1, 1), dtype=complex))
    nk1 = neutral_field_kernels(single, grid)
    kers = osc_kernels(p, grid)
    res = float(np.max(np.abs(
        nk1.d[0, 0, 0, 0] / (2.0 * p.mass * p.omega0) - kers.d.values)))
    yield ("field-oscillator-reduction",
           "a single unit mode reduces to the oscillator contraction",
           res, 1e-14)


_SUITE_FUNCS = {
    "spectral": suite_spectral,
    "kernels": suite_kernels,
    "wick": suite_wick,
    "functional": suite_functional,
    "driven": suite_driven,
    "charged": suite_charged,
    "field": suite_field,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, cfg: Optional[Config] = None) -> SuiteReport:
    """Run one named suite (or 'all') and assemble its report.

    The one place where yielded (id, tag, residual, tolerance) checks
    become rows and the config's tolerance overrides apply, by check id.
    Run over all suites, an override whose id no row has is refused with
    ``ConfigError``; one suite alone accepts the ids of the others.
    """
    cfg = cfg or Config()
    if name != "all" and name not in _SUITE_FUNCS:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    start = time.perf_counter()
    rows = [CheckRow(id=check_id, tag=tag, residual=float(residual),
                     tolerance=float(cfg.tolerances.get(check_id, tolerance)))
            for suite in (SUITES if name == "all" else (name,))
            for check_id, tag, residual, tolerance in _SUITE_FUNCS[suite](cfg)]
    wall = time.perf_counter() - start
    unknown = set(cfg.tolerances) - {row.id for row in rows} if name == "all" else set()
    if unknown:
        raise ConfigError(f"tolerance overrides name no check: {sorted(unknown)}")
    return SuiteReport(suite=name, rows=rows, config=cfg.to_dict(), wall_time_s=wall)
