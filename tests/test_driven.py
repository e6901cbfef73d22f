import numpy as np
import pytest

from oscresp import fock
from oscresp.driven import (DriveError, DriveScenario, OdeAccuracyError, _rk4,
                            causal_window, classical_displacement,
                            ode_oscillator, sin_scenario, step_scenario,
                            verify_driven_factorization)
from oscresp.functionals import coherent_mean
from oscresp.grids import circular_convolve, make_grid
from oscresp.kernels import OscillatorParams, osc_kernels

P = OscillatorParams()


def step_analytic(t, amp=1.0, p=P):
    out = -(amp / (p.mass * p.omega0 ** 2)) * (1.0 - np.cos(p.omega0 * t))
    return np.where(t >= 0, out, 0.0)


def resonant_analytic(t, amp=1.0, p=P):
    w = p.omega0
    out = -amp * (np.sin(w * t) - w * t * np.cos(w * t)) / (2.0 * p.mass * w ** 2)
    return np.where(t >= 0, out, 0.0)


def test_scenario_validation():
    g = make_grid(32, 0.1)
    with pytest.raises(DriveError, match="real"):
        DriveScenario(P, g, lambda t: np.where(t >= 0, 1j, 0.0))
    with pytest.raises(DriveError, match="finite"):
        DriveScenario(P, g, lambda t: np.where(t >= 0, np.inf, 0.0))
    with pytest.raises(DriveError, match="vanish"):
        DriveScenario(P, g, lambda t: 1.0)
    # zero before onset is fine
    DriveScenario(P, g, lambda t: np.where(t >= 0, 1.0, 0.0))
    # the onset must lie on the grid's span [t0, t0 + period)
    step_scenario(P, g, 1.0, t_on=g.t0)
    for t_on in (g.t0 - g.dt, g.t0 + g.period, float("nan")):
        with pytest.raises(DriveError):
            step_scenario(P, g, 1.0, t_on=t_on)


@pytest.mark.parametrize("build", [step_scenario, sin_scenario])
@pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
def test_non_finite_currents_are_refused(build, amplitude):
    # refused before any sample is taken, so inf * sin(0) never warns
    with pytest.raises(DriveError, match="amplitude"):
        build(P, make_grid(32, 0.1), amplitude)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_drive_frequency_is_refused(omega):
    with pytest.raises(DriveError, match="omega"):
        sin_scenario(P, make_grid(32, 0.1), 1.0, omega=omega)


def test_step_scenario_samples_carry_half_at_the_jump():
    g = make_grid(32, 0.1)
    sc = step_scenario(P, g, 2.0)
    assert sc.current.value_at(0.0) == 1.0           # half of the jump
    assert sc.current.value_at(g.dt) == 2.0
    assert sc.current.value_at(-g.dt) == 0.0
    assert sc.current_fn(0.0) == 2.0                 # right-continuous
    assert sc.current_fn(-1e-12) == 0.0


def test_zero_current_radiates_nothing():
    g = make_grid(64, 0.1)
    kers = osc_kernels(P, g, loose=True)
    sc = DriveScenario(P, g, lambda t: 0.0)
    assert np.max(np.abs(classical_displacement(sc, kers.d_r).values)) == 0.0
    assert np.max(np.abs(ode_oscillator(sc).values)) == 0.0


def test_spike_current_reads_back_the_kernel():
    g = make_grid(64, 0.1)
    kers = osc_kernels(P, g, loose=True)
    # a current of 2 on the onset sample alone, which carries half of it
    sc = DriveScenario(P, g, lambda t: np.where(t == 0.0, 2.0, 0.0))
    assert np.count_nonzero(sc.current.values) == 1
    assert sc.current.value_at(0.0) == 1.0
    # impulse response of the rectangle-sum convolution; a one-sample spike
    # is not a piecewise-smooth current, so the end-corrected displacement
    # makes no such promise for it
    q_j = circular_convolve(kers.d_r, sc.current)
    assert np.max(np.abs(q_j.values - g.dt * kers.d_r.values)) < 1e-14


def test_displacement_causality_and_linearity():
    g = make_grid(128, 0.1)
    kers = osc_kernels(P, g, loose=True)
    sc = step_scenario(P, g, 1.0)
    base = classical_displacement(sc, kers.d_r)

    t = g.times()
    # the first probe sits one sample after onset, where the onset slope
    # may only read the samples up to it
    for t_probe in (g.dt, 2.0):
        sc2 = DriveScenario(P, g, lambda t, t_probe=t_probe:
                            sc.current_fn(t) + np.where(t > t_probe + 1e-9, 0.5, 0.0))
        shifted = classical_displacement(sc2, kers.d_r)
        window = causal_window(g) & (t <= t_probe)
        assert np.max(np.abs((shifted.values - base.values)[window])) < 1e-14

    sc3 = sin_scenario(P, g, 1.0)
    sc4 = DriveScenario(P, g, lambda t: 2.0 * sc.current_fn(t) - 0.5 * sc3.current_fn(t))
    lhs = classical_displacement(sc4, kers.d_r).values
    rhs = (2.0 * base.values - 0.5 * classical_displacement(sc3, kers.d_r).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_displacement_approaches_the_analytic_solution_at_second_order():
    # the rectangle-sum convolution is a second-order quadrature: its gap
    # to the continuum solution is dt^2 (1 - cos w0 t)/12 to leading order;
    # classical_displacement subtracts that end term and falls at fourth order
    errors, corrected = {}, {}
    for n, dt in [(512, 0.02), (1024, 0.01), (2048, 0.005)]:
        g = make_grid(n, dt)
        kers = osc_kernels(P, g, loose=True)
        sc = step_scenario(P, g, 1.0)
        t = g.times()
        window = causal_window(g)
        q_j = circular_convolve(kers.d_r, sc.current)
        gap = np.abs(q_j.values.real - step_analytic(t))[window]
        errors[dt] = np.max(gap)
        predicted = dt ** 2 * (1.0 - np.cos(t[window])) / 12.0
        assert np.max(np.abs(gap - predicted)) < 5.0 * dt ** 3
        q_j = classical_displacement(sc, kers.d_r)
        corrected[dt] = np.max(np.abs(q_j.values.real - step_analytic(t))[window])
        assert corrected[dt] < dt ** 4
    assert errors[0.02] / errors[0.005] == pytest.approx(16.0, rel=0.05)
    assert corrected[0.02] / corrected[0.005] == pytest.approx(256.0, rel=0.05)


def test_off_grid_onset_gets_only_the_kink_term():
    # no sample carries an onset between samples: only f'(t-) = j(t)/m is
    # subtracted, on the causal window after the onset
    g = make_grid(256, 0.05)
    kers = osc_kernels(P, g, loose=True)
    t_on = 0.3 * g.dt
    sc = sin_scenario(P, g, 1.0, t_on=t_on)
    plain = circular_convolve(kers.d_r, sc.current).values
    corrected = classical_displacement(sc, kers.d_r).values
    after = causal_window(g, t_on)
    expected = np.where(after, -(g.dt ** 2 / 12.0) * sc.current.values / P.mass, 0.0)
    assert np.max(np.abs(corrected - plain - expected)) < 1e-14


def test_resonant_displacement_falls_at_fourth_order():
    # a drive that starts from zero puts the whole onset term into the
    # current's slope, including the first-order slope one sample after onset
    gaps = {}
    for n, dt in [(512, 0.02), (2048, 0.005)]:
        g = make_grid(n, dt)
        kers = osc_kernels(P, g, loose=True)
        q_j = classical_displacement(sin_scenario(P, g, 1.0), kers.d_r)
        gaps[dt] = np.max(np.abs(q_j.values.real - resonant_analytic(g.times()))[causal_window(g)])
        assert gaps[dt] < dt ** 4
    assert gaps[0.02] / gaps[0.005] == pytest.approx(256.0, rel=0.05)


def stage_loop_rk4(sc, h, steps):
    """The RK4 oracle one step and one stage at a time: the reference for _rk4.

    Stage times are t0 + k h + eps, t0 + k h + h/2 and t0 + k h + h - eps,
    as in the affine form.
    """
    p = sc.params
    w2 = p.omega0 ** 2
    eps = 1e-9 * h

    def accel(t, q):
        return -float(sc.current_fn(np.float64(t))) / p.mass - w2 * q

    q = v = 0.0
    out = np.zeros(steps + 1)
    for k in range(steps):
        t = sc.grid.t0 + k * h
        k1q = v
        k1v = accel(t + eps, q)
        k2q = v + 0.5 * h * k1v
        k2v = accel(t + 0.5 * h, q + 0.5 * h * k1q)
        k3q = v + 0.5 * h * k2v
        k3v = accel(t + 0.5 * h, q + 0.5 * h * k2q)
        k4q = v + h * k3v
        k4v = accel(t + h - eps, q + h * k3q)
        q += h * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0
        v += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        out[k + 1] = q
    return out


@pytest.mark.parametrize("build", [step_scenario, sin_scenario])
@pytest.mark.parametrize("wh", [0.005, 0.2, 1.0, 2.5])
@pytest.mark.parametrize("onset", ["on-sample", "between-samples", "grid-start"])
def test_rk4_recurrence_matches_the_stage_loop(build, wh, onset):
    g = make_grid(256, wh / P.omega0)
    t_on = {"on-sample": 0.0, "between-samples": 0.3 * g.dt, "grid-start": g.t0}[onset]
    sc = build(P, g, 1.0, t_on=t_on)
    ref = stage_loop_rk4(sc, g.dt, g.n - 1)
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(_rk4(sc, g.dt, g.n - 1) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ode_matches_analytic_step_solution():
    g = make_grid(2048, 0.005)
    sc = step_scenario(P, g, 1.0)
    q = ode_oscillator(sc, error_tol=1e-6)
    window = causal_window(g)
    gap = np.max(np.abs(q.values.real - step_analytic(g.times()))[window])
    assert gap < 1e-8


def test_ode_matches_resonant_secular_growth():
    g = make_grid(2048, 0.005)
    sc = sin_scenario(P, g, 1.0)
    q = ode_oscillator(sc, error_tol=1e-6)
    window = causal_window(g)
    gap = np.max(np.abs(q.values.real - resonant_analytic(g.times()))[window])
    assert gap < 1e-6


def test_ode_refuses_too_coarse_steps():
    g = make_grid(64, 0.5)
    sc = step_scenario(P, g, 1.0)
    with pytest.raises(OdeAccuracyError):
        ode_oscillator(sc, error_tol=1e-12)
    # past w0 dt = 2 sqrt(2) the step matrix amplifies, and the scan never runs
    with pytest.raises(OdeAccuracyError, match="unstable"):
        ode_oscillator(step_scenario(P, make_grid(64, 2.9), 1.0))
    # a current that is finite on the samples but NaN between them gives a
    # NaN error estimate, which is refused too
    times = g.times()
    nan_between = DriveScenario(
        P, g, lambda t: np.where(t < 0, 0.0, np.where(np.isin(t, times), 1.0, np.nan)))
    with pytest.raises(OdeAccuracyError):
        ode_oscillator(nan_between)


def reference_grid(n=256, bin_index=8):
    return make_grid(n, 2.0 * np.pi * bin_index / n)


def test_factorization_trivial_current_reduces_to_free_case():
    g = reference_grid()
    kers = osc_kernels(P, g)
    sc = DriveScenario(P, g, lambda t: 0.0)
    residuals = verify_driven_factorization(
        sc, kers.d_r, fock.make_state("coherent", 40, alpha=0.5), coherent_mean(0.5, P))
    assert max(residuals.values()) < 1e-10


@pytest.mark.parametrize("build", [step_scenario, sin_scenario])
@pytest.mark.parametrize("kind,alpha", [("vacuum", 0.0), ("coherent", 0.5)])
def test_factorization_moments(build, kind, alpha):
    g = reference_grid()
    kers = osc_kernels(P, g)
    sc = build(P, g, 1.0)
    state = fock.make_state(kind, 40, alpha=alpha)
    mean = coherent_mean(alpha, P) if kind == "coherent" else None
    residuals = verify_driven_factorization(sc, kers.d_r, state, mean)
    assert set(residuals) == {
        "first_moment_forward", "first_moment_backward", "second_moment_forward",
        "second_moment_mixed", "second_moment_backward", "second_moment_symmetric",
        "second_moment_normal"}
    assert max(residuals.values()) < 1e-9


def test_first_moment_is_mean_path():
    # <q_j(t)> = initial-state mean + radiated displacement, exactly
    g = reference_grid()
    kers = osc_kernels(P, g)
    sc = step_scenario(P, g, 1.0)
    q_j = classical_displacement(sc, kers.d_r)
    t1 = float(g.times()[np.flatnonzero(causal_window(g))[20]])
    state = fock.make_state("coherent", 40, alpha=0.5)
    measured = fock.ordered_average(
        state, fock.OrderedProductSpec(
            factors=(("q", t1, "plus"),), ordering="double_time", shift=q_j), P)
    expected = coherent_mean(0.5, P)(t1) + q_j.value_at(t1)
    assert abs(measured - expected) < 1e-12
