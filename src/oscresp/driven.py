"""Classical driven-oscillator dynamics and the drive factorization checks.

The displacement radiated by a causal current is a retarded-kernel
convolution.  On the causal window (the half of the periodic grid
following drive onset, where the circular wrap cannot reach) the
dt-weighted periodic sum is the trapezoid rule for the causal integral;
an Euler-Maclaurin end correction raises it to fourth order in dt, and an
independent fixed-step fourth-order integration of the equation of motion
cross-checks the result there.  The driven quantum system
differs from the free one only by this c-number displacement, so ordered
moments of the shifted operators must factorize; those checks compare the
matrix oracle with the functional predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fock
from .functionals import Mean, moment_residual
from .grids import Kernel, SampledSignal, TimeGrid, circular_convolve
from .kernels import OscillatorParams


class DriveError(ValueError):
    """Invalid drive scenario."""


class OdeAccuracyError(RuntimeError):
    """The fixed integration step is too coarse for the requested accuracy."""


@dataclass(frozen=True)
class DriveScenario:
    """A causal current driving the oscillator.

    current holds the grid samples (zero before onset, jump samples at
    half value); current_fn is the continuum evaluation used by the ODE
    integrator, right-continuous at the onset, which lies in [t0, t0 + period).
    """

    params: OscillatorParams
    grid: TimeGrid
    current: SampledSignal
    current_fn: Optional[Callable[[float], float]] = None
    t_on: float = 0.0

    def __post_init__(self):
        start, end = self.grid.t0, self.grid.t0 + self.grid.period
        if not start <= self.t_on < end:
            raise DriveError(f"drive onset {self.t_on} lies outside the grid [{start}, {end})")
        if not np.all(np.isfinite(self.current.values)):
            raise DriveError("drive current must be finite")
        if np.max(np.abs(self.current.values.imag)) > 1e-12:
            raise DriveError("drive current must be real")
        times = self.grid.times()
        before = times < self.t_on - 1e-12 * max(1.0, abs(self.t_on))
        if np.max(np.abs(self.current.values[before]), initial=0.0) > 0.0:
            raise DriveError("drive current must vanish before onset")


def step_scenario(params: OscillatorParams, grid: TimeGrid, amplitude: float = 1.0,
                  t_on: float = 0.0) -> DriveScenario:
    """Constant current switched on at t_on; the onset sample carries half."""
    times = grid.times()
    values = np.where(times > t_on, amplitude, 0.0).astype(complex)
    on_grid = np.isclose(times, t_on, rtol=0.0, atol=1e-9 * grid.dt)
    values[on_grid] = amplitude / 2.0

    def fn(t: float) -> float:
        return amplitude if t >= t_on else 0.0

    return DriveScenario(params=params, grid=grid, current=SampledSignal(grid, values),
                         current_fn=fn, t_on=t_on)


def sin_scenario(params: OscillatorParams, grid: TimeGrid, amplitude: float = 1.0,
                 omega: Optional[float] = None, t_on: float = 0.0) -> DriveScenario:
    """Sinusoidal current from t_on on (continuous at onset)."""
    w = params.omega0 if omega is None else float(omega)
    times = grid.times()
    values = np.where(times >= t_on, amplitude * np.sin(w * (times - t_on)), 0.0)

    def fn(t: float) -> float:
        return amplitude * math.sin(w * (t - t_on)) if t >= t_on else 0.0

    return DriveScenario(params=params, grid=grid,
                         current=SampledSignal(grid, values.astype(complex)),
                         current_fn=fn, t_on=t_on)


def _window_bounds(grid: TimeGrid, t_on: float):
    """Index of the first sample at or after t_on, and [t_on, t_on + period/2) as a slice."""
    first = math.ceil((t_on - grid.t0) / grid.dt - 1e-9)
    n = grid.n
    return first, slice(min(max(first, 0), n), min(max(first + n // 2, 0), n))


def causal_window(grid: TimeGrid, t_on: float = 0.0) -> np.ndarray:
    """Samples in [t_on, t_on + period/2): where the wrap cannot reach."""
    mask = np.zeros(grid.n, dtype=bool)
    mask[_window_bounds(grid, t_on)[1]] = True
    return mask


def classical_displacement(sc: DriveScenario, d_r: Kernel) -> SampledSignal:
    """Displacement radiated by the current: q_j(t) = int D_R(t - s) j(s) ds.

    On the causal window the dt-weighted periodic sum is the trapezoid rule
    for f(s) = D_R(t - s) j(s) on [t_on, t]: the half-value onset sample
    carries the end weight at t_on, and D_R(0) = 0 closes the other end.
    Subtracting the Euler-Maclaurin (Gregory) end term
    (dt^2/12) [f'(t-) - f'(t_on+)] makes the quadrature fourth order in dt
    for a current that is smooth after its onset:

    - at the tau = 0 kink D_R' jumps by -1/m, so f'(t-) = j(t)/m;
    - at the onset f'(t_on+) = -D_R'(t - t_on) j(t_on+) + D_R(t - t_on) j'(t_on+),
      with j(t_on+) read as twice the onset sample, j'(t_on+) as a one-sided
      difference over the samples from the onset to t (second order once
      two samples follow the onset), and D_R' as a second-order difference
      of the d_r samples.

    The correction applies on the causal window only and is zero at and
    before t_on; it is linear in the current's samples and causal: at t it
    reads no sample later than t.  When t_on falls strictly between two
    samples, no sample carries the onset and the onset term is left out;
    only the kink term is applied, so the left end keeps the first-order
    error of the plain sum there.
    """
    values = circular_convolve(d_r, sc.current).values.copy()
    after, correction = _end_correction(sc, d_r)
    values[after] -= correction
    if np.max(np.abs(values.imag)) > 1e-12 * max(1.0, np.max(np.abs(values))):
        raise DriveError("displacement of a real current came out complex")
    return SampledSignal(sc.grid, values)


def _end_correction(sc: DriveScenario, d_r: Kernel):
    """(samples, (dt^2/12) [f'(t-) - f'(t_on+)] there): the causal window after the onset."""
    grid, j = sc.grid, sc.current.values
    dt, half = grid.dt, grid.n // 2
    weight = dt * dt / 12.0
    start, window = _window_bounds(grid, sc.t_on)
    on_grid = window.start == start and abs(grid.t0 + start * dt - sc.t_on) <= 1e-9 * dt
    after = slice(start + 1, window.stop) if on_grid else window
    correction = j[after] * (weight / sc.params.mass)
    count = len(correction)
    if not on_grid or count == 0:
        return after, correction
    # D_R at the lags t - t_on = dt, 2 dt, ... of those samples, and twice
    # dt D_R' there: central differences, one-sided at the last lag (first
    # order on a four-sample grid, which holds only two lags)
    d_r0 = d_r.values[half:]
    d_r_lag = d_r0[1:count + 1]
    d_r_step = np.empty(count, dtype=complex)
    inner = min(count, half - 2)
    d_r_step[:inner] = d_r0[2:inner + 2] - d_r0[:inner]
    if half > 2:
        d_r_step[inner:] = 3.0 * d_r0[-1] - 4.0 * d_r0[-2] + d_r0[-3]
    else:
        d_r_step[inner:] = 2.0 * (d_r0[-1] - d_r0[-2])
    j_on, j_next = 2.0 * j[start], j[start + 1]
    correction += d_r_step * (weight * j_on / (2.0 * dt))
    correction[0] -= d_r_lag[0] * (weight * (j_next - j_on) / dt)
    if count > 1:
        j_slope = (-3.0 * j_on + 4.0 * j_next - j[start + 2]) / (2.0 * dt)
        correction[1:] -= d_r_lag[1:] * (weight * j_slope)
    return after, correction


def _rk4(sc: DriveScenario, h: float, steps: int):
    """Fixed-step integration of q'' + w0^2 q = -j/m from rest at the grid start.

    Stage times are nudged strictly inside each step so that a current
    jump sitting exactly on a step boundary is read from the correct side.
    """
    if sc.current_fn is None:
        raise DriveError("scenario carries no continuum current for the integrator")
    p = sc.params
    w2 = p.omega0 ** 2
    inv_m = 1.0 / p.mass
    eps = 1e-9 * h
    fn = sc.current_fn

    def accel(t: float, q: float) -> float:
        return -fn(t) * inv_m - w2 * q

    t = sc.grid.t0
    q = v = 0.0
    out = np.empty(steps + 1)
    out[0] = 0.0
    for k in range(steps):
        lo, hi = t + eps, t + h - eps
        k1q = v
        k1v = accel(lo, q)
        k2q = v + 0.5 * h * k1v
        k2v = accel(t + 0.5 * h, q + 0.5 * h * k1q)
        k3q = v + 0.5 * h * k2v
        k3v = accel(t + 0.5 * h, q + 0.5 * h * k2q)
        k4q = v + h * k3v
        k4v = accel(hi, q + h * k3q)
        q += h * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0
        v += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        t += h
        out[k + 1] = q
    return out


def ode_oscillator(sc: DriveScenario, error_tol: Optional[float] = 1e-6) -> SampledSignal:
    """Integrate the driven equation of motion on the grid from rest.

    A half-step rerun provides a Richardson error estimate; if it exceeds
    error_tol the step is considered too coarse and the run is refused.
    """
    n, h = sc.grid.n, sc.grid.dt
    coarse = _rk4(sc, h, n - 1)
    if error_tol is not None:
        fine = _rk4(sc, h / 2.0, 2 * (n - 1))[::2]
        estimate = float(np.max(np.abs(coarse - fine))) / 15.0
        if estimate > error_tol:
            raise OdeAccuracyError(
                f"estimated integration error {estimate:.3e} exceeds {error_tol:.3e}")
    return SampledSignal(sc.grid, coarse.astype(complex))


def verify_driven_factorization(sc: DriveScenario, d_r: Kernel, state: fock.FockState,
                                mean: Mean = None, times=None) -> dict:
    """Moment residuals of the drive factorization, by check name.

    Matrix-oracle averages in the initial state of the operators shifted
    by the classical displacement are compared with the functional
    predictions (``functionals.moment_residual``, with the state's mean
    path) for first and second moments under the branch orderings and for
    symmetric and normal second moments: the shift drops out of each.
    """
    q_j = classical_displacement(sc, d_r)
    if times is None:
        window = np.flatnonzero(causal_window(sc.grid, sc.t_on))
        grid_times = sc.grid.times()
        t1 = float(grid_times[window[len(window) // 4]])
        t2 = float(grid_times[window[(3 * len(window)) // 5]])
    else:
        t1, t2 = times
    table = [
        ("first_moment_forward", "double_time", [(t1, "plus")]),
        ("first_moment_backward", "double_time", [(t2, "minus")]),
        ("second_moment_forward", "double_time", [(t1, "plus"), (t2, "plus")]),
        ("second_moment_mixed", "double_time", [(t1, "minus"), (t2, "plus")]),
        ("second_moment_backward", "double_time", [(t1, "minus"), (t2, "minus")]),
        ("second_moment_symmetric", "weyl", [(t1, None), (t2, None)]),
        ("second_moment_normal", "normal", [(t1, None), (t2, None)]),
    ]
    return {
        name: moment_residual(state, fock.OrderedProductSpec(
            tuple(("q", t, branch) for t, branch in factors), ordering, shift=q_j),
            sc.params, mean)
        for name, ordering, factors in table
    }
