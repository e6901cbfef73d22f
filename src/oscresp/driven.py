"""Classical driven-oscillator dynamics and the drive factorization checks.

A drive scenario holds one current, a function of time, and derives its
grid samples from it.  The displacement it radiates is a retarded-kernel
convolution of those samples.  On the causal window (the half of the
periodic grid following drive onset, where the circular wrap cannot
reach) the dt-weighted periodic sum is the trapezoid rule for the causal
integral; an Euler-Maclaurin end correction raises it to fourth order in
dt, and an independent fixed-step fourth-order (RK4) integration of the
equation of motion, which reads the same current on whole arrays of stage
times, cross-checks the result there.  The driven quantum system differs
from the free one only by this c-number displacement, so ordered moments
of the shifted operators must factorize; those checks compare the matrix
oracle with the functional predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fock
from .functionals import Mean, moment_residuals
from .grids import Kernel, SampledSignal, TimeGrid, _snap, circular_convolve
from .kernels import OscillatorParams


class DriveError(ValueError):
    """Invalid drive scenario."""


class OdeAccuracyError(RuntimeError):
    """The fixed integration step is too coarse for the requested accuracy."""


@dataclass(frozen=True)
class DriveScenario:
    """A causal current driving the oscillator, given once as a function of time.

    current_fn maps an ndarray of times to the real current, elementwise (a
    scalar broadcasts, so ``lambda t: 0.0`` is valid); it is zero before the
    onset t_on in [t0, t0 + period) and right-continuous there.  The RK4
    oracle reads it directly; the convolution reads the derived samples
    ``current``: current_fn at each sample, but half of current_fn(t_on) on
    a sample that carries the onset (the trapezoid end weight of a jump).
    """

    params: OscillatorParams
    grid: TimeGrid
    current_fn: Callable[[np.ndarray], np.ndarray]
    t_on: float = 0.0
    current: SampledSignal = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start, end = self.grid.t0, self.grid.t0 + self.grid.period
        if not start <= self.t_on < end:
            raise DriveError(f"drive onset {self.t_on} lies outside the grid [{start}, {end})")
        # one call reads every sample and, last, the onset itself
        times = np.append(self.grid.times(), self.t_on)
        values = np.broadcast_to(self.current_fn(times), times.shape).astype(complex)
        if not np.all(np.isfinite(values)):
            raise DriveError("drive current must be finite")
        first, on_grid = _onset(self.grid, self.t_on)
        if on_grid:
            values[first] = values[-1] / 2.0
        values = values[:-1]
        if np.max(np.abs(values.imag)) > 1e-12:
            raise DriveError("drive current must be real")
        if np.max(np.abs(values[:first]), initial=0.0) > 0.0:
            raise DriveError("drive current must vanish before onset")
        object.__setattr__(self, "current", SampledSignal(self.grid, values))


def _onset(grid: TimeGrid, t_on: float):
    """(first sample at or after t_on, whether t_on lies on it by ``grids._snap``'s rule)."""
    x = (t_on - grid.t0) / grid.dt
    k = _snap(x)
    if k is not None and 0 <= k < grid.n:
        return k, True
    return math.ceil(x), False


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DriveError(f"drive {name} must be finite, got {value}")


def step_scenario(params: OscillatorParams, grid: TimeGrid, amplitude: float = 1.0,
                  t_on: float = 0.0) -> DriveScenario:
    """Constant current switched on at t_on; the onset sample carries half."""
    _require_finite(amplitude=amplitude)
    return DriveScenario(params, grid, lambda t: np.where(t >= t_on, amplitude, 0.0), t_on)


def sin_scenario(params: OscillatorParams, grid: TimeGrid, amplitude: float = 1.0,
                 omega: Optional[float] = None, t_on: float = 0.0) -> DriveScenario:
    """Sinusoidal current from t_on on (continuous at onset)."""
    w = params.omega0 if omega is None else float(omega)
    _require_finite(amplitude=amplitude, omega=w)
    return DriveScenario(params, grid, lambda t: np.where(
        t >= t_on, amplitude * np.sin(w * (t - t_on)), 0.0), t_on)


def causal_window(grid: TimeGrid, t_on: float = 0.0) -> np.ndarray:
    """Samples in [t_on, t_on + period/2): where the wrap cannot reach."""
    k = np.arange(grid.n) - _onset(grid, t_on)[0]
    return (k >= 0) & (k < grid.n // 2)


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
    start, on_grid = _onset(grid, sc.t_on)
    after = slice(start + 1 if on_grid else start, min(start + half, grid.n))
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


def _rk4(sc: DriveScenario, h: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 integration of q'' + w0^2 q = -j/m from rest at the grid start.

    For x = (q, v), x' = A x + g(t) with A = [[0, 1], [-w0^2, 0]] and
    g = (0, -j/m), one RK4 step is the affine map
    x_{k+1} = S x_k + B1 g(lo) + B2 g(mid) + B4 g(hi), with H = hA and

        S  = I + H + H^2/2 + H^3/6 + H^4/24
        B1 = h/6 (I + H + H^2/2 + H^3/4)
        B2 = h/6 (4I + 2H + H^2/2)          (the two midpoint stages)
        B4 = h/6 I.

    The stage times t0 + k h + eps, t0 + k h + h/2 and t0 + k h + h - eps
    sit strictly inside step k, so that a current jump on a step boundary
    is read from the correct side.  The current is evaluated once on all
    of them, and x_{k+1} = S x_k + u_k is solved by a doubling
    (Hillis-Steele) scan: about log2(steps) products with the powers
    S^(2^r).  S has eigenvalues R(+-i w0 h), R(z) = 1 + z + ... + z^4/24 with
    |R(iy)|^2 = 1 - y^6/72 + y^8/576: its powers grow, and the step is
    refused, once w0 h exceeds 2 sqrt(2).
    """
    p = sc.params
    if p.omega0 * h > 2.0 * math.sqrt(2.0):
        raise OdeAccuracyError(
            f"RK4 step {h} is unstable: omega0*dt = {p.omega0 * h:.3g} exceeds 2*sqrt(2)")
    eye = np.eye(2)
    hA = np.array([[0.0, h], [-h * p.omega0 ** 2, 0.0]])
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    S = eye + hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
    B1 = (h / 6.0) * (eye + hA + hA2 / 2.0 + hA3 / 4.0)
    B2 = (h / 6.0) * (4.0 * eye + 2.0 * hA + hA2 / 2.0)
    B4 = (h / 6.0) * eye
    # g has only a velocity component, so each B reads its second column
    weights = np.stack([B1[:, 1], B2[:, 1], B4[:, 1]], axis=1) / -p.mass
    eps = 1e-9 * h
    ts = (sc.grid.t0 + h * np.arange(steps)) + np.array([[eps], [h / 2.0], [h - eps]])
    x = weights @ np.broadcast_to(sc.current_fn(ts), ts.shape)
    P, shift = S, 1
    while shift < steps:
        x[:, shift:] += P @ x[:, :-shift]
        P = P @ P
        shift *= 2
    return np.concatenate(([0.0], x[0]))


def ode_oscillator(sc: DriveScenario, error_tol: float = 1e-6) -> SampledSignal:
    """Integrate the driven equation of motion on the grid from rest.

    A half-step rerun provides a Richardson error estimate; a step past
    RK4's stability limit, or one whose estimate is not within error_tol,
    is too coarse and the run is refused.
    """
    n, h = sc.grid.n, sc.grid.dt
    coarse = _rk4(sc, h, n - 1)
    fine = _rk4(sc, h / 2.0, 2 * (n - 1))[::2]
    estimate = float(np.max(np.abs(coarse - fine))) / 15.0
    if not estimate <= error_tol:
        raise OdeAccuracyError(
            f"estimated integration error {estimate:.3e} exceeds {error_tol:.3e}")
    return SampledSignal(sc.grid, coarse.astype(complex))


def verify_driven_factorization(sc: DriveScenario, d_r: Kernel, state: fock.FockState,
                                mean: Mean = None) -> dict:
    """Moment residuals of the drive factorization, by check name.

    Matrix-oracle averages in the initial state of the operators shifted
    by the classical displacement are compared with the functional
    predictions (``functionals.moment_residuals``, one oracle call, with
    the state's mean path) for first and second moments under the branch
    orderings and for symmetric and normal second moments: the shift drops
    out of each.
    """
    q_j = classical_displacement(sc, d_r)
    window = np.flatnonzero(causal_window(sc.grid, sc.t_on))
    grid_times = sc.grid.times()
    t1 = float(grid_times[window[len(window) // 4]])
    t2 = float(grid_times[window[(3 * len(window)) // 5]])
    table = [
        ("first_moment_forward", "double_time", [(t1, "plus")]),
        ("first_moment_backward", "double_time", [(t2, "minus")]),
        ("second_moment_forward", "double_time", [(t1, "plus"), (t2, "plus")]),
        ("second_moment_mixed", "double_time", [(t1, "minus"), (t2, "plus")]),
        ("second_moment_backward", "double_time", [(t1, "minus"), (t2, "minus")]),
        ("second_moment_symmetric", "weyl", [(t1, None), (t2, None)]),
        ("second_moment_normal", "normal", [(t1, None), (t2, None)]),
    ]
    specs = [fock.OrderedProductSpec(tuple(("q", t, branch) for t, branch in factors),
                                     ordering, shift=q_j) for _, ordering, factors in table]
    residuals = moment_residuals(state, specs, sc.params, mean)
    return {name: float(res) for (name, _, _), res in zip(table, residuals)}
