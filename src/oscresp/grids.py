"""Uniform periodic time grids, signals and two-point kernels on them.

Everything downstream computes on these objects.  A grid is periodic with
period n*dt; signals hold samples at the grid times, kernels hold samples
of a function of the time difference tau on the same grid.  Integrals over
the full time axis become dt-weighted periodic sums, and the splitting of
a sampled function into its frequency-positive and frequency-negative
parts (time dependence exp(-i w t) with w > 0, resp. w < 0) is done bin
by bin in the DFT, with the zero and Nyquist bins shared half/half so
that plus + minus reproduces the input exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform periodic grid: sample k sits at t0 + k*dt, period n*dt."""

    n: int
    dt: float
    t0: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise GridError(f"grid size must be even and >= 4, got {self.n}")
        if not self.dt > 0:
            raise GridError(f"time step must be positive, got {self.dt}")
        if not (math.isfinite(self.dt) and math.isfinite(self.t0)):
            raise GridError(f"time step and origin must be finite, got {self.dt}, {self.t0}")

    @property
    def period(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def lags(self) -> np.ndarray:
        """Time differences of the kernel samples: entry k holds tau = (k - n/2)*dt.

        This is the index convention of ``Kernel.value_at_tau`` and
        ``circular_convolve``; ``reflect_values`` maps it to -tau exactly,
        except at the wrap sample k = 0.
        """
        return self.dt * (np.arange(self.n) - self.n // 2)

    def index_of(self, t: float) -> int:
        """Index of the sample at time t; t must lie on the grid."""
        k = _snap((t - self.t0) / self.dt)
        if k is None or not 0 <= k < self.n:
            raise GridError(f"time {t} is not a sample of this grid")
        return k


def _snap(x: float):
    """The integer within 1e-9 max(1, |x|) of x, or None: puts times, lags and bins on the grid."""
    if not math.isfinite(x):
        return None
    k = round(x)
    return k if abs(x - k) <= 1e-9 * max(1.0, abs(x)) else None


def make_grid(n: int, dt: float) -> TimeGrid:
    """Grid of n samples centered on zero, so both signs of tau occur."""
    grid = TimeGrid(n=int(n), dt=float(dt), t0=0.0)
    return TimeGrid(n=grid.n, dt=grid.dt, t0=-grid.n * grid.dt / 2.0)


def _as_values(values, n: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.shape != (n,):
        raise GridError(f"expected {n} samples, got shape {v.shape}")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex samples of a function of time on a grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n))

    def __add__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def conj(self):
        return type(self)(self.grid, np.conj(self.values))

    def value_at(self, t: float) -> complex:
        return complex(self.values[self.grid.index_of(t)])


@dataclass(frozen=True, eq=False)
class Kernel(SampledSignal):
    """Samples of a two-point kernel as a function of tau on the grid."""

    def value_at_tau(self, tau: float) -> complex:
        """Kernel value at a (periodically wrapped) grid time difference."""
        k = _snap(tau / self.grid.dt)
        if k is None:
            raise GridError(f"tau {tau} is not a grid time difference")
        return complex(self.values[(k + self.grid.n // 2) % self.grid.n])


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridError("operands live on different grids")


def reflect_values(values: np.ndarray) -> np.ndarray:
    """values[..., (n - k) % n]: time (or tau) inversion of the last axis."""
    return np.roll(values[..., ::-1], 1, axis=-1)


def swap_reflect(values: np.ndarray) -> np.ndarray:
    """K_{b a}(-tau) from K_{a b}(tau): swap the label halves and reflect tau.

    The leading axes hold two equal halves of labels (a, b); tau is the
    last axis.  A 1-d kernel has no labels, so for it this is plain
    reflection.
    """
    half = (values.ndim - 1) // 2
    order = (*range(half, 2 * half), *range(half), values.ndim - 1)
    return reflect_values(np.transpose(values, order))


# -- frequency-sign decomposition -------------------------------------------

def half_step(n: int) -> np.ndarray:
    """1 above index n/2, 1/2 at indices 0 and n/2, 0 elsewhere.

    The two halves sit at the fixed points of k -> (n - k) % n, so
    half_step + reflect_values(half_step) = 1 at every index.  Read over
    kernel samples (tau = (k - n/2)*dt) it is the step theta(tau), with
    1/2 at tau = 0 and at the wrap point.  Read over DFT bins it keeps the
    frequency-positive half: with samples following exp(-i w t), w > 0
    sits in the upper bins, and the zero and Nyquist bins are shared
    half/half so that the two parts always add back exactly.
    """
    step = np.zeros(n)
    step[n // 2 + 1:] = 1.0
    step[0] = 0.5
    step[n // 2] = 0.5
    return step


def split_values(values: np.ndarray):
    """(plus, minus) frequency parts of samples along the last axis."""
    mask_plus = half_step(values.shape[-1])
    spec = np.fft.fft(values, axis=-1)
    return (np.fft.ifft(spec * mask_plus, axis=-1),
            np.fft.ifft(spec * (1.0 - mask_plus), axis=-1))


def frequency_split(s):
    """Split a signal or kernel into (plus, minus) frequency parts."""
    plus, minus = split_values(s.values)
    return type(s)(s.grid, plus), type(s)(s.grid, minus)


def zero_nyquist_fraction(s) -> float:
    """Fraction of the signal energy sitting in the zero and Nyquist bins.

    The half/half split convention is only unambiguous when this is
    negligible; suites flag probe sets where it exceeds 1e-10.
    """
    spec = np.fft.fft(s.values)
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    edge = float(np.abs(spec[0]) ** 2 + np.abs(spec[s.grid.n // 2]) ** 2)
    return edge / total


def without_zero_nyquist(s):
    """Remove the zero and Nyquist bin content from a signal."""
    n = s.grid.n
    spec = np.fft.fft(s.values)
    spec[0] = 0.0
    spec[n // 2] = 0.0
    return type(s)(s.grid, np.fft.ifft(spec))


# -- convolution and kernel conjugation --------------------------------------

def circular_convolve(k: Kernel, s: SampledSignal) -> SampledSignal:
    """out(t) = dt * sum_t' k(t - t') s(t'), with periodic index wrap."""
    _require_same_grid(k, s)
    n = k.grid.n
    # zero-based kernel: entry m holds k(m * dt mod period)
    kz = np.roll(k.values, -(n // 2))
    out = k.grid.dt * np.fft.ifft(np.fft.fft(kz) * np.fft.fft(s.values))
    return SampledSignal(s.grid, out)


def adjoint(values: np.ndarray) -> np.ndarray:
    """Hermitian conjugate conj(swap_reflect(K)) of a kernel or a kernel family.

    Reflection and conjugation each swap the frequency halves, so the
    adjoint keeps the frequency sign.
    """
    return np.conj(swap_reflect(values))


def kernel_adjoint(k: Kernel) -> Kernel:
    """Hermitian conjugate of a c-number kernel: conj(k(-tau))."""
    return Kernel(k.grid, adjoint(k.values))


# -- serialization ------------------------------------------------------------

def to_record(s) -> dict:
    """JSON-ready record {n, dt, t0, values: [[re, im], ...]}."""
    return {
        "n": s.grid.n,
        "dt": s.grid.dt,
        "t0": s.grid.t0,
        "values": [[float(v.real), float(v.imag)] for v in s.values],
    }


def signal_from_record(rec: dict) -> SampledSignal:
    grid = TimeGrid(n=int(rec["n"]), dt=float(rec["dt"]), t0=float(rec["t0"]))
    values = np.array([complex(re, im) for re, im in rec["values"]])
    return SampledSignal(grid, values)


def kernel_from_record(rec: dict) -> Kernel:
    s = signal_from_record(rec)
    return Kernel(s.grid, s.values)


def write_json(s, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_record(s), fh)


def read_signal_json(path) -> SampledSignal:
    with open(path, encoding="utf-8") as fh:
        return signal_from_record(json.load(fh))


def read_kernel_json(path) -> Kernel:
    with open(path, encoding="utf-8") as fh:
        return kernel_from_record(json.load(fh))


def write_csv(s, path) -> None:
    """CSV with columns index, t, re, im (17 significant digits)."""
    times = s.grid.times()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "t", "re", "im"])
        for i, (t, v) in enumerate(zip(times, s.values)):
            writer.writerow([i, f"{t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])


def _read_csv_values(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    t = np.array([float(r[1]) for r in body])
    values = np.array([complex(float(r[2]), float(r[3])) for r in body])
    if len(t) < 2:
        raise GridError("CSV must contain at least two samples")
    grid = TimeGrid(n=len(t), dt=float(t[1] - t[0]), t0=float(t[0]))
    return grid, values


def read_signal_csv(path) -> SampledSignal:
    grid, values = _read_csv_values(path)
    return SampledSignal(grid, values)


def read_kernel_csv(path) -> Kernel:
    grid, values = _read_csv_values(path)
    return Kernel(grid, values)
