"""Uniform periodic time grids, signals and two-point kernels on them.

Everything downstream computes on these objects.  A grid is periodic with
period n*dt; signals hold samples at the grid times, kernels hold samples
of a function of the time difference tau on the same grid.  Integrals over
the full time axis become dt-weighted periodic sums, and the splitting of
a sampled function into its frequency-positive and frequency-negative
parts (time dependence exp(-i w t) with w > 0, resp. w < 0) is done bin
by bin in the DFT, with the zero and Nyquist bins shared half/half so
that plus + minus reproduces the input exactly.

A signal lives in two domains: its samples (``values``) and its spectrum
fft(values).  It is made in exactly one of them, and the other is made
from it once, on first read; both are read-only.  The public constructor
makes it in samples.  ``frequency_split``, ``without_zero_nyquist`` and
``circular_convolve`` are bin-by-bin products, so they make their results
in the spectrum and leave the inverse transform to the first reader of
``values``.  Arithmetic, ``conj`` and ``kernel_adjoint`` follow one rule,
read from the domains the operands were made in and never from what was
read of them before: the result is made in samples when every operand
was, and otherwise in the spectrum.  So a result's bits depend only on
how its operands were made.
"""

from __future__ import annotations

import cmath
import csv
import functools
import json
import math
import numbers
import os
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
        n = _require_int(self.n, "grid size", GridError, least=4)
        if n % 2:
            raise GridError(f"grid size must be even, got {n}")
        object.__setattr__(self, "n", n)
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


def _require_int(value, name: str, error: type, least: int = 0) -> int:
    """value as an int; raises error unless it is an integer (numpy's too, no bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        wanted = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
        raise error(f"{name} must be {wanted}, got {value!r}")
    return int(value)


def make_grid(n: int, dt: float) -> TimeGrid:
    """Grid of n samples centered on zero, so both signs of tau occur."""
    grid = TimeGrid(n=n, dt=float(dt), t0=0.0)
    return TimeGrid(n=grid.n, dt=grid.dt, t0=-grid.n * grid.dt / 2.0)


def _as_values(values, n: int) -> np.ndarray:
    """A read-only copy of a (..., n) stack of finite complex samples; anything else is refused."""
    v = np.asarray(values, dtype=complex)
    if v.shape[-1:] != (n,):
        raise GridError(f"expected a stack of {n} samples, got shape {v.shape}")
    # sum |v|^2 is finite when every sample is, unless it overflows: one BLAS
    # call, where an elementwise test costs twice as much at n = 256
    if not math.isfinite(np.vdot(v, v).real) and not np.isfinite(v).all():
        raise GridError("samples must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex samples of a function of time on a grid, or a stack of them on its leading axes."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    # the domain the signal was made in: "values" or "_spectrum"
    _made_in = "values"

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n))

    @classmethod
    def _made(cls, grid: TimeGrid, values=None, spectrum=None):
        """A signal made from fresh samples or else a fresh spectrum, read-only and not copied."""
        out = object.__new__(cls)
        name, array = ("values", values) if spectrum is None else ("_spectrum", spectrum)
        array.flags.writeable = False
        out.__dict__.update({"grid": grid, "_made_in": name, name: array})
        return out

    @property
    def stack_shape(self) -> tuple:
        """The shape of the stack: () for a single signal."""
        return self.__dict__[self._made_in].shape[:-1]

    def __getattr__(self, name):
        """The domain the signal was not made in, made from the other on first read and kept."""
        if name == "_spectrum" and self._made_in == "values":
            array = np.fft.fft(self.values)
        elif name == "values" and self._made_in == "_spectrum":
            array = np.fft.ifft(self._spectrum)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        array.flags.writeable = False
        self.__dict__[name] = array
        return array

    def __add__(self, other):
        _require_same_grid(self, other)
        _require_broadcast(self, other)
        return _derive(type(self), np.add, np.add, self, other)

    def __sub__(self, other):
        _require_same_grid(self, other)
        _require_broadcast(self, other)
        return _derive(type(self), np.subtract, np.subtract, self, other)

    def __mul__(self, scalar):
        if not cmath.isfinite(scalar):
            raise GridError(f"a signal can only be scaled by a finite number, got {scalar!r}")

        def scale(a):
            return a * scalar
        return _derive(type(self), scale, scale, self)

    __rmul__ = __mul__

    def conj(self):
        # conj(values) has the spectrum conj(spectrum[-k])
        return _derive(type(self), np.conj, lambda spec: np.conj(reflect_values(spec)), self)

    def value_at(self, t: float) -> complex:
        """The sample at grid time t of one signal; a stack is refused."""
        if self.values.ndim != 1:
            raise GridError(f"value_at reads one signal, not a stack of shape {self.stack_shape}")
        return complex(self.values[self.grid.index_of(t)])

    @classmethod
    def from_record(cls, rec: dict):
        """Inverse of ``to_record``; a malformed record or non-finite sample is refused."""
        try:
            n, dt, t0 = rec["n"], float(rec["dt"]), float(rec["t0"])
            values = np.array([complex(re, im) for re, im in rec["values"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise GridError(f"malformed signal record: {exc!r}") from exc
        return cls(TimeGrid(n=n, dt=dt, t0=t0), values)

    @classmethod
    def read_json(cls, path):
        """Read a file written by ``write_json``."""
        with open(path, encoding="utf-8") as fh:
            try:
                rec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GridError(f"{path} is not JSON: {exc}") from exc
        return cls.from_record(rec)

    @classmethod
    def read_csv(cls, path):
        """Read a file written by ``write_csv``, recovering its grid exactly.

        The step is the float within 4 ulps of the mean spacing whose grid
        regenerates every written time; a file with no such step is refused.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            body = list(csv.reader(fh))[1:]
        try:
            t = np.array([float(r[1]) for r in body])
            values = [(float(r[2]), float(r[3])) for r in body]
        except (IndexError, ValueError) as exc:
            raise GridError(f"malformed CSV row: {exc!r}") from exc
        if len(t) < 2 or not np.all(np.isfinite(t)):
            raise GridError("CSV must hold at least two samples at finite times")
        mean_step = (t[-1] - t[0]) / (len(t) - 1)
        ulps = np.array(sorted(range(-4, 5), key=abs))
        for dt in (mean_step.view(np.int64) + ulps).view(np.float64):
            if np.array_equal(t[0] + dt * np.arange(len(t)), t):
                return cls.from_record({"n": len(t), "dt": dt, "t0": t[0], "values": values})
        raise GridError("CSV times do not lie on a uniform grid")


def _derive(cls, fn, spectral_fn, *operands):
    """A cls made by fn over the operands' samples if every operand was made in samples,
    and otherwise by spectral_fn over their spectra."""
    grid = operands[0].grid
    if all(x._made_in == "values" for x in operands):
        return cls._made(grid, fn(*(x.values for x in operands)))
    return cls._made(grid, spectrum=spectral_fn(*(x._spectrum for x in operands)))


def _require_broadcast(a, b) -> None:
    """Raise GridError unless the stacks of a and b broadcast together."""
    if a.stack_shape != b.stack_shape:
        try:
            np.broadcast_shapes(a.stack_shape, b.stack_shape)
        except ValueError:
            raise GridError(f"signal stacks of shapes {a.stack_shape} and {b.stack_shape} "
                            "do not broadcast") from None


def _require_single(s, what: str, error: type) -> None:
    """Raise error unless s holds one signal, not a stack."""
    if s.stack_shape:
        raise error(f"{what} takes one signal, not a stack of shape {s.stack_shape}")


def _per_signal(values: np.ndarray):
    """One value per stacked signal: the array, or a Python scalar for a single signal."""
    return values.item() if values.ndim == 0 else values


def _unstack(s) -> list:
    """The signals along the last stack axis of s, each a stack of the leading axes.

    Each is read from the domain s was made in, so it has the bits of s.
    """
    if not s.stack_shape:
        raise GridError("a single signal has no stack axis to take apart")

    def row(j):
        return lambda array: array[..., j, :]
    return [_derive(type(s), row(j), row(j), s) for j in range(s.stack_shape[-1])]


@dataclass(frozen=True, eq=False)
class Kernel(SampledSignal):
    """Samples of a two-point kernel as a function of tau on the grid.

    A kernel is one kernel: a stack is refused.  A family of kernels is a
    raw (labels..., n) array (``swap_reflect``, ``adjoint``).
    """

    def __post_init__(self):
        super().__post_init__()
        _require_single(self, "a Kernel", GridError)

    @classmethod
    def _made(cls, grid: TimeGrid, values=None, spectrum=None):
        out = super()._made(grid, values, spectrum)
        _require_single(out, "a Kernel", GridError)
        return out

    def value_at_tau(self, tau: float) -> complex:
        """Kernel value at a (periodically wrapped) grid time difference."""
        k = _snap(tau / self.grid.dt)
        if k is None:
            raise GridError(f"tau {tau} is not a grid time difference")
        return complex(self.values[(k + self.grid.n // 2) % self.grid.n])

    @functools.cached_property
    def _zero_based_spectrum(self) -> np.ndarray:
        """fft of the zero-based samples, entry m holding k(m * dt mod period); read-only.

        Moving the samples by n/2 multiplies bin k by exp(i pi k) = (-1)^k,
        exactly, since n is even.
        """
        spec = self._spectrum * _alternating(self.grid.n)
        spec.flags.writeable = False
        return spec


@functools.lru_cache
def _alternating(n: int) -> np.ndarray:
    """(-1)^k over n bins, read-only."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    signs.flags.writeable = False
    return signs


def _require_same_grid(a, b) -> None:
    # signals made on one grid share its object, which skips the field compare
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridError("operands live on different grids")


def reflect_values(values: np.ndarray) -> np.ndarray:
    """values[..., (n - k) % n]: time (or tau) inversion of the last axis."""
    return _reflect_into(values, np.empty_like(values))


def _reflect_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write values[..., (n - k) % n] into out (not values itself) and return it."""
    out[..., 0] = values[..., 0]
    out[..., 1:] = values[..., :0:-1]
    return out


def swap_reflect(values: np.ndarray) -> np.ndarray:
    """K_{b a}(-tau) from K_{a b}(tau): swap the label halves and reflect tau.

    The leading axes hold two equal halves of labels (a, b); tau is the
    last axis.  A 1-d kernel has no labels, so for it this is plain
    reflection.  Any other shape raises GridError.
    """
    return _swap_reflect_block(_label_blocks(values), slice(None), slice(None)).reshape(values.shape)


# -- blocks of a kernel family ------------------------------------------------

# a label half of at least _BLOCK_SAMPLES samples (256 KiB of complex) runs on
# the worker pool, a smaller one inline, as small halves pay the hand-off once
# each.  Timed on 2 CPUs, per half, inline against the pool: the rebuild and its
# check run 1.4-2x faster inline at h = 9, n = 1024 and h = 16, n = 512; at
# h = 4, n = 4096 and h = 16, n = 1024 the check is level or faster on the pool.
# A run of the rebuild (``kernels._rebuilt_rows``) holds at most _BLOCK_SAMPLES
# samples, one row at least, so that its temporaries do not grow with h.
_BLOCK_SAMPLES = 1 << 14


def _label_blocks(values: np.ndarray) -> np.ndarray:
    """View of a kernel family as (h, h, n): entry [i, j] is the row of label halves (i, j).

    A 1-d kernel is the one row of h = 1; any shape but (n,) or two equal
    label halves followed by tau raises GridError.
    """
    half = (values.ndim - 1) // 2
    if values.ndim % 2 == 0 or values.shape[:half] != values.shape[half:-1]:
        raise GridError(f"shape {values.shape} is not a kernel family: its leading axes "
                        "must be two equal label halves, followed by tau")
    labels = math.prod(values.shape[:half])
    return values.reshape(labels, labels, values.shape[-1])


def _swap_reflect_block(blocks: np.ndarray, a, b) -> np.ndarray:
    """Rows (a, b) of the ``swap_reflect`` of a ``_label_blocks`` view: rows [b, a], reflected."""
    mirror = blocks.transpose(1, 0, 2)[a, b]
    return _reflect_into(mirror, np.empty(mirror.shape, mirror.dtype))


def _adjoint_rows(rows: np.ndarray) -> np.ndarray:
    """conj(rows) at -tau in a fresh buffer: a family's ``adjoint`` at (a, b) from its rows (b, a)."""
    out = _reflect_into(rows, np.empty(rows.shape, rows.dtype))
    return np.conjugate(out, out=out)


@functools.lru_cache(maxsize=None)
def _pool():
    """The one worker pool, made on first use; None on a single CPU.

    Its threads start as blocks arrive, at most one per CPU this process
    may run on, so never more than a call has blocks.
    """
    # imported here: concurrent.futures (with logging) adds about 7 ms to
    # every import of the package, and small inputs never need it
    from concurrent.futures import ThreadPoolExecutor

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return ThreadPoolExecutor(max_workers=cpus, thread_name_prefix="oscresp") if cpus > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _each_block(fn, values: np.ndarray) -> list:
    """fn(s) for each first label half s = 0, 1, ... of a family's ``_label_blocks`` view.

    A 1-d kernel is the one block s = 0.  The rebuild's half s walks the
    rows from its diagonal on, so this order hands out the largest halves
    first.  Halves of at least ``_BLOCK_SAMPLES`` samples, two or more,
    run on the worker pool, where numpy's FFTs and ufuncs release the GIL.
    fn may run on a worker thread, so it may call only numpy and private
    helpers, never a public function of the package.
    """
    blocks = _label_blocks(values)
    labels = len(blocks)
    pool = _pool() if labels > 1 and blocks[0].size >= _BLOCK_SAMPLES else None
    return list(map(fn, range(labels)) if pool is None else pool.map(fn, range(labels)))


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
    return _split_masks(n)[0].copy()


@functools.lru_cache
def _split_masks(n: int):
    """The ``half_step`` mask of n bins and its complement, read-only.

    Made here, not by ``half_step``: worker-thread blocks reach it through
    ``_plus_into``.
    """
    plus = np.zeros(n)
    plus[n // 2 + 1:] = 1.0
    plus[0] = plus[n // 2] = 0.5
    minus = 1.0 - plus
    plus.flags.writeable = minus.flags.writeable = False
    return plus, minus


def plus_values(values: np.ndarray) -> np.ndarray:
    """The frequency-positive part of complex samples along the last axis, made in their place.

    values is overwritten and returned.  The part is ifft(fft(values) *
    half_step), and the negative part is the input minus it: the ``half_step`` mask and its complement sum to
    exactly 1.  Every row is transformed on its own, so a block of rows
    gives the same bits as the whole array.
    """
    return _plus_into(values)


def _plus_into(values: np.ndarray) -> np.ndarray:
    """``plus_values``, private so that worker-thread blocks (``_each_block``) may call it."""
    np.fft.fft(values, axis=-1, out=values)
    np.multiply(values, _split_masks(values.shape[-1])[0], out=values)
    return np.fft.ifft(values, axis=-1, out=values)


def frequency_split(s):
    """Split a signal or kernel into (plus, minus) frequency parts, made from its spectrum."""
    mask_plus, mask_minus = _split_masks(s.grid.n)
    spec = s._spectrum
    return (type(s)._made(s.grid, spectrum=spec * mask_plus),
            type(s)._made(s.grid, spectrum=spec * mask_minus))


def zero_nyquist_fraction(s):
    """Fraction of the signal energy sitting in the zero and Nyquist bins, per stacked signal.

    0 for a signal with no energy.  The half/half split convention is only
    unambiguous when this is negligible; suites flag probe sets where it
    exceeds 1e-10.
    """
    spec = s._spectrum
    total = np.sum(np.abs(spec) ** 2, axis=-1)
    edge = np.abs(spec[..., 0]) ** 2 + np.abs(spec[..., s.grid.n // 2]) ** 2
    return _per_signal(np.divide(edge, total, out=np.zeros_like(total), where=total != 0.0))


def without_zero_nyquist(s):
    """Remove the zero and Nyquist bin content from a signal."""
    spec = s._spectrum.copy()
    spec[..., 0] = 0.0
    spec[..., s.grid.n // 2] = 0.0
    return type(s)._made(s.grid, spectrum=spec)


# -- convolution and kernel conjugation --------------------------------------

def circular_convolve(k: Kernel, s: SampledSignal) -> SampledSignal:
    """out(t) = dt * sum_t' k(t - t') s(t'), with periodic index wrap, for each stacked s."""
    _require_same_grid(k, s)
    return SampledSignal._made(s.grid, spectrum=k.grid.dt * (k._zero_based_spectrum * s._spectrum))


def adjoint(values: np.ndarray) -> np.ndarray:
    """Hermitian conjugate conj(swap_reflect(K)) of a kernel or a kernel family.

    Reflection and conjugation each swap the frequency halves, so the
    adjoint keeps the frequency sign.  Any shape but a kernel family's
    raises GridError.
    """
    return np.conj(swap_reflect(values))


def kernel_adjoint(k: Kernel) -> Kernel:
    """Hermitian conjugate of a c-number kernel: conj(k(-tau)), whose spectrum is conj(spectrum)."""
    return _derive(Kernel, adjoint, np.conj, k)


# -- serialization ------------------------------------------------------------

def to_record(s) -> dict:
    """JSON-ready record {n, dt, t0, values: [[re, im], ...]}; a stack is refused."""
    _require_single(s, "a signal record", GridError)
    return {
        "n": s.grid.n,
        "dt": s.grid.dt,
        "t0": s.grid.t0,
        "values": [[float(v.real), float(v.imag)] for v in s.values],
    }


def write_json(s, path) -> None:
    rec = to_record(s)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)


def write_csv(s, path) -> None:
    """CSV with columns index, t, re, im (17 significant digits); a stack is refused."""
    _require_single(s, "a CSV file", GridError)
    times = s.grid.times()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "t", "re", "im"])
        for i, (t, v) in enumerate(zip(times, s.values)):
            writer.writerow([i, f"{t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])

