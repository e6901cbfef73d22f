"""Oscillator and free-field two-point kernels and their reconstruction rule.

The plain contraction D of the oscillator is sampled from its closed form
on a periodic grid; one time-ordering rule (``time_order``) turns it, and
the fields' forward and backward contractions, into D_F and D_R.  One
reconstruction rule (``_rebuilt``) rebuilds every kernel of a family from
C+, the frequency-positive part of C = D_R - D_R^dag: ``reconstruct``
applies it and ``reconstruction_residuals`` measures it, with the rows of
one first label half at a time (``_rebuilt_rows``); the suites drive
those identities.

All grid kernels require the frequencies in play to sit exactly on DFT
bins (omega = 2*pi*b/(n*dt), 0 < b < n/2), where the discrete identities
are exact to rounding and every phase exp(-i omega tau) is an n-th root
of unity, read from one exactly conjugate-symmetric table (``_roots``),
never evaluated by ``exp``.  The neutral family's builder runs block by
block too and makes no full-size swapped copy.  The oscillator builder's
``loose`` flag admits an off-bin frequency for robustness exploration at
degraded tolerances; its phases come from ``exp``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import (GridError, Kernel, TimeGrid, _adjoint_rows, _each_block, _label_blocks,
                    _plus_into, _snap, _swap_reflect_block, reflect_values)


class CommensurabilityError(ValueError):
    """A frequency does not sit on a DFT bin of the grid."""


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, angular frequency and hbar, with the derived q0/p0 scales."""

    mass: float = 1.0
    omega0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mass, self.omega0, self.hbar)):
            raise ValueError("mass, omega0 and hbar must all be finite")
        if min(self.mass, self.omega0, self.hbar) <= 0:
            raise ValueError("mass, omega0 and hbar must all be positive")

    @property
    def q0(self) -> float:
        return math.sqrt(self.hbar / (self.mass * self.omega0))

    @property
    def p0(self) -> float:
        return math.sqrt(self.hbar * self.mass * self.omega0)


def check_commensurate(omega: float, grid: TimeGrid) -> int:
    """The bin omega*n*dt/(2*pi) of omega; refused unless it is an integer in (0, n/2)."""
    k = omega * grid.n * grid.dt / (2.0 * math.pi)
    ki = _snap(k)
    if ki is None or not 1 <= ki < grid.n // 2:
        raise CommensurabilityError(
            f"omega={omega} sits on bin {k:.6g} of the grid; an integer bin in "
            f"[1, {grid.n // 2}) is required")
    return ki


@functools.lru_cache
def _roots(n: int) -> np.ndarray:
    """r[k] = exp(-2 pi i k / n), read-only, with r[n - k] = conj(r[k]) exactly.

    cos and sin are evaluated at angles of at most pi/4 (pi/2 when 4 does
    not divide n); the rest of the table follows from the exact symmetries
    r[n/4 - k] = -i conj(r[k]), r[n/2 - k] = -conj(r[k]) and conjugation.
    """
    half, quarter = n // 2, n // 4
    top = n // 8 if n % 4 == 0 else quarter
    cos, sin = np.empty(half + 1), np.empty(half + 1)
    angle = 2.0 * math.pi * np.arange(top + 1) / n
    cos[:top + 1], sin[:top + 1] = np.cos(angle), np.sin(angle)
    if n % 4 == 0:
        k = np.arange(top + 1, quarter + 1)
        cos[k], sin[k] = sin[quarter - k], cos[quarter - k]
    k = np.arange(quarter + 1, half + 1)
    cos[k], sin[k] = -cos[half - k], sin[half - k]
    roots = np.empty(n, complex)
    roots.real[:half + 1], roots.imag[:half + 1] = cos, 0.0 - sin    # +0 at 0 and n/2
    roots[half + 1:] = np.conj(roots[half - 1:0:-1])
    roots.flags.writeable = False
    return roots


# exp(-1j * omega * grid.lags()), for omega = 2*pi*b/(n*dt) in floats, is
# off the exact root by the rounding of its argument: at most this many
# eps*|omega tau|, plus eps, per sample (about 1e-11 at the top bins of
# n = 16384); ``_phase`` reads the exact root
_PHASE_ROUNDING = 4.0


@functools.lru_cache
def _lag_indices(n: int) -> np.ndarray:
    """The lag index j = k - n/2 of each kernel sample k (tau = j*dt), read-only."""
    lags = np.arange(n) - n // 2
    lags.flags.writeable = False
    return lags


def _phase(omega: float, grid: TimeGrid, sign: int = -1) -> np.ndarray:
    """exp(sign i omega tau) over the lags, read from ``_roots``.

    omega sits on an integer bin b (``check_commensurate``), and tau = j*dt
    with the lag index j, so the phase is exactly the root r[(-sign b j) mod n].
    """
    n = grid.n
    return _roots(n)[-sign * check_commensurate(omega, grid) * _lag_indices(n) % n]


def _phases(omegas, grid: TimeGrid, sign: int = -1) -> np.ndarray:
    """``_phase`` of each omega, one row each: shape (len(omegas), n)."""
    return np.array([_phase(float(w), grid, sign) for w in omegas]).reshape(-1, grid.n)


# -- closed forms at exact time differences ----------------------------------

def theta_half(tau: float) -> float:
    """Heaviside step with theta(0) = 1/2."""
    if tau > 0:
        return 1.0
    return 0.5 if tau == 0 else 0.0


def osc_d_value(tau, p: OscillatorParams):
    """Plain contraction D(tau) = -i exp(-i w0 tau) / (2 m w0), elementwise on arrays."""
    return -1j * np.exp(-1j * p.omega0 * tau) / (2.0 * p.mass * p.omega0)


def osc_df_value(tau: float, p: OscillatorParams) -> complex:
    """Time-ordered contraction D_F(tau) = theta(tau) D(tau) + theta(-tau) D(-tau)."""
    return theta_half(tau) * osc_d_value(tau, p) + theta_half(-tau) * osc_d_value(-tau, p)


def osc_dr_value(tau: float, p: OscillatorParams) -> float:
    """Retarded kernel D_R(tau) = -theta(tau) sin(w0 tau) / (m w0)."""
    return -theta_half(tau) * math.sin(p.omega0 * tau) / (p.mass * p.omega0)


# -- the time-ordering rule ---------------------------------------------------

def time_order(forward: np.ndarray, backward: np.ndarray):
    """(D_F, D_R) = (theta*f + (1 - theta)*b, theta*(f - b)), tau on the last axis.

    f and b are the forward and backward contractions, theta the half step.
    The halves of theta are written as slices: f and f - b above n/2, b and
    0 below, and the 1/2-weighted sums at the shared samples 0 and n/2, so
    the result equals the masked formula value for value without its
    full-size temporaries (the zeros of D_R below n/2 are all +0, where
    0*(f - b) would carry a sign).
    """
    dtype = np.result_type(forward, backward, float)
    return _time_order_into(forward, reflect_values(backward),
                            np.empty(forward.shape, dtype), np.empty(forward.shape, dtype))


def _time_order_into(forward, mirror, d_f, d_r):
    """Write the ``time_order`` of forward and a backward contraction b into d_f and d_r.

    mirror is the reflection (``reflect_values``) of b, read through
    reversed views: b[k] = mirror[n - k], so k > n/2 reads n/2-1..1 and
    0 < k < n/2 reads n-1..n/2+1.  Returns (d_f, d_r).
    """
    h = forward.shape[-1] // 2
    upper, lower, ends = mirror[..., h - 1:0:-1], mirror[..., :h:-1], mirror[..., ::h]
    d_f[..., h + 1:] = forward[..., h + 1:]
    d_f[..., 1:h] = lower
    d_f[..., ::h] = 0.5 * forward[..., ::h] + 0.5 * ends
    np.subtract(forward[..., h + 1:], upper, out=d_r[..., h + 1:])
    d_r[..., 1:h] = 0.0
    d_r[..., ::h] = 0.5 * (forward[..., ::h] - ends)
    return d_f, d_r


# -- the reconstruction rule -----------------------------------------------------

RECONSTRUCTED = ("d_r_two_defs", "forward", "backward", "d_f")


def _rebuilt(d_r: np.ndarray, d_r_dag: np.ndarray, plus: np.ndarray, names):
    """The named kernels rebuilt at some rows of D_R, made one by one as they are read.

    d_r, d_r_dag and plus are those rows of D_R, of its adjoint and of C+,
    the only part of C = D_R - D_R^dag transformed, as C- = C - C+:
    forward = C+, backward = -C- = C+ - C and D_F = D_R - C- = D_R^dag + C+.
    "d_r_two_defs" is D_R^dag itself, whose second definition is D_F - forward.
    """
    rule = {"d_r_two_defs": lambda: d_r_dag, "forward": lambda: plus,
            "backward": lambda: plus - (d_r - d_r_dag), "d_f": lambda: d_r_dag + plus}
    return (rule[name]() for name in names)


def _rebuilt_rows(d_r: np.ndarray, a: int, names):
    """(rows, kernels) at the rows (a, a...) of a ``_label_blocks`` view of D_R, then (a+1..., a).

    kernels makes the named kernels at rows one by one as read (``_rebuilt``).
    Only C+ at (a, a...) is transformed, in C's place one row at a time, so
    its bits do not depend on the blocking.  C^dag = -C and the adjoint
    keeps the frequency sign, so C+ is anti-Hermitian: a kernel's row (b, a)
    is the adjoint of the rule at (D_R^dag, D_R, -C+) at (a, b).  C+ and
    D_R^dag come read-only, and -C+ is made in C+'s place: a caller must be
    done with the first kernels before it asks for the next.
    """
    upper = (a, slice(a, None))
    d_r_dag = _adjoint_rows(d_r[a:, a])
    plus = _plus_into(np.subtract(d_r[upper], d_r_dag, dtype=complex))
    shared = plus.view()
    d_r_dag.flags.writeable = shared.flags.writeable = False
    yield upper, _rebuilt(d_r[upper], d_r_dag, shared, names)
    if len(plus) > 1:
        # map, unlike a generator expression, holds no kernel once it is adjointed
        yield (slice(a + 1, None), a), map(_adjoint_rows, _rebuilt(
            d_r_dag[1:], d_r[a, a + 1:], np.negative(plus, out=plus)[1:], names))


def reconstruct(d_r: np.ndarray, name: str) -> np.ndarray:
    """The named kernel, "forward", "backward" or "d_f", of a family rebuilt from its D_R.

    The rule (``_rebuilt``) holds for the oscillator and for neutral and
    charged fields alike: each forward contraction is frequency-positive,
    each backward one frequency-negative, and both are anti-Hermitian, so
    C = D_R - D_R^dag = forward - backward, and D_F = D_R + backward
    (``time_order``).  Each block writes the rows that ``_rebuilt_rows``
    makes.  Any other name, or a shape that is not a kernel family, raises
    GridError.
    """
    if name not in RECONSTRUCTED[1:]:
        raise GridError(f"{name!r} is not one of the rebuilt kernels {RECONSTRUCTED[1:]}")
    d_r, out = _label_blocks(np.asarray(d_r)), np.empty(np.shape(d_r), complex)
    rows_out = _label_blocks(out)

    def block(a):
        for rows, kernels in _rebuilt_rows(d_r, a, (name,)):
            rows_out[rows] = next(kernels)

    _each_block(block, out)
    return out


def reconstruction_residuals(forward: np.ndarray, d_f: np.ndarray, d_r: np.ndarray, *,
                             backward=None, names=RECONSTRUCTED) -> dict[str, float]:
    """Max residual of each named kernel rebuilt from D_R against its definition.

    The definitions are the family's forward and backward contractions,
    and D_F and D_R from ``time_order``.  A neutral field, the oscillator
    included, passes no backward contraction: its backward one is
    swap_reflect(forward).  "d_r_two_defs" checks the second definition
    D_R^dag = D_F - forward.  Conjugation and a permutation neither round
    nor change a maximum, so D_F^dag needs no check of its own.  The
    kernels are compared block by block as ``_rebuilt_rows`` makes them,
    so that no full-size kernel, adjoint or difference is held.  A name
    outside ``RECONSTRUCTED``, any shape but D_R's, or a D_R that is not a
    kernel family, raises GridError.  A NaN compared gives a NaN residual.
    """
    if not set(names) <= set(RECONSTRUCTED):
        raise GridError(f"{names} are not all among the checked names {RECONSTRUCTED}")
    d_r = np.asarray(d_r)
    named = {"forward": forward, "backward": backward, "d_f": d_f, "d_r": d_r}
    defined = {key: np.asarray(values) for key, values in named.items() if values is not None}
    for key, values in defined.items():
        if values.shape != d_r.shape:
            raise GridError(f"{key} has shape {values.shape}, where D_R has {d_r.shape}")
        defined[key] = _label_blocks(values)

    def worst(rows, kernels):
        """max |rebuilt - defined| of each name at some rows, NaN if a NaN is compared."""
        here = {key: values[rows] for key, values in defined.items()}
        if "backward" in names and backward is None:    # a neutral field's
            here["backward"] = _swap_reflect_block(defined["forward"], *rows)

        def diff(name):
            kernel = next(kernels)
            if name == "d_r_two_defs":      # in complex, as the rebuilt kernels are
                two = np.subtract(here["d_f"], here["forward"], dtype=complex)
                return np.subtract(two, kernel, out=two)
            return np.subtract(kernel, here[name], out=kernel if kernel.flags.writeable else None)
        return [np.abs(diff(name)).max() for name in names]

    def block_residuals(a):
        return [worst(*side) for side in _rebuilt_rows(defined["d_r"], a, names)]

    blocks = _each_block(block_residuals, d_r)
    return dict(zip(names, np.max([side for block in blocks for side in block], axis=0).tolist()))


# -- oscillator kernels on a grid ---------------------------------------------

@dataclass(frozen=True)
class OscKernels:
    params: OscillatorParams
    grid: TimeGrid
    d_r: Kernel
    d: Kernel
    d_f: Kernel


def osc_kernels(p: OscillatorParams, grid: TimeGrid, *, loose: bool = False) -> OscKernels:
    """Sample D on the grid and time-order it into D_F and D_R.

    The phases of D are roots of unity (``_phase``); a ``loose`` grid,
    which may put omega0 off its bins, evaluates the closed form instead.
    """
    if loose:
        d = osc_d_value(grid.lags(), p)
    else:
        d = -1j * _phase(p.omega0, grid) / (2.0 * p.mass * p.omega0)
    # the backward contraction is reflect(D), so D is its mirror
    d_f, d_r = _time_order_into(d, d, np.empty_like(d), np.empty_like(d))
    return OscKernels(
        params=p,
        grid=grid,
        d_r=Kernel(grid, d_r),
        d=Kernel(grid, d),
        d_f=Kernel(grid, d_f),
    )


def contraction_from_retarded(d_r: Kernel) -> Kernel:
    """The forward contraction D rebuilt from D_R by ``reconstruct``.

    Like every kernel derived from another, it is made without the public
    constructor's copy and finiteness check (``Kernel._made``).
    """
    return Kernel._made(d_r.grid, reconstruct(d_r.values, "forward"))


def feynman_from_retarded(d_r: Kernel) -> Kernel:
    """D_F rebuilt from D_R by ``reconstruct``, made as ``contraction_from_retarded``."""
    return Kernel._made(d_r.grid, reconstruct(d_r.values, "d_f"))


def commutator_kernel(d_r: Kernel, hbar: float) -> Kernel:
    """Equal-observable two-time commutator i*hbar*[D_R(tau) - D_R(-tau)].

    This is the position-position commutator rebuilt from the linear
    response kernel; it is a c-number, independent of the state.
    """
    return Kernel(d_r.grid, 1j * hbar * (d_r.values - reflect_values(d_r.values)))


def qp_commutator_kernel(p: OscillatorParams, grid: TimeGrid) -> Kernel:
    """Position-momentum commutator kernel i*hbar*cos(w0 tau).

    Obtained by exact differentiation of the closed-form response kernel
    (momentum = mass * velocity), not by finite differences; at tau = 0 it
    reduces to the canonical i*hbar.  cos(w0 tau) is the real part of the
    phase (``_phase``), so omega0 must sit on a bin of the grid.
    """
    return Kernel(grid, 1j * p.hbar * _phase(p.omega0, grid).real)


# -- neutral bosonic fields ----------------------------------------------------

@dataclass(frozen=True)
class ModeSet:
    """Positive-frequency modes of a neutral field over labels and points.

    frequencies: shape (n_modes,), all finite and > 0.
    amplitudes:  finite complex, shape (n_modes, n_labels, n_points); entry
                 [k, mu, r] is the mode-k amplitude at label mu, point r.
    Mode normalisation is the caller's business; no condition is imposed.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if freq.ndim != 1 or not np.all(np.isfinite(freq) & (freq > 0)):
            raise ValueError("mode frequencies must be a 1-d array of finite positives")
        if amp.ndim != 3 or amp.shape[0] != freq.shape[0]:
            raise ValueError("amplitudes must have shape (n_modes, n_labels, n_points)")
        if not np.all(np.isfinite(amp)):
            raise ValueError("mode amplitudes must be finite")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class NeutralFieldKernels:
    """Indexed kernel family D, D_F, D_R over (mu, r, mu', r').

    Arrays have shape (n_labels, n_points, n_labels, n_points, n); the
    last axis is tau on the grid.  hbar is carried by callers; the stored
    D is the commutator of the frequency-signed field parts divided by
    i*hbar.
    """

    grid: TimeGrid
    d: np.ndarray
    d_f: np.ndarray
    d_r: np.ndarray


def neutral_field_kernels(ms: ModeSet, grid: TimeGrid) -> NeutralFieldKernels:
    """Mode-sum kernels of a neutral field on the grid, built block by block.

    D_{mu mu'}(r, r', tau) = -i sum_k e^{-i w_k tau} A[k,mu,r] conj(A[k,mu',r']):
    each block of rows (``_each_block``) is one product of its (mu r mu' r', k)
    coefficients with the phases (``_phases``).  Once D is whole, each block
    is time-ordered into D_F and D_R.  Its backward contraction, block s of
    swap_reflect(D), is the reflection of the column view of D and is read
    through reversed views of it, so no swapped copy of D is made.
    """
    n_modes, labels, points = ms.amplitudes.shape
    phases = _phases(ms.frequencies, grid)                      # (n_modes, n)
    amp = ms.amplitudes.reshape(n_modes, labels * points)
    coef = np.einsum("ka,kc->ack", -1j * amp, np.conj(amp)).reshape(labels * points, -1, n_modes)
    d, d_f, d_r = (np.empty((labels, points, labels, points, grid.n), complex) for _ in range(3))
    rows, rows_f, rows_r = _label_blocks(d), _label_blocks(d_f), _label_blocks(d_r)

    _each_block(lambda a: np.matmul(coef[a], phases, out=rows[a]), d)
    _each_block(lambda a: _time_order_into(rows[a], rows[:, a], rows_f[a], rows_r[a]), d)
    return NeutralFieldKernels(grid=grid, d=d, d_f=d_f, d_r=d_r)


def neutral_identity_residuals(nk: NeutralFieldKernels) -> dict[str, float]:
    """``reconstruction_residuals`` of D and D_F of a neutral field, keyed d and d_f."""
    res = reconstruction_residuals(nk.d, nk.d_f, nk.d_r, names=("forward", "d_f"))
    return {"d": res["forward"], "d_f": res["d_f"]}


# -- charged bosonic fields ----------------------------------------------------

@dataclass(frozen=True)
class ChargedModeSet:
    """Particle (A) and antiparticle (B) mode frequencies and weights.

    Frequencies and weights are finite positive reals; the stored kernels
    carry the -i factor so that D^A and D^B come out anti-Hermitian, as the
    commutator structure of a conjugated field pair requires.
    """

    omegas_a: np.ndarray
    weights_a: np.ndarray
    omegas_b: np.ndarray
    weights_b: np.ndarray

    def __post_init__(self):
        for name in ("omegas_a", "weights_a", "omegas_b", "weights_b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array")
            if not np.all(np.isfinite(arr) & (arr > 0)):
                raise ValueError(f"{name} must be finite and strictly positive")
            object.__setattr__(self, name, arr)
        if self.omegas_a.shape != self.weights_a.shape:
            raise ValueError("particle frequencies and weights differ in length")
        if self.omegas_b.shape != self.weights_b.shape:
            raise ValueError("antiparticle frequencies and weights differ in length")


@dataclass(frozen=True)
class ChargedKernels:
    grid: TimeGrid
    d_a: Kernel
    d_b: Kernel
    d_f: Kernel
    d_r: Kernel


def charged_field_kernels(cms: ChargedModeSet, grid: TimeGrid) -> ChargedKernels:
    """Charged-field kernels: D^A, D^B, D_F and D_R, with phases from ``_phases``."""
    # an empty species sums to zeros
    d_a = -1j * _phases(cms.omegas_a, grid).T @ cms.weights_a
    d_b = -1j * _phases(cms.omegas_b, grid, sign=+1).T @ cms.weights_b
    d_f, d_r = time_order(d_a, d_b)
    return ChargedKernels(
        grid=grid,
        d_a=Kernel(grid, d_a),
        d_b=Kernel(grid, d_b),
        d_f=Kernel(grid, d_f),
        d_r=Kernel(grid, d_r),
    )


def charged_identity_residuals(ck: ChargedKernels) -> dict[str, float]:
    """``reconstruction_residuals`` of a charged field, with D^A and D^B keyed d_a and d_b."""
    res = reconstruction_residuals(ck.d_a.values, ck.d_f.values, ck.d_r.values,
                                   backward=ck.d_b.values)
    # d_f_dag stays a key for the benchmark's charged ops that read it; its
    # residual equals the D_F one bit for bit (``reconstruction_residuals``)
    return {"d_r_two_defs": res["d_r_two_defs"], "d_a": res["forward"],
            "d_b": res["backward"], "d_f": res["d_f"], "d_f_dag": res["d_f"]}
