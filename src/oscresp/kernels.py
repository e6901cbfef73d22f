"""Oscillator and free-field two-point kernels and their reconstruction rules.

The plain contraction D of the oscillator is sampled from its closed form
on a periodic grid; one time-ordering rule (``time_order``) turns it, and
the fields' forward and backward contractions, into D_F and D_R.  One
reconstruction rule (``reconstruct``) rebuilds every kernel of each family
from the two frequency halves of D_R alone, and ``reconstruction_residuals``
measures it; those are the identities the suites drive.

All grid kernels require the frequencies in play to sit exactly on DFT
bins (omega = 2*pi*k/(n*dt), 0 < k < n/2); the discrete identities are
then exact to rounding.  The oscillator builder's ``loose`` flag admits an
off-bin frequency for robustness exploration at degraded tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (Kernel, TimeGrid, _snap, adjoint, half_step, reflect_values,
                    split_values, swap_reflect)


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


def check_commensurate(omega: float, grid: TimeGrid, *, loose: bool = False) -> float:
    """Bin index omega*n*dt/(2*pi); must be an integer in (0, n/2) unless loose."""
    k = omega * grid.n * grid.dt / (2.0 * math.pi)
    if loose:
        return k
    ki = _snap(k)
    if ki is None or not 1 <= ki < grid.n // 2:
        raise CommensurabilityError(
            f"omega={omega} sits on bin {k:.6g} of the grid; an integer bin in "
            f"[1, {grid.n // 2}) is required")
    return float(ki)


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
    """
    theta = half_step(forward.shape[-1])
    return theta * forward + (1.0 - theta) * backward, theta * (forward - backward)


# -- the reconstruction rule -----------------------------------------------------

RECONSTRUCTED = ("d_r_two_defs", "forward", "backward", "d_f", "d_f_dag")


def reconstruct(d_r: np.ndarray) -> dict:
    """The kernels of a family rebuilt from one frequency split P, M of D_R.

    forward = P - P^dag, backward = M^dag - M, D_F = P + M^dag and
    D_F^dag = P^dag + M, with ^dag the ``adjoint``.  The rule holds for the
    oscillator and for neutral and charged fields alike: each forward
    contraction is frequency-positive, each backward one frequency-negative,
    and both are anti-Hermitian, so D_R - D_R^dag = forward - backward.
    Each entry builds its kernel only when it is called.
    """
    plus, minus = split_values(d_r)
    return {
        "forward": lambda: plus - adjoint(plus),
        "backward": lambda: adjoint(minus) - minus,
        "d_f": lambda: plus + adjoint(minus),
        "d_f_dag": lambda: adjoint(plus) + minus,
    }


def reconstruction_residuals(forward: np.ndarray, d_f: np.ndarray, d_r: np.ndarray, *,
                             backward=None, names=RECONSTRUCTED) -> dict[str, float]:
    """Max residual of each named kernel rebuilt from D_R against its definition.

    The definitions are the family's forward and backward contractions,
    D_F and D_R from ``time_order``, and D_F^dag = adjoint(D_F).  A neutral
    field, the oscillator included, passes no backward contraction: its
    backward one is swap_reflect(forward).  "d_r_two_defs" checks the second
    definition D_R = D_F^dag - forward^dag.  The kernels are built, compared
    and dropped one at a time, so a large family holds one rebuilt kernel at
    once.
    """
    rebuilt = {**reconstruct(d_r),
               "d_r_two_defs": lambda: adjoint(d_f) - adjoint(forward)}
    defined = {
        "forward": lambda: forward,
        "backward": lambda: swap_reflect(forward) if backward is None else backward,
        "d_f": lambda: d_f,
        "d_f_dag": lambda: adjoint(d_f),
        "d_r_two_defs": lambda: d_r,
    }
    return {name: float(np.max(np.abs(rebuilt[name]() - defined[name]()))) for name in names}


# -- oscillator kernels on a grid ---------------------------------------------

@dataclass(frozen=True)
class OscKernels:
    params: OscillatorParams
    grid: TimeGrid
    d_r: Kernel
    d: Kernel
    d_f: Kernel


def osc_kernels(p: OscillatorParams, grid: TimeGrid, *, loose: bool = False) -> OscKernels:
    """Sample D on the grid and time-order it into D_F and D_R."""
    check_commensurate(p.omega0, grid, loose=loose)
    d = osc_d_value(grid.lags(), p)
    d_f, d_r = time_order(d, swap_reflect(d))
    return OscKernels(
        params=p,
        grid=grid,
        d_r=Kernel(grid, d_r),
        d=Kernel(grid, d),
        d_f=Kernel(grid, d_f),
    )


def contraction_from_retarded(d_r: Kernel) -> Kernel:
    """The forward contraction D rebuilt from D_R by ``reconstruct``."""
    return Kernel(d_r.grid, reconstruct(d_r.values)["forward"]())


def feynman_from_retarded(d_r: Kernel) -> Kernel:
    """D_F rebuilt from D_R by ``reconstruct``."""
    return Kernel(d_r.grid, reconstruct(d_r.values)["d_f"]())


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
    reduces to the canonical i*hbar.
    """
    tau = grid.lags()
    return Kernel(grid, 1j * p.hbar * np.cos(p.omega0 * tau))


# -- neutral bosonic fields ----------------------------------------------------

@dataclass(frozen=True)
class ModeSet:
    """Positive-frequency modes of a neutral field over labels and points.

    frequencies: shape (n_modes,), all > 0.
    amplitudes:  complex, shape (n_modes, n_labels, n_points); entry
                 [k, mu, r] is the mode-k amplitude at label mu, point r.
    Mode normalisation is the caller's business; no condition is imposed.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if freq.ndim != 1 or np.any(freq <= 0):
            raise ValueError("mode frequencies must be a 1-d array of positives")
        if amp.ndim != 3 or amp.shape[0] != freq.shape[0]:
            raise ValueError("amplitudes must have shape (n_modes, n_labels, n_points)")
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
    """Mode-sum kernels of a neutral field on the grid."""
    for w in ms.frequencies:
        check_commensurate(float(w), grid)
    tau = grid.lags()
    phases = np.exp(-1j * np.outer(ms.frequencies, tau))  # (n_modes, n)
    # D_{mu mu'}(r, r', tau) = -i sum_k e^{-i w_k tau} A[k,mu,r] conj(A[k,mu',r'])
    d = -1j * np.einsum("kab,kcd,kt->abcdt", ms.amplitudes, np.conj(ms.amplitudes), phases)
    d_f, d_r = time_order(d, swap_reflect(d))
    return NeutralFieldKernels(grid=grid, d=d, d_f=d_f, d_r=d_r)


def neutral_identity_residuals(nk: NeutralFieldKernels) -> dict[str, float]:
    """``reconstruction_residuals`` of D and D_F of a neutral field, keyed d and d_f."""
    res = reconstruction_residuals(nk.d, nk.d_f, nk.d_r, names=("forward", "d_f"))
    return {"d": res["forward"], "d_f": res["d_f"]}


# -- charged bosonic fields ----------------------------------------------------

@dataclass(frozen=True)
class ChargedModeSet:
    """Particle (A) and antiparticle (B) mode frequencies and weights.

    Weights are positive reals; the stored kernels carry the -i factor so
    that D^A and D^B come out anti-Hermitian, as the commutator structure
    of a conjugated field pair requires.
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
            if np.any(arr <= 0):
                raise ValueError(f"{name} must be strictly positive")
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
    d_f_dag: Kernel
    d_r: Kernel


def charged_field_kernels(cms: ChargedModeSet, grid: TimeGrid) -> ChargedKernels:
    """Charged-field kernels: D^A, D^B, D_F, its adjoint, and D_R."""
    for w in np.concatenate([cms.omegas_a, cms.omegas_b]):
        check_commensurate(float(w), grid)
    tau = grid.lags()
    # an empty species sums to zeros
    d_a = -1j * np.exp(-1j * np.outer(cms.omegas_a, tau)).T @ cms.weights_a
    d_b = -1j * np.exp(+1j * np.outer(cms.omegas_b, tau)).T @ cms.weights_b
    d_f, d_r = time_order(d_a, d_b)
    d_f_dag = adjoint(d_f)
    return ChargedKernels(
        grid=grid,
        d_a=Kernel(grid, d_a),
        d_b=Kernel(grid, d_b),
        d_f=Kernel(grid, d_f),
        d_f_dag=Kernel(grid, d_f_dag),
        d_r=Kernel(grid, d_r),
    )


def charged_identity_residuals(ck: ChargedKernels) -> dict[str, float]:
    """``reconstruction_residuals`` of a charged field, with D^A and D^B keyed d_a and d_b."""
    res = reconstruction_residuals(ck.d_a.values, ck.d_f.values, ck.d_r.values,
                                   backward=ck.d_b.values)
    return {"d_r_two_defs": res["d_r_two_defs"], "d_a": res["forward"],
            "d_b": res["backward"], "d_f": res["d_f"], "d_f_dag": res["d_f_dag"]}
