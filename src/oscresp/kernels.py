"""Oscillator and free-field two-point kernels and their reconstruction rules.

The plain contraction D of the oscillator is sampled from its closed form
on a periodic grid; one time-ordering rule (``time_order``) turns it, and
the fields' forward and backward contractions, into D_F and D_R.  Every
kernel can then be rebuilt from D_R alone by keeping half of its frequency
spectrum; those reconstruction rules are the identities the suites drive.

All grid kernels require the frequencies in play to sit exactly on DFT
bins (omega = 2*pi*k/(n*dt), 0 < k < n/2); the discrete identities are
then exact to rounding.  The oscillator builder's ``loose`` flag admits an
off-bin frequency for robustness exploration at degraded tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (Kernel, TimeGrid, _snap, frequency_split, half_step, kernel_adjoint,
                    reflect_values, split_values)


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
    d_f, d_r = time_order(d, reflect_values(d))
    return OscKernels(
        params=p,
        grid=grid,
        d_r=Kernel(grid, d_r),
        d=Kernel(grid, d),
        d_f=Kernel(grid, d_f),
    )


def retarded_from_contractions(d_f: Kernel, d: Kernel) -> Kernel:
    """D_R(tau) = D_F(tau) - D(-tau)."""
    if d_f.grid != d.grid:
        raise ValueError("kernels live on different grids")
    return Kernel(d_f.grid, d_f.values - reflect_values(d.values))


def contraction_from_retarded(d_r: Kernel) -> Kernel:
    """D(tau) = D_R^(+)(tau) - D_R^(-)(-tau): keep half the spectrum."""
    plus, minus = frequency_split(d_r)
    return Kernel(d_r.grid, plus.values - reflect_values(minus.values))


def feynman_from_retarded(d_r: Kernel) -> Kernel:
    """D_F(tau) = D_R^(+)(tau) + D_R^(+)(-tau)."""
    plus, _ = frequency_split(d_r)
    return Kernel(d_r.grid, plus.values + reflect_values(plus.values))


def feynman_conj_from_retarded(d_r: Kernel) -> Kernel:
    """conj(D_F)(tau) = D_R^(-)(tau) + D_R^(-)(-tau)."""
    _, minus = frequency_split(d_r)
    return Kernel(d_r.grid, minus.values + reflect_values(minus.values))


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

    def kernel(self, kind: str, mu: int, r: int, mu_p: int, r_p: int) -> Kernel:
        return Kernel(self.grid, getattr(self, kind)[mu, r, mu_p, r_p])


def swap_reflect(family: np.ndarray) -> np.ndarray:
    """K_{mu' r', mu r}(-tau) from K_{mu r, mu' r'}(tau)."""
    return reflect_values(np.transpose(family, (2, 3, 0, 1, 4)))


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
    """Max residual of the D-from-D_R and D_F-from-D_R reconstructions."""
    dr_plus, dr_minus = split_values(nk.d_r)
    d_rebuilt = dr_plus - swap_reflect(dr_minus)
    df_rebuilt = dr_plus + swap_reflect(dr_plus)
    return {
        "d": float(np.max(np.abs(d_rebuilt - nk.d))),
        "d_f": float(np.max(np.abs(df_rebuilt - nk.d_f))),
    }


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
    d_f_dag = np.conj(reflect_values(d_f))
    return ChargedKernels(
        grid=grid,
        d_a=Kernel(grid, d_a),
        d_b=Kernel(grid, d_b),
        d_f=Kernel(grid, d_f),
        d_f_dag=Kernel(grid, d_f_dag),
        d_r=Kernel(grid, d_r),
    )


def charged_identity_residuals(ck: ChargedKernels) -> dict[str, float]:
    """Residuals of the charged-field kernel reconstructions.

    Checks the two equivalent definitions of D_R, the recovery of D^A and
    D^B from the frequency halves of D_R and of its adjoint, and the two
    rebuilt time-ordered kernels.
    """
    d_r_alt = Kernel(ck.grid, ck.d_f_dag.values - kernel_adjoint(ck.d_a).values)
    dr_p, dr_m = frequency_split(ck.d_r)
    d_r_dag = kernel_adjoint(ck.d_r)
    drd_p, drd_m = frequency_split(d_r_dag)
    return {
        "d_r_two_defs": float(np.max(np.abs(ck.d_r.values - d_r_alt.values))),
        "d_a": float(np.max(np.abs(dr_p.values - drd_p.values - ck.d_a.values))),
        "d_b": float(np.max(np.abs(drd_m.values - dr_m.values - ck.d_b.values))),
        "d_f": float(np.max(np.abs(dr_p.values + drd_m.values - ck.d_f.values))),
        "d_f_dag": float(np.max(np.abs(drd_p.values + dr_m.values - ck.d_f_dag.values))),
    }
