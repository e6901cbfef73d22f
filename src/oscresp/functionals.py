"""Characteristic functionals, the response substitution, and moment checks.

The vacuum functional of the two probe functions is an exponential of a
quadratic form of contraction kernels; rewritten through the substitution
(eta+, eta-) -> (eta, sigma) it collapses to the emission form
exp[sum eta D_R sigma], i.e. a classical source radiating through the
retarded kernel.  ``phi_cl`` is that one emission form: with the source
sigma it is the vacuum functional, with a drive current the classical-drive
factor, and forward/backward currents j+- enter ``response_substitution``
as eta+- = j+-/hbar.  This module also evaluates the quadratic vacuum form
and the initial-state factor, and predicts the ordered moments of every
ordering through the pairing formula (``predicted_moment``);
``moment_residual`` is the one place where the Fock oracle meets that
prediction.

Probes are grid signals; functional derivatives are represented as
polynomial coefficients in the weights of grid spikes and evaluated
analytically, never by numerical functional differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fock
from .grids import (Kernel, SampledSignal, _require_same_grid, circular_convolve,
                    frequency_split, kernel_adjoint, zero_nyquist_fraction)
from .kernels import ChargedKernels, OscKernels, OscillatorParams, reconstruct
from .wick import _pairing_sum, pair_table


class FunctionalError(ValueError):
    """Invalid functional evaluation request."""


# -- response substitution ------------------------------------------------------

def response_substitution(eta_plus: SampledSignal, eta_minus: SampledSignal,
                          hbar: float):
    """(eta+, eta-) -> (eta, sigma).

    eta = -i (eta+ - eta-); sigma = hbar [eta+^(+) + eta-^(-)].  Forward and
    backward drive currents enter as eta+- = j+-/hbar; sigma is then the
    normal-ordered physical current j+^(+) + j-^(-).
    """
    eta = -1j * (eta_plus - eta_minus)
    plus_part, _ = frequency_split(eta_plus)
    _, minus_part = frequency_split(eta_minus)
    sigma = hbar * (plus_part + minus_part)
    return eta, sigma


def inverse_substitution(eta: SampledSignal, sigma: SampledSignal, hbar: float):
    """(eta, sigma) -> (eta+, eta-): eta+ = i eta^(-) + sigma/hbar, eta- = -i eta^(+) + sigma/hbar."""
    plus_part, minus_part = frequency_split(eta)
    eta_plus = 1j * minus_part + (1.0 / hbar) * sigma
    eta_minus = -1j * plus_part + (1.0 / hbar) * sigma
    return eta_plus, eta_minus


@dataclass(frozen=True)
class ProbeSet:
    """A probe pair and its response-substitution images, computed once."""

    eta_plus: SampledSignal
    eta_minus: SampledSignal
    hbar: float = 1.0

    def __post_init__(self):
        if self.eta_plus.grid != self.eta_minus.grid:
            raise FunctionalError("probe pair lives on different grids")

    @property
    def grid(self):
        return self.eta_plus.grid

    @cached_property
    def _substitution(self):
        return response_substitution(self.eta_plus, self.eta_minus, self.hbar)

    @property
    def eta(self) -> SampledSignal:
        return self._substitution[0]

    @property
    def sigma(self) -> SampledSignal:
        return self._substitution[1]

    def edge_bin_fraction(self) -> float:
        """Worst zero/Nyquist energy fraction of the pair (flag if > 1e-10)."""
        return max(zero_nyquist_fraction(self.eta_plus),
                   zero_nyquist_fraction(self.eta_minus))


# -- quadratic forms and the vacuum functional -----------------------------------

def quad_form(f: SampledSignal, k: Kernel, g: SampledSignal) -> complex:
    """dt^2 * sum_{t,t'} f(t) k(t - t') g(t'); f, k and g must share one grid."""
    _require_same_grid(f, k)
    conv = circular_convolve(k, g)
    return complex(f.grid.dt * np.sum(f.values * conv.values))


def log_phi_vac_quadratic(ps: ProbeSet, kers: OscKernels) -> complex:
    """log of the vacuum functional as a quadratic form of contractions."""
    hbar = ps.hbar
    d_f_conj = kers.d_f.conj()
    return 1j * hbar * (
        -0.5 * quad_form(ps.eta_plus, kers.d_f, ps.eta_plus)
        + 0.5 * quad_form(ps.eta_minus, d_f_conj, ps.eta_minus)
        + quad_form(ps.eta_minus, kers.d, ps.eta_plus)
    )


def phi_vac_quadratic(ps: ProbeSet, kers: OscKernels) -> complex:
    return complex(np.exp(log_phi_vac_quadratic(ps, kers)))


def phi_cl(eta: SampledSignal, current: SampledSignal, d_r: Kernel) -> complex:
    """Emission factor exp[dt^2 sum eta(t) D_R(t - t') current(t')].

    The source radiates through the plain dt-weighted periodic convolution
    with D_R, so the identity holds exactly in the discrete algebra.
    """
    return complex(np.exp(quad_form(eta, d_r, current)))


def phi_vac_response(ps: ProbeSet, d_r: Kernel) -> complex:
    """The vacuum functional in emission form: sigma radiating through D_R."""
    return phi_cl(ps.eta, ps.sigma, d_r)


# -- initial-state functional -----------------------------------------------------

def coherent_mean(alpha: complex, p: OscillatorParams) -> Callable[[float], complex]:
    """Mean position path of a coherent state."""

    def mean(t: float) -> complex:
        c, d = fock.ladder_parts("q", t, p)
        return c * alpha + d * np.conj(alpha)

    return mean


def _eta_ladder_coefficients(eta: SampledSignal, p: OscillatorParams):
    """(c, d) with dt*sum eta(t) q(t) = c*a + d*adag as operator coefficients."""
    c, d = fock.ladder_parts("q", eta.grid.times(), p)
    dt = eta.grid.dt
    return complex(dt * np.sum(eta.values * c)), complex(dt * np.sum(eta.values * d))


def phi_in_state(state: fock.FockState, eta: SampledSignal, p: OscillatorParams) -> complex:
    """Normally ordered exponential average Tr[e^{c a} rho e^{d adag}].

    Exact for any state inside the truncated basis: only lowering
    operators act on the support of rho.
    """
    c, d = _eta_ladder_coefficients(eta, p)
    return complex(np.sum((fock._ladder_exp(c, state.dim) @ state.rho)
                          * fock._ladder_exp(d, state.dim)))


# -- full functional ---------------------------------------------------------------

@dataclass(frozen=True)
class PhiFull:
    """The full functional in its two equivalent arrangements."""

    factored: complex        # Phi_vac * Phi_in * Phi_cl(eta; j)
    response_form: complex   # Phi_cl(eta; j + sigma) * Phi_in(eta)


def phi_full(ps: ProbeSet, current: SampledSignal, kers: OscKernels,
             state: fock.FockState) -> PhiFull:
    eta = ps.eta
    in_factor = phi_in_state(state, eta, kers.params)
    factored = (
        phi_vac_quadratic(ps, kers)
        * in_factor
        * phi_cl(eta, current, kers.d_r)
    )
    driven = current + ps.sigma
    response_form = phi_cl(eta, driven, kers.d_r) * in_factor
    return PhiFull(factored=complex(factored), response_form=complex(response_form))


# -- moment extraction --------------------------------------------------------------

def gaussian_moments(quad: np.ndarray, lin: np.ndarray) -> complex:
    """Full mixed derivative of exp(w.quad.w/2 + lin.w) at w = 0.

    quad must be symmetric; the result is the sum over all partial
    pairings of the indices of products of quad entries for the pairs and
    lin entries for the singletons (``wick._pairing_sum``).
    """
    quad = np.asarray(quad, dtype=complex)
    lin = np.asarray(lin, dtype=complex)
    m = lin.shape[0]
    if m > fock.MAX_FACTORS:
        raise FunctionalError(f"moment order {m} exceeds {fock.MAX_FACTORS}")
    if quad.shape != (m, m):
        raise FunctionalError("quadratic kernel shape does not match the linear part")
    subsets = [1.0 + 0.0j]          # entry b: the product of lin over the bits of b
    for value in lin.tolist():
        subsets += [product * value for product in subsets]
    return _pairing_sum(quad.tolist(), subsets)


Mean = Optional[Callable[[float], complex]]


def _mean_at(mean: Mean, t: float) -> complex:
    return complex(mean(t)) if mean is not None else 0.0j


def predicted_moment(spec: fock.OrderedProductSpec, p: OscillatorParams,
                     mean: Mean = None) -> complex:
    """Ordered moment of q factors predicted by the exponential functional.

    The pairing sum (``gaussian_moments``) of the ordering's pair values
    (``wick.pair_table``; normal ordering pairs to zero).  The linear part
    at each time is the c-number mean path (initial-state mean) plus the
    spec's shift.
    """
    factors = spec.factors
    if any(f.observable != "q" for f in factors):
        raise FunctionalError("moment predictions cover q factors only")
    lin = np.array([_mean_at(mean, f.time) + fock._shift_value(spec.shift, f.time)
                    for f in factors], dtype=complex)
    return gaussian_moments(pair_table(spec.ordering, factors, p), lin)


def moment_residual(state: fock.FockState, spec: fock.OrderedProductSpec,
                    p: OscillatorParams, mean: Mean = None) -> float:
    """|Fock-oracle average - functional prediction| of an ordered q product."""
    predicted = predicted_moment(spec, p, mean)
    return abs(fock.ordered_average(state, spec, p) - predicted)


def predicted_double_time_moment(factors, p: OscillatorParams, mean: Mean = None) -> complex:
    """``predicted_moment`` of branch-ordered (branch, time) factors."""
    return predicted_moment(fock.OrderedProductSpec(
        tuple(("q", t, branch) for branch, t in factors), "double_time"), p, mean)


def predicted_weyl_moment(times, p: OscillatorParams, mean: Mean = None) -> complex:
    """``predicted_moment`` of the symmetrically ordered product at these times."""
    return predicted_moment(fock.OrderedProductSpec(
        tuple(("q", t, None) for t in times), "weyl"), p, mean)


def predicted_normal_moment(times, mean: Mean = None) -> complex:
    """Normally ordered moment of the shifted operators: a bare product."""
    out = 1.0 + 0.0j
    for t in times:
        out *= _mean_at(mean, t)
    return out


# -- symmetric-ordering kernel identity ------------------------------------------------

def weyl_kernel_identity_residual(eta: SampledSignal, d: Kernel, d_r: Kernel) -> float:
    """Residual of rewriting the Gaussian factor through the retarded kernel.

    Three forms of the same quadratic functional of eta must agree: the
    retarded kernel acting on the split difference of eta, the plain
    contraction rebuilt from the retarded kernel (``kernels.reconstruct``),
    and the plain contraction.
    """
    eta_p, eta_m = frequency_split(eta)
    form_a = quad_form(eta, d_r, eta_p - eta_m)
    form_b = quad_form(eta, Kernel(d_r.grid, reconstruct(d_r.values, "forward")), eta)
    form_c = quad_form(eta, d, eta)
    return max(abs(form_a - form_b), abs(form_b - form_c), abs(form_a - form_c))


# -- charged-field substitution ---------------------------------------------------------

def charged_substitution_residual(bar_probes: ProbeSet, probes: ProbeSet,
                                  ck: ChargedKernels) -> float:
    """Residual of the four-block quadratic form against its emission form.

    The four contraction blocks, weighted by the two independent probe
    pairs of a charged field, must collapse to two retarded-kernel terms
    under the doubled substitution.
    """
    if bar_probes.hbar != probes.hbar:
        raise FunctionalError("probe pairs carry different hbar")
    hbar = probes.hbar
    lhs = 1j * hbar * (
        -quad_form(bar_probes.eta_plus, ck.d_f, probes.eta_plus)
        + quad_form(bar_probes.eta_minus, kernel_adjoint(ck.d_f), probes.eta_minus)
        + quad_form(bar_probes.eta_minus, ck.d_a, probes.eta_plus)
        + quad_form(bar_probes.eta_plus, ck.d_b, probes.eta_minus)
    )
    rhs = (
        quad_form(bar_probes.eta, ck.d_r, probes.sigma)
        + quad_form(probes.eta, ck.d_r.conj(), bar_probes.sigma)
    )
    return abs(lhs - rhs)
