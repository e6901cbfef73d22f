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
``moment_residuals`` is the one place where the Fock oracle meets that
prediction.

Probes are grid signals; functional derivatives are represented as
polynomial coefficients in the weights of grid spikes and evaluated
analytically, never by numerical functional differentiation.

A probe may be a stack of signals (``grids``): the substitution, the
quadratic forms, the vacuum and emission forms and the charged residual
then return one value per stacked signal, a Python scalar for a single
signal.  Each quadratic form of a stack has the bits of its single-signal
form; what is computed from the forms may differ from single-signal calls
by rounding.  The initial-state factor, the full functional and the Weyl
kernel residual read one signal and refuse a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fock
from .grids import (Kernel, SampledSignal, _per_signal, _require_broadcast, _require_same_grid,
                    _require_single, frequency_split, zero_nyquist_fraction)
from .kernels import ChargedKernels, OscKernels, OscillatorParams, contraction_from_retarded
from .wick import _pairing_sum, pair_table


class FunctionalError(ValueError):
    """Invalid functional evaluation request."""


# -- response substitution ------------------------------------------------------

def _check_hbar(hbar) -> None:
    if not (math.isfinite(hbar) and hbar > 0):
        raise FunctionalError(f"hbar must be finite and positive, got {hbar!r}")


def response_substitution(eta_plus: SampledSignal, eta_minus: SampledSignal,
                          hbar: float):
    """(eta+, eta-) -> (eta, sigma).

    eta = -i (eta+ - eta-); sigma = hbar [eta+^(+) + eta-^(-)].  Forward and
    backward drive currents enter as eta+- = j+-/hbar; sigma is then the
    normal-ordered physical current j+^(+) + j-^(-).
    """
    _check_hbar(hbar)
    eta = -1j * (eta_plus - eta_minus)
    plus_part, _ = frequency_split(eta_plus)
    _, minus_part = frequency_split(eta_minus)
    sigma = hbar * (plus_part + minus_part)
    return eta, sigma


def inverse_substitution(eta: SampledSignal, sigma: SampledSignal, hbar: float):
    """(eta, sigma) -> (eta+, eta-): eta+ = i eta^(-) + sigma/hbar, eta- = -i eta^(+) + sigma/hbar."""
    _check_hbar(hbar)
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
        if self.eta_plus.stack_shape != self.eta_minus.stack_shape:
            raise FunctionalError(f"probe stacks of shapes {self.eta_plus.stack_shape} and "
                                  f"{self.eta_minus.stack_shape} differ")
        _check_hbar(self.hbar)

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

    def edge_bin_fraction(self):
        """Worst zero/Nyquist energy fraction of each stacked pair (flag if > 1e-10)."""
        return _per_signal(np.maximum(zero_nyquist_fraction(self.eta_plus),
                                      zero_nyquist_fraction(self.eta_minus)))


# -- quadratic forms and the vacuum functional -----------------------------------

def quad_form(f: SampledSignal, k: Kernel, g: SampledSignal):
    """dt^2 * sum_{t,t'} f(t) k(t - t') g(t') of each stacked pair (f, g); one grid for all.

    Summed over bins by Parseval, dt^2/n * sum_k F[-k] K0[k] G[k], with F
    and G the spectra of f and g and K0 the zero-based spectrum of k, so
    no inverse transform is made.  The stacks of f and g broadcast; each
    form is one ``np.dot`` over the reversed spectrum of its row, so every
    row has the bits of its single-signal form.
    """
    _require_same_grid(f, k)
    _require_same_grid(k, g)
    n, dt = f.grid.n, f.grid.dt
    f_spec, kg = f._spectrum, k._zero_based_spectrum * g._spectrum
    if f_spec.shape != kg.shape:
        _require_broadcast(f, g)
        f_spec, kg = np.broadcast_arrays(f_spec, kg)
    f_rows, kg_rows = f_spec.reshape(-1, n), kg.reshape(-1, n)
    forms = np.empty(kg.shape[:-1], dtype=complex)
    for i in range(len(kg_rows)):
        forms.flat[i] = dt * dt / n * (f_rows[i, 0] * kg_rows[i, 0]
                                      + np.dot(f_rows[i, :0:-1], kg_rows[i, 1:]))
    return _per_signal(forms)


def log_phi_vac_quadratic(ps: ProbeSet, kers: OscKernels):
    """log of the vacuum functional as a quadratic form of contractions, per stacked pair."""
    forward = quad_form(ps.eta_plus, kers.d_f, ps.eta_plus)
    # the form of conj(d_f) is the conjugate of a form of d_f, whose spectrum
    # is made anyway, so no conjugate kernel is made and transformed
    eta_minus_bar = ps.eta_minus.conj()
    backward = quad_form(eta_minus_bar, kers.d_f, eta_minus_bar).conjugate()
    return 1j * ps.hbar * (-0.5 * forward + 0.5 * backward
                           + quad_form(ps.eta_minus, kers.d, ps.eta_plus))


def phi_vac_quadratic(ps: ProbeSet, kers: OscKernels):
    return _per_signal(np.exp(log_phi_vac_quadratic(ps, kers)))


def phi_cl(eta: SampledSignal, current: SampledSignal, d_r: Kernel):
    """Emission factor exp[dt^2 sum eta(t) D_R(t - t') current(t')], per stacked pair.

    The source radiates through the plain dt-weighted periodic convolution
    with D_R, so the identity holds exactly in the discrete algebra.
    """
    return _per_signal(np.exp(quad_form(eta, d_r, current)))


def phi_vac_response(ps: ProbeSet, d_r: Kernel):
    """The vacuum functional in emission form: sigma radiating through D_R, per stacked pair."""
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
    operators act on the support of rho.  eta is one signal; a stack is
    refused.
    """
    _require_single(eta, "phi_in_state", FunctionalError)
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
    """Both arrangements of the full functional of one probe pair and current; no stacks."""
    _require_single(ps.eta_plus, "phi_full", FunctionalError)
    _require_single(current, "phi_full", FunctionalError)
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
    lin = np.array([fock._shift_value(mean, f.time, "mean path")
                    + fock._shift_value(spec.shift, f.time) for f in factors], dtype=complex)
    return gaussian_moments(pair_table(spec.ordering, factors, p), lin)


def moment_residuals(state: fock.FockState, specs, p: OscillatorParams,
                     mean: Mean = None) -> np.ndarray:
    """|Fock-oracle average - functional prediction| of each ordered q product, in order.

    The averages in the one state come from one ``fock.ordered_averages``
    call; every prediction is made first, so a spec with a p factor is
    refused before the oracle runs.
    """
    specs = list(specs)
    predicted = [predicted_moment(spec, p, mean) for spec in specs]
    averages = fock.ordered_averages(state, specs, p).tolist()
    return np.array([abs(a - b) for a, b in zip(averages, predicted)], dtype=float)


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
        out *= fock._shift_value(mean, t, "mean path")
    return out


# -- symmetric-ordering kernel identity ------------------------------------------------

def weyl_kernel_identity_residual(eta: SampledSignal, d: Kernel, d_r: Kernel) -> float:
    """Residual of rewriting the Gaussian factor through the retarded kernel.

    Three forms of the same quadratic functional of eta must agree: the
    retarded kernel acting on the split difference of eta, the plain
    contraction rebuilt from the retarded kernel (``contraction_from_retarded``),
    and the plain contraction.  eta is one signal; a stack is refused.
    """
    _require_single(eta, "weyl_kernel_identity_residual", FunctionalError)
    eta_p, eta_m = frequency_split(eta)
    form_a = quad_form(eta, d_r, eta_p - eta_m)
    form_b = quad_form(eta, contraction_from_retarded(d_r), eta)
    form_c = quad_form(eta, d, eta)
    return max(abs(form_a - form_b), abs(form_b - form_c), abs(form_a - form_c))


# -- charged-field substitution ---------------------------------------------------------

def charged_substitution_residual(bar_probes: ProbeSet, probes: ProbeSet,
                                  ck: ChargedKernels):
    """Residual of the four-block quadratic form against its emission form, per stacked pair.

    The four contraction blocks, weighted by the two independent probe
    pairs of a charged field, must collapse to two retarded-kernel terms
    under the doubled substitution.
    """
    if bar_probes.hbar != probes.hbar:
        raise FunctionalError("probe pairs carry different hbar")
    hbar = probes.hbar
    # the forms of adjoint(d_f) and conj(d_r) are conjugates of forms of d_f
    # and d_r, whose spectra are made anyway, so no kernel is made and transformed
    lhs = 1j * hbar * (
        -quad_form(bar_probes.eta_plus, ck.d_f, probes.eta_plus)
        + quad_form(probes.eta_minus.conj(), ck.d_f, bar_probes.eta_minus.conj()).conjugate()
        + quad_form(bar_probes.eta_minus, ck.d_a, probes.eta_plus)
        + quad_form(bar_probes.eta_plus, ck.d_b, probes.eta_minus)
    )
    rhs = (
        quad_form(bar_probes.eta, ck.d_r, probes.sigma)
        + quad_form(probes.eta.conj(), ck.d_r, bar_probes.sigma.conj()).conjugate()
    )
    return abs(lhs - rhs)
