"""Response algebra of the driven oscillator and free bosonic fields.

Grid spectral machinery, closed-form and mode-sum kernels, a truncated
number-basis oracle, contraction combinatorics, characteristic
functionals with the response substitution, driven dynamics, and the
verification suites tying them together.
"""

from .grids import (GridError, Kernel, SampledSignal, TimeGrid,
                    circular_convolve, frequency_split, kernel_adjoint,
                    make_grid, zero_nyquist_fraction)
from .kernels import (ChargedModeSet, CommensurabilityError, ModeSet,
                      OscillatorParams, charged_field_kernels,
                      commutator_kernel, contraction_from_retarded,
                      feynman_from_retarded, neutral_field_kernels,
                      osc_kernels, qp_commutator_kernel)
from .fock import (Factor, FockState, OrderedProductSpec, TruncationError,
                   heisenberg_p, heisenberg_q, ladder, make_state,
                   ordered_average, reality_check)
from .wick import WickTerm, enumerate_pairings, hori_expand, verify_wick
from .functionals import (CurrentPair, ProbeSet, gaussian_moments,
                          inverse_substitution, phi_cl, phi_full,
                          phi_vac_quadratic, phi_vac_response,
                          response_substitution, schwinger_map)
from .driven import (DriveScenario, classical_displacement, ode_oscillator,
                     sin_scenario, step_scenario,
                     verify_driven_factorization)
from .suites import Config, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ChargedModeSet", "CommensurabilityError", "Config", "CurrentPair",
    "DriveScenario", "Factor", "FockState", "GridError", "Kernel",
    "ModeSet", "OrderedProductSpec", "OscillatorParams", "ProbeSet",
    "SampledSignal", "SuiteReport", "TimeGrid", "TruncationError",
    "WickTerm", "charged_field_kernels", "circular_convolve",
    "classical_displacement", "commutator_kernel",
    "contraction_from_retarded", "enumerate_pairings",
    "feynman_from_retarded", "frequency_split", "gaussian_moments",
    "heisenberg_p", "heisenberg_q", "hori_expand", "inverse_substitution",
    "kernel_adjoint", "ladder", "make_grid", "make_state",
    "neutral_field_kernels", "ode_oscillator", "ordered_average",
    "osc_kernels", "phi_cl", "phi_full", "phi_vac_quadratic",
    "phi_vac_response", "qp_commutator_kernel", "reality_check",
    "response_substitution", "run_suite",
    "schwinger_map", "sin_scenario", "step_scenario", "verify_wick",
    "verify_driven_factorization", "zero_nyquist_fraction",
]
