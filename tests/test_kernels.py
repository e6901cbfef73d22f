import numpy as np
import pytest

from oscresp import fock
from oscresp.grids import (Kernel, frequency_split, half_step, kernel_adjoint,
                           make_grid, reflect_values)
from oscresp.kernels import (ChargedModeSet, CommensurabilityError, ModeSet,
                             OscillatorParams, charged_field_kernels,
                             charged_identity_residuals, commutator_kernel,
                             contraction_from_retarded,
                             feynman_conj_from_retarded, feynman_from_retarded,
                             neutral_field_kernels, neutral_identity_residuals,
                             osc_d_value, osc_df_value, osc_dr_value,
                             osc_kernels, qp_commutator_kernel,
                             retarded_from_contractions)
from oscresp.suites import _demo_charged_modes, _demo_mode_set

P = OscillatorParams()          # m = omega0 = hbar = 1


def reference_grid(n=256, bin_index=8):
    # omega0 = 1 sits exactly on the requested bin
    return make_grid(n, 2.0 * np.pi * bin_index / n)


def test_params_validation_and_scales():
    p = OscillatorParams(mass=2.0, omega0=3.0, hbar=0.5)
    assert p.q0 * p.p0 == pytest.approx(p.hbar, rel=1e-15)
    with pytest.raises(ValueError):
        OscillatorParams(mass=-1.0)


@pytest.mark.parametrize("field", ["mass", "omega0", "hbar"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError):
        OscillatorParams(**{field: value})


def test_closed_form_reference_values():
    assert osc_dr_value(np.pi / 2, P) == pytest.approx(-1.0, abs=1e-15)
    assert osc_d_value(0.0, P) == pytest.approx(-0.5j, abs=1e-15)
    assert osc_df_value(np.pi, P) == pytest.approx(+0.5j, abs=1e-15)
    # the step convention puts half the jump at zero; D_R(0) vanishes anyway
    assert osc_dr_value(0.0, P) == 0.0


def test_grid_kernels_match_closed_forms():
    g = reference_grid(64, 2)
    kers = osc_kernels(P, g)
    for tau in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        assert kers.d_r.value_at_tau(tau) == pytest.approx(osc_dr_value(tau, P), abs=1e-14)
        assert kers.d.value_at_tau(tau) == pytest.approx(osc_d_value(tau, P), abs=1e-14)
        assert kers.d_f.value_at_tau(tau) == pytest.approx(osc_df_value(tau, P), abs=1e-14)


def test_incommensurate_frequency_is_rejected_unless_loose():
    g = make_grid(64, 0.1)
    with pytest.raises(CommensurabilityError):
        osc_kernels(P, g)
    kers = osc_kernels(P, g, loose=True)
    assert kers.grid is g


def test_identity_chain_on_reference_grid():
    g = reference_grid()
    kers = osc_kernels(P, g)
    rebuilt_dr = retarded_from_contractions(kers.d_f, kers.d)
    assert np.max(np.abs(rebuilt_dr.values - kers.d_r.values)) < 1e-10

    lhs = kers.d_r.values - reflect_values(kers.d_r.values)
    rhs = kers.d.values - reflect_values(kers.d.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10

    assert np.max(np.abs(contraction_from_retarded(kers.d_r).values - kers.d.values)) < 1e-10
    assert np.max(np.abs(feynman_from_retarded(kers.d_r).values - kers.d_f.values)) < 1e-10
    assert np.max(np.abs(feynman_conj_from_retarded(kers.d_r).values
                         - np.conj(kers.d_f.values))) < 1e-10


def test_retarded_from_contractions_equals_stepped_difference():
    g = reference_grid(64, 3)
    kers = osc_kernels(P, g)
    theta = half_step(g.n)
    stepped = theta * (kers.d.values - reflect_values(kers.d.values))
    out = retarded_from_contractions(kers.d_f, kers.d)
    assert np.max(np.abs(out.values - stepped)) < 1e-14

    z = Kernel(g, np.zeros(g.n))
    assert np.max(np.abs(retarded_from_contractions(z, z).values)) == 0.0


def test_plain_contraction_is_frequency_positive_and_retarded_is_real():
    g = reference_grid()
    kers = osc_kernels(P, g)
    _, minus = frequency_split(kers.d)
    assert np.max(np.abs(minus.values)) < 1e-12
    assert np.max(np.abs(kers.d_r.values.imag)) < 1e-14
    plus, minus = frequency_split(kers.d_r)
    assert np.max(np.abs(np.conj(plus.values) - minus.values)) < 1e-13


def test_commutator_kernel_against_matrix_oracle():
    g = reference_grid(64, 2)
    kers = osc_kernels(P, g)
    comm = commutator_kernel(kers.d_r, P.hbar)
    dim = 20
    vac = fock.make_state("vacuum", dim)
    t = g.times()
    for i1, i2 in [(40, 32), (10, 50), (32, 32)]:
        q1 = fock.heisenberg_q(P, t[i1], dim)
        q2 = fock.heisenberg_q(P, t[i2], dim)
        oracle = fock.expectation(vac, q1 @ q2 - q2 @ q1)
        assert abs(comm.values[(i1 - i2 + g.n // 2) % g.n] - oracle) < 1e-12

    # tau = pi/2 evaluates to -i, equal time to 0 (for m = omega0 = hbar = 1)
    assert comm.value_at_tau(np.pi / 2) == pytest.approx(-1j, abs=1e-14)
    assert comm.value_at_tau(0.0) == 0.0


def test_qp_commutator_kernel_closed_form():
    g = reference_grid(64, 2)
    qp = qp_commutator_kernel(P, g)
    assert qp.value_at_tau(0.0) == pytest.approx(1j * P.hbar, abs=1e-15)
    assert np.max(np.abs(qp.values - 1j * np.cos(g.times()))) < 1e-14


# -- neutral fields ---------------------------------------------------------

def test_single_unit_mode_reduces_to_oscillator_contraction():
    g = reference_grid(64, 2)
    ms = ModeSet(frequencies=np.array([P.omega0]),
                 amplitudes=np.ones((1, 1, 1), dtype=complex))
    nk = neutral_field_kernels(ms, g)
    kers = osc_kernels(P, g)
    assert np.max(np.abs(nk.d[0, 0, 0, 0] / (2 * P.mass * P.omega0) - kers.d.values)) < 1e-14


def test_field_identities_on_three_modes():
    rng = np.random.default_rng(11)
    g = reference_grid(128, 4)
    nk = neutral_field_kernels(_demo_mode_set(g, rng), g)
    res = neutral_identity_residuals(nk)
    assert res["d"] < 1e-10
    assert res["d_f"] < 1e-10


def test_field_swap_reflection_gives_minus_conjugate():
    # [Q^(+), Q^(-)] structure forces K_{b a}(-tau) = -conj(K_{a b}(tau))
    rng = np.random.default_rng(12)
    g = reference_grid(128, 4)
    nk = neutral_field_kernels(_demo_mode_set(g, rng), g)
    for mu, r, mup, rp in [(0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 0)]:
        swapped = nk.kernel("d", mup, rp, mu, r).reflected()
        original = nk.kernel("d", mu, r, mup, rp)
        assert np.max(np.abs(swapped.values + np.conj(original.values))) < 1e-13


def test_field_rejects_incommensurate_or_invalid_modes():
    g = make_grid(64, 0.1)
    ms = ModeSet(frequencies=np.array([1.0]), amplitudes=np.ones((1, 1, 1), dtype=complex))
    with pytest.raises(CommensurabilityError):
        neutral_field_kernels(ms, g)
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([-1.0]), amplitudes=np.ones((1, 1, 1), dtype=complex))
    with pytest.raises(ValueError):
        ModeSet(frequencies=np.array([1.0]), amplitudes=np.ones((2, 1, 1), dtype=complex))


# -- charged fields ----------------------------------------------------------

def test_charged_identities():
    g = reference_grid()
    ck = charged_field_kernels(_demo_charged_modes(g), g)
    res = charged_identity_residuals(ck)
    assert res["d_r_two_defs"] < 1e-12
    for key in ("d_a", "d_b", "d_f", "d_f_dag"):
        assert res[key] < 1e-10


def test_charged_anti_hermiticity_and_frequency_signs():
    g = reference_grid()
    ck = charged_field_kernels(_demo_charged_modes(g), g)
    assert np.max(np.abs(kernel_adjoint(ck.d_a).values + ck.d_a.values)) < 1e-14
    assert np.max(np.abs(kernel_adjoint(ck.d_b).values + ck.d_b.values)) < 1e-14
    _, da_minus = frequency_split(ck.d_a)
    db_plus, _ = frequency_split(ck.d_b)
    assert np.max(np.abs(da_minus.values)) < 1e-12
    assert np.max(np.abs(db_plus.values)) < 1e-12


def test_charged_single_species():
    g = reference_grid(64, 2)
    cms = ChargedModeSet(
        omegas_a=np.array([2.0 * np.pi * 9 / g.period]), weights_a=np.array([1.0]),
        omegas_b=np.array([], dtype=float), weights_b=np.array([], dtype=float))
    ck = charged_field_kernels(cms, g)
    assert np.max(np.abs(ck.d_b.values)) == 0.0
    theta = half_step(g.n)
    assert np.max(np.abs(ck.d_r.values - theta * ck.d_a.values)) < 1e-15


def test_charged_symmetric_set_antisymmetry():
    # equal particle/antiparticle content: D_R - adjoint(D_R) is the full
    # contraction difference, pointwise
    g = reference_grid(64, 2)
    scale = 2.0 * np.pi / g.period
    cms = ChargedModeSet(
        omegas_a=np.array([5, 9]) * scale, weights_a=np.array([0.8, 0.3]),
        omegas_b=np.array([5, 9]) * scale, weights_b=np.array([0.8, 0.3]))
    ck = charged_field_kernels(cms, g)
    lhs = ck.d_r.values - kernel_adjoint(ck.d_r).values
    rhs = ck.d_a.values - ck.d_b.values
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_charged_rejects_bad_weights():
    with pytest.raises(ValueError):
        ChargedModeSet(omegas_a=np.array([1.0]), weights_a=np.array([0.0]),
                       omegas_b=np.array([]), weights_b=np.array([]))
    with pytest.raises(ValueError):
        ChargedModeSet(omegas_a=np.array([-1.0]), weights_a=np.array([1.0]),
                       omegas_b=np.array([]), weights_b=np.array([]))


def test_loose_mode_tracks_small_commensurability_jitter():
    # a 1e-5 fractional detuning off the bin keeps the reconstruction chain
    # inside the exploration tolerance; gross off-bin content does not
    n, bin_index = 256, 4
    dt = 2.0 * np.pi * bin_index / n
    g = make_grid(n, dt * (1.0 + 1e-5))
    kers = osc_kernels(P, g, loose=True)
    res = np.max(np.abs(contraction_from_retarded(kers.d_r).values - kers.d.values))
    assert res < 1e-3

    g_far = make_grid(n, 0.1)                    # far off every bin
    kers_far = osc_kernels(P, g_far, loose=True)
    res_far = np.max(np.abs(contraction_from_retarded(kers_far.d_r).values
                            - kers_far.d.values))
    assert 1e-3 < res_far < 1.0                  # degraded but bounded
