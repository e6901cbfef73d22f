import itertools

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_laguerre

from oscresp import fock, functionals
from oscresp.functionals import (FunctionalError, ProbeSet,
                                 _eta_ladder_coefficients,
                                 charged_substitution_residual, coherent_mean,
                                 gaussian_moments, inverse_substitution,
                                 log_phi_vac_quadratic, moment_residuals, phi_cl,
                                 phi_full, phi_in_state, phi_vac_quadratic,
                                 phi_vac_response, predicted_double_time_moment,
                                 predicted_moment, predicted_normal_moment,
                                 predicted_weyl_moment, quad_form,
                                 response_substitution,
                                 weyl_kernel_identity_residual)
from oscresp.grids import GridError, SampledSignal, _unstack, make_grid, without_zero_nyquist
from oscresp.kernels import (OscillatorParams, charged_field_kernels,
                             ChargedModeSet, osc_df_value, osc_dr_value,
                             osc_kernels)
from oscresp.suites import Config, _random_signals, run_suite

P = OscillatorParams()


def reference_grid(n=64, bin_index=2):
    return make_grid(n, 2.0 * np.pi * bin_index / n)


def random_signal(grid, rng, scale=0.2, clean=True):
    s = SampledSignal(grid, scale * (rng.standard_normal(grid.n)
                                     + 1j * rng.standard_normal(grid.n)))
    return without_zero_nyquist(s) if clean else s


def spike(grid, t, weight):
    values = np.zeros(grid.n, dtype=complex)
    values[grid.index_of(t)] = weight
    return SampledSignal(grid, values)


# -- substitution -------------------------------------------------------------

@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_probe_sets_refuse_an_hbar_that_is_not_finite_and_positive(hbar):
    probe = random_signal(reference_grid(), np.random.default_rng(3))
    with pytest.raises(FunctionalError, match="hbar"):
        ProbeSet(probe, probe, hbar=hbar)


@pytest.mark.parametrize("substitution", [response_substitution, inverse_substitution])
@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
def test_substitutions_refuse_an_hbar_that_is_not_finite_and_positive(substitution, hbar):
    probe = random_signal(reference_grid(), np.random.default_rng(3))
    with pytest.raises(FunctionalError, match="hbar"):
        substitution(probe, probe, hbar)


def test_equal_probes_give_zero_eta_and_sigma_hbar_f():
    rng = np.random.default_rng(0)
    g = reference_grid()
    f = random_signal(g, rng, clean=True)
    hbar = 0.7
    eta, sigma = response_substitution(f, f, hbar)
    assert np.max(np.abs(eta.values)) < 1e-15
    assert np.max(np.abs(sigma.values - hbar * f.values)) < 1e-13


def test_conjugate_probe_pair_makes_eta_sigma_real():
    rng = np.random.default_rng(1)
    g = reference_grid()
    ep = random_signal(g, rng, clean=False)
    eta, sigma = response_substitution(ep, ep.conj(), P.hbar)
    assert np.max(np.abs(eta.values.imag)) < 1e-12
    assert np.max(np.abs(sigma.values.imag)) < 1e-12


def test_substitution_round_trip_both_ways():
    rng = np.random.default_rng(2)
    g = make_grid(64, 0.17)
    for _ in range(5):
        ep = random_signal(g, rng, clean=False)
        em = random_signal(g, rng, clean=False)
        eta, sigma = response_substitution(ep, em, P.hbar)
        ep2, em2 = inverse_substitution(eta, sigma, P.hbar)
        assert np.max(np.abs(ep2.values - ep.values)) < 1e-13
        assert np.max(np.abs(em2.values - em.values)) < 1e-13

        eta0 = random_signal(g, rng, clean=False)
        sig0 = random_signal(g, rng, clean=False)
        ep3, em3 = inverse_substitution(eta0, sig0, P.hbar)
        eta3, sig3 = response_substitution(ep3, em3, P.hbar)
        assert np.max(np.abs(eta3.values - eta0.values)) < 1e-13
        assert np.max(np.abs(sig3.values - sig0.values)) < 1e-13


# -- vacuum functional ---------------------------------------------------------

def test_phi_vac_trivial_and_spike_values():
    g = reference_grid()
    zero = SampledSignal(g, np.zeros(g.n))
    kers = osc_kernels(P, g)
    ps = ProbeSet(zero, zero, hbar=P.hbar)
    assert phi_vac_quadratic(ps, kers) == pytest.approx(1.0)
    assert phi_vac_response(ps, kers.d_r) == pytest.approx(1.0)

    w = 0.4
    ps = ProbeSet(spike(g, 0.0, w), zero, hbar=P.hbar)
    expected = -1j * P.hbar * w ** 2 * g.dt ** 2 * osc_df_value(0.0, P) / 2.0
    assert log_phi_vac_quadratic(ps, kers) == pytest.approx(expected, abs=1e-15)


def test_phi_vac_response_spike_values():
    g = reference_grid()
    kers = osc_kernels(P, g)
    t0, t1 = 0.0, 5 * g.dt
    eta = spike(g, t1, 0.3)
    sigma = spike(g, t0, 0.7)
    log_phi = quad_form(eta, kers.d_r, sigma)
    expected = g.dt ** 2 * 0.3 * osc_dr_value(t1 - t0, P) * 0.7
    assert log_phi == pytest.approx(expected, abs=1e-15)

    # sigma = 0 forces the emission form to one
    ep, em = inverse_substitution(eta, SampledSignal(g, np.zeros(g.n)), P.hbar)
    ps = ProbeSet(ep, em, hbar=P.hbar)
    assert phi_vac_response(ps, kers.d_r) == pytest.approx(1.0, abs=1e-14)


def test_quadratic_form_equals_emission_form():
    rng = np.random.default_rng(3)
    g = reference_grid()
    kers = osc_kernels(P, g)
    worst_phi = worst_log = 0.0
    for _ in range(10):
        ps = ProbeSet(random_signal(g, rng, 0.15), random_signal(g, rng, 0.15),
                      hbar=P.hbar)
        assert ps.edge_bin_fraction() < 1e-10
        a, b = phi_vac_quadratic(ps, kers), phi_vac_response(ps, kers.d_r)
        worst_phi = max(worst_phi, abs(a - b) / abs(a))
        worst_log = max(worst_log, abs(log_phi_vac_quadratic(ps, kers)
                                       - quad_form(ps.eta, kers.d_r, ps.sigma)))
    assert worst_phi < 1e-10
    assert worst_log < 1e-12


def test_phi_vac_reality_with_conjugate_probes():
    rng = np.random.default_rng(4)
    g = reference_grid()
    kers = osc_kernels(P, g)
    ep = random_signal(g, rng, 0.2, clean=False)
    ps = ProbeSet(ep, ep.conj(), hbar=P.hbar)
    phi = phi_vac_quadratic(ps, kers)
    assert abs(phi.imag) < 1e-12 * abs(phi)


# -- classical factor ------------------------------------------------------------

def test_phi_cl_examples():
    g = reference_grid()
    kers = osc_kernels(P, g)
    zero = SampledSignal(g, np.zeros(g.n))
    eta = spike(g, 3 * g.dt, 0.5)
    assert phi_cl(eta, zero, kers.d_r) == pytest.approx(1.0)

    j = spike(g, 0.0, 1.0)
    # a spike current radiates a dt-scaled copy of the kernel
    log_phi = quad_form(eta, kers.d_r, j)
    expected = g.dt * 0.5 * (g.dt * osc_dr_value(3 * g.dt, P))
    assert log_phi == pytest.approx(expected, abs=1e-15)


def test_quadratic_forms_refuse_a_left_signal_on_another_grid():
    g = reference_grid(16, 2)
    kers = osc_kernels(P, g)
    current = spike(g, 0.0, 1.0)
    eta = SampledSignal(make_grid(16, 0.3), np.ones(16))
    with pytest.raises(GridError):
        phi_cl(eta, current, kers.d_r)
    with pytest.raises(GridError):
        quad_form(eta, kers.d_r, current)


def test_phi_cl_matches_displacement_oracle():
    from oscresp.driven import step_scenario
    rng = np.random.default_rng(5)
    g = reference_grid(128, 4)
    kers = osc_kernels(P, g)
    sc = step_scenario(P, g, 1.0)
    # FFT-free periodic sum q_j(t) = dt * sum_s D_R(t - s) j(s) over the samples
    k = np.arange(g.n)
    lag = (k[:, None] - k[None, :] + g.n // 2) % g.n
    q_j = g.dt * kers.d_r.values[lag] @ sc.current.values
    eta = random_signal(g, rng, 0.3)
    log_direct = g.dt * np.sum(eta.values * q_j)
    assert abs(quad_form(eta, kers.d_r, sc.current) - log_direct) < 1e-12


# -- initial-state factor ----------------------------------------------------------

def phi_in_matrix_oracle(state, eta, params):
    """<e^{d adag} e^{c a}> by matrix exponentials: exact in the truncation."""
    c, d = _eta_ladder_coefficients(eta, params)
    a, adag = fock.ladder(state.dim)
    op = expm(d * adag) @ expm(c * a)
    return fock.expectation(state, op)


def test_phi_in_vacuum_and_coherent():
    g = reference_grid()
    eta = spike(g, 0.0, 0.3)
    assert phi_in_state(fock.make_state("vacuum", 40), eta, P) == 1.0

    # weight w at t=0 and alpha=1 gives log Phi = w*dt*sqrt(2)
    w = 0.25
    coh = fock.make_state("coherent", 40, alpha=1.0)
    log_phi = np.log(phi_in_state(coh, spike(g, 0.0, w), P))
    assert log_phi == pytest.approx(w * g.dt * np.sqrt(2.0), abs=1e-14)

    # matrix oracle agreement for a complex alpha and a spread-out probe
    rng = np.random.default_rng(6)
    eta = random_signal(g, rng, 0.2)
    state = fock.make_state("coherent", 40, alpha=0.6 - 0.3j)
    oracle = phi_in_matrix_oracle(state, eta, P)
    assert abs(phi_in_state(state, eta, P) - oracle) < 1e-9


def test_phi_in_state_matches_closed_forms():
    # <:exp(c a + d adag):> at probe scale 0.5; n = 36 and 39 sit at the top
    # of the basis and stay exact, since only lowering operators act on them
    g = reference_grid()
    eta = random_signal(g, np.random.default_rng(9), 0.5)
    c, d = _eta_ladder_coefficients(eta, P)
    assert min(abs(c), abs(d)) > 0.3
    nbar, alpha = 0.4, 0.6 - 0.3j
    cases = [(fock.make_state("thermal", 40, nbar=nbar), np.exp(nbar * c * d)),
             (fock.make_state("coherent", 40, alpha=alpha),
              np.exp(c * alpha + d * np.conj(alpha)))]
    cases += [(fock.make_state("fock", 40, n=n), eval_laguerre(n, -c * d))
              for n in (0, 1, 5, 36, 39)]
    for state, exact in cases:
        assert abs(phi_in_state(state, eta, P) - exact) < 1e-12 * max(1.0, abs(exact))


# -- full functional ------------------------------------------------------------------

def test_phi_full_two_arrangements_agree():
    from oscresp.driven import step_scenario
    rng = np.random.default_rng(7)
    g = reference_grid(128, 4)
    kers = osc_kernels(P, g)
    sc = step_scenario(P, g, 1.0)
    vac = fock.make_state("vacuum", 40)
    for state in (vac, fock.make_state("coherent", 40, alpha=0.5)):
        ps = ProbeSet(random_signal(g, rng, 0.1), random_signal(g, rng, 0.1),
                      hbar=P.hbar)
        out = phi_full(ps, sc.current, kers, state)
        assert abs(out.factored - out.response_form) < 1e-10 * abs(out.factored)

    zero = SampledSignal(g, np.zeros(g.n))
    ps0 = ProbeSet(zero, zero, hbar=P.hbar)
    out = phi_full(ps0, zero, kers, vac)
    assert out.factored == pytest.approx(1.0)
    assert out.response_form == pytest.approx(1.0)


def test_predicted_moments_match_matrix_oracle():
    dim = 40
    vac = fock.make_state("vacuum", dim)
    t1, t2 = 0.9, -0.4
    predicted = predicted_double_time_moment([("plus", t1), ("plus", t2)], P)
    measured = fock.ordered_average(
        vac, fock.OrderedProductSpec(
            factors=(("q", t1, "plus"), ("q", t2, "plus")), ordering="double_time"), P)
    assert abs(predicted - measured) < 1e-13
    assert abs(predicted - 1j * P.hbar * osc_df_value(t1 - t2, P)) < 1e-14

    coh = fock.make_state("coherent", dim, alpha=0.5)
    mean = coherent_mean(0.5, P)
    for factors in [
        [("plus", t1)],
        [("minus", t1), ("plus", t2)],
        [("minus", t1), ("minus", t2), ("plus", 0.2), ("plus", 1.3)],
    ]:
        predicted = predicted_double_time_moment(factors, P, mean)
        measured = fock.ordered_average(
            coh, fock.OrderedProductSpec(
                factors=tuple(("q", t, b) for b, t in factors),
                ordering="double_time"), P)
        assert abs(predicted - measured) < 1e-10


# -- gaussian moment extraction ---------------------------------------------------------

def finite_difference_moment(quad, lin, h=0.05):
    """Mixed derivative of exp(w.quad.w/2 + lin.w) by central differences."""
    m = len(lin)

    def phi(w):
        return np.exp(0.5 * w @ quad @ w + lin @ w)

    total = 0.0j
    for signs in itertools.product((1, -1), repeat=m):
        w = h * np.array(signs, dtype=float)
        total += np.prod(signs) * phi(w)
    return total / (2.0 * h) ** m


def test_gaussian_moments_low_orders():
    lin = np.array([0.3 + 0.1j, -0.2j])
    quad = np.array([[0.0, 0.5 - 0.2j], [0.5 - 0.2j, 0.0]])
    assert gaussian_moments(quad[:1, :1], lin[:1]) == lin[0]
    assert gaussian_moments(quad, lin) == pytest.approx(quad[0, 1] + lin[0] * lin[1])


def test_gaussian_moments_four_point_pairing_sum():
    rng = np.random.default_rng(8)
    quad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    quad = (quad + quad.T) / 2.0
    lin = np.zeros(4, dtype=complex)
    value = gaussian_moments(quad, lin)
    explicit = (quad[0, 1] * quad[2, 3] + quad[0, 2] * quad[1, 3]
                + quad[0, 3] * quad[1, 2])
    assert value == pytest.approx(explicit)


def test_gaussian_moments_against_finite_differences():
    rng = np.random.default_rng(9)
    for m in (2, 3, 4):
        quad = 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        quad = (quad + quad.T) / 2.0
        lin = 0.4 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        exact = gaussian_moments(quad, lin)
        approx = finite_difference_moment(quad, lin, h=0.03)
        assert abs(exact - approx) < 1e-3
    with pytest.raises(FunctionalError):
        gaussian_moments(np.zeros((9, 9)), np.zeros(9))


# -- current maps -----------------------------------------------------------------------

def test_equal_currents_collapse():
    rng = np.random.default_rng(10)
    g = reference_grid()
    j = SampledSignal(g, rng.standard_normal(g.n).astype(complex))
    for hbar in (1.0, 0.7):
        # forward/backward currents enter the substitution as j+-/hbar
        eta, sigma = response_substitution((1 / hbar) * j, (1 / hbar) * j, hbar)
        assert np.max(np.abs(eta.values)) < 1e-15
        assert np.max(np.abs(sigma.values - j.values)) < 1e-13


def test_conjugate_currents_make_eta_real():
    rng = np.random.default_rng(11)
    g = reference_grid()
    jp = random_signal(g, rng, clean=False)
    for hbar in (1.0, 0.7):
        eta, sigma = response_substitution((1 / hbar) * jp, (1 / hbar) * jp.conj(), hbar)
        assert np.max(np.abs(eta.values.imag)) < 1e-13
        assert np.max(np.abs(sigma.values.imag)) < 1e-13


# -- symmetric-ordering checks --------------------------------------------------------------

def test_weyl_kernel_identity():
    rng = np.random.default_rng(14)
    g = reference_grid(128, 4)
    kers = osc_kernels(P, g)
    eta = random_signal(g, rng, 0.4)
    assert weyl_kernel_identity_residual(eta, kers.d, kers.d_r) < 1e-10


def weyl_residual(times, dim, alpha=None):
    """moment_residuals of the symmetric q product in the vacuum or a coherent state."""
    spec = fock.OrderedProductSpec(tuple(("q", t, None) for t in times), "weyl")
    if alpha is None:
        (res,) = moment_residuals(fock.make_state("vacuum", dim), [spec], P)
        return res
    state = fock.make_state("coherent", dim, alpha=alpha)
    (res,) = moment_residuals(state, [spec], P, coherent_mean(alpha, P))
    return res


def test_weyl_two_point_values():
    # vacuum equal-time symmetric moment is hbar/(2 m omega0) = 1/2 here
    assert weyl_residual([0.0, 0.0], dim=30) < 1e-12
    predicted = predicted_weyl_moment([0.0, 0.0], P)
    assert predicted == pytest.approx(0.5)

    # coherent: symmetric moment = mean product + hbar cos/(2 m omega0)
    t1, t2 = 0.3, 1.4
    mean = coherent_mean(1.0, P)
    predicted = predicted_weyl_moment([t1, t2], P, mean)
    shift = P.hbar * np.cos(P.omega0 * (t1 - t2)) / (2 * P.mass * P.omega0)
    assert predicted == pytest.approx(mean(t1) * mean(t2) + shift, abs=1e-14)
    assert weyl_residual([t1, t2], dim=40, alpha=1.0) < 1e-10


def test_weyl_four_point_conjecture_level():
    assert weyl_residual([0.2, 0.7, 1.3, 1.9], dim=40) < 1e-10
    assert weyl_residual([0.2, 0.7, 1.3, 1.9], dim=40, alpha=0.5) < 1e-9


def test_predicted_moment_refuses_momentum_factors():
    spec = fock.OrderedProductSpec((("q", 0.1, None), ("p", 0.4, None)), "plain")
    with pytest.raises(FunctionalError):
        predicted_moment(spec, P)
    with pytest.raises(FunctionalError):
        moment_residuals(fock.make_state("vacuum", 20), [spec], P)


# -- charged substitution ----------------------------------------------------------------------

def test_charged_four_block_form_collapses():
    rng = np.random.default_rng(15)
    g = reference_grid(128, 4)
    scale = 2.0 * np.pi / g.period
    cms = ChargedModeSet(
        omegas_a=np.array([5, 9, 14]) * scale, weights_a=np.array([0.7, 1.1, 0.4]),
        omegas_b=np.array([6, 11]) * scale, weights_b=np.array([0.9, 0.6]))
    ck = charged_field_kernels(cms, g)
    for _ in range(5):
        bar = ProbeSet(random_signal(g, rng, 0.3), random_signal(g, rng, 0.3),
                       hbar=P.hbar)
        plain = ProbeSet(random_signal(g, rng, 0.3), random_signal(g, rng, 0.3),
                         hbar=P.hbar)
        assert charged_substitution_residual(bar, plain, ck) < 1e-10


def test_predicted_normal_moment_is_a_product():
    mean = coherent_mean(0.5, P)
    times = [0.1, 0.9]
    assert predicted_normal_moment(times, mean) == pytest.approx(mean(0.1) * mean(0.9))
    assert predicted_normal_moment(times, None) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("inf"))])
def test_predictions_refuse_a_non_finite_mean(bad):
    def mean(t):
        return bad if t > 0.5 else 0.3

    spec = fock.OrderedProductSpec((("q", 0.1, None), ("q", 0.9, None)), "weyl")
    with pytest.raises(fock.FockError, match="mean path must be finite"):
        predicted_moment(spec, P, mean)
    with pytest.raises(fock.FockError, match="mean path must be finite"):
        predicted_normal_moment([0.1, 0.9], mean)


# -- stacks ---------------------------------------------------------------------------

def stack_of(grid, rng, shape, scale=0.2):
    return without_zero_nyquist(SampledSignal(grid, scale * (
        rng.standard_normal((*shape, grid.n)) + 1j * rng.standard_normal((*shape, grid.n)))))


def test_stacked_functionals_give_one_value_per_pair_and_a_scalar_for_one():
    g = reference_grid(32, 2)
    kers = osc_kernels(P, g)
    rng = np.random.default_rng(21)
    stacked = ProbeSet(stack_of(g, rng, (2, 3)), stack_of(g, rng, (2, 3)))
    single = ProbeSet(random_signal(g, rng), random_signal(g, rng))
    for fn in (lambda ps: phi_vac_quadratic(ps, kers), lambda ps: phi_vac_response(ps, kers.d_r),
               lambda ps: log_phi_vac_quadratic(ps, kers), lambda ps: phi_cl(ps.eta, ps.sigma,
                                                                             kers.d_r)):
        assert fn(stacked).shape == (2, 3)
        assert type(fn(single)) is complex
    assert stacked.edge_bin_fraction().shape == (2, 3)
    assert type(single.edge_bin_fraction()) is float


def test_a_probe_set_refuses_stacks_of_different_shapes():
    g = reference_grid(16, 2)
    rng = np.random.default_rng(22)
    for minus in (stack_of(g, rng, (3, 1)), random_signal(g, rng), stack_of(g, rng, (2,))):
        with pytest.raises(FunctionalError):
            ProbeSet(stack_of(g, rng, (3,)), minus)


def test_what_reads_one_probe_refuses_a_stack():
    g = reference_grid(16, 2)
    kers = osc_kernels(P, g)
    rng = np.random.default_rng(23)
    stacked = stack_of(g, rng, (2,))
    single = random_signal(g, rng)
    state = fock.make_state("coherent", 10, alpha=0.3)
    with pytest.raises(FunctionalError):
        phi_in_state(state, stacked, P)
    with pytest.raises(FunctionalError):
        phi_full(ProbeSet(stacked, stacked), single, kers, state)
    with pytest.raises(FunctionalError):
        phi_full(ProbeSet(single, single), stacked, kers, state)
    with pytest.raises(FunctionalError):
        weyl_kernel_identity_residual(stacked, kers.d, kers.d_r)


def test_one_draw_gives_the_signals_of_one_draw_per_signal():
    g = reference_grid(32, 2)
    for shape, clean in (((5, 2), True), ((3, 4), False), ((), True)):
        stacked = _random_signals(g, np.random.default_rng(24), shape, scale=0.3, clean=clean)
        columns = _unstack(stacked) if shape else [stacked]
        rng = np.random.default_rng(24)
        for trial in np.ndindex(shape[:-1]):
            for column in columns:
                values = 0.3 * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
                one = SampledSignal(g, values)
                one = without_zero_nyquist(one) if clean else one
                assert column._made_in == one._made_in
                assert column.values[trial].tobytes() == one.values.tobytes()
                assert column._spectrum[trial].tobytes() == one._spectrum.tobytes()


def doubled_form(f, k, g, form=quad_form):
    return 2 * form(f, k, g)


def reversed_stack(f, k, g, form=quad_form):
    forms = form(f, k, g)
    return forms[::-1] if np.ndim(forms) else forms


@pytest.mark.parametrize("mutant", [doubled_form, reversed_stack], ids=["doubled", "reversed"])
def test_a_quad_form_defect_fails_the_direct_sum_row(monkeypatch, mutant):
    # every other functional row compares two arrangements of quad_form, which a
    # defect shared by both leaves equal
    monkeypatch.setattr(functionals, "quad_form", mutant)
    report = run_suite("functional", Config(seed=7))
    assert {row.id for row in report.rows if not row.passed} == {"quad-form-direct-sum"}
