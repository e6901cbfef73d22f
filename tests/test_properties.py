"""Property tests of the exact identities over random grids, bins and parameters.

Examples are drawn deterministically (derandomize=True) and no example
database is written, so every run checks the same cases.  Sample values
come from a numpy generator seeded by the drawn integer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oscresp import fock
from oscresp.driven import _rk4, causal_window, sin_scenario, step_scenario
from oscresp.functionals import (ProbeSet, _eta_ladder_coefficients,
                                 charged_substitution_residual, coherent_mean,
                                 inverse_substitution, moment_residual, phi_in_state,
                                 predicted_moment, response_substitution)
from oscresp.grids import SampledSignal, frequency_split, make_grid, without_zero_nyquist
from oscresp.kernels import (ChargedModeSet, ModeSet, OscillatorParams,
                             charged_field_kernels, commutator_kernel,
                             neutral_field_kernels, osc_kernels, reconstruction_residuals)
from oscresp.wick import verify_wick
from test_driven import stage_loop_rk4

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

sizes = st.integers(2, 256).map(lambda half: 2 * half)
seeds = st.integers(0, 2**32 - 1)
positive = st.floats(0.1, 10.0)


@st.composite
def oscillators(draw, values=positive):
    """(params, grid) with omega0 on a valid DFT bin of an even-sized grid."""
    n = draw(sizes)
    bin_index = draw(st.integers(1, n // 2 - 1))
    p = OscillatorParams(mass=draw(values), omega0=draw(values), hbar=draw(values))
    return p, make_grid(n, 2.0 * np.pi * bin_index / (n * p.omega0))


def random_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


@PROPERTY
@given(sizes, positive, seeds)
def test_split_is_additive_and_idempotent(n, dt, seed):
    s = random_signal(make_grid(n, dt), seed)
    plus, minus = frequency_split(s)
    assert np.max(np.abs(plus.values + minus.values - s.values)) < 1e-14
    plus, _ = frequency_split(without_zero_nyquist(s))
    twice, _ = frequency_split(plus)
    assert np.max(np.abs(twice.values - plus.values)) < 1e-14


@PROPERTY
@given(sizes, positive, positive, seeds)
def test_substitution_round_trip(n, dt, hbar, seed):
    grid = make_grid(n, dt)
    ep, em = random_signal(grid, seed), random_signal(grid, seed + 1)
    eta, sigma = response_substitution(ep, em, hbar)
    ep2, em2 = inverse_substitution(eta, sigma, hbar)
    assert np.max(np.abs(ep2.values - ep.values)) < 1e-13
    assert np.max(np.abs(em2.values - em.values)) < 1e-13


@st.composite
def charged_modes(draw):
    """(grid, modes): distinct bins per species, the antiparticle one possibly empty."""
    n = draw(sizes)
    grid = make_grid(n, draw(positive))
    scale = 2.0 * np.pi / grid.period
    species = []
    for least in (1, 0):
        bins = draw(st.lists(st.integers(1, n // 2 - 1), min_size=least, max_size=4,
                             unique=True))
        weights = draw(st.lists(positive, min_size=len(bins), max_size=len(bins)))
        species += [np.array(bins, dtype=float) * scale, np.array(weights)]
    return grid, ChargedModeSet(*species)


@st.composite
def families(draw):
    """(forward, d_f, d_r, backward) of a random oscillator, neutral or charged field."""
    kind = draw(st.sampled_from(("oscillator", "neutral", "charged")))
    if kind == "oscillator":
        kers = osc_kernels(*draw(oscillators()))
        return kers.d.values, kers.d_f.values, kers.d_r.values, None
    if kind == "charged":
        grid, modes = draw(charged_modes())
        ck = charged_field_kernels(modes, grid)
        return ck.d_a.values, ck.d_f.values, ck.d_r.values, ck.d_b.values
    grid = make_grid(draw(sizes), draw(positive))
    bins = draw(st.lists(st.integers(1, grid.n // 2 - 1), min_size=1, max_size=4, unique=True))
    shape = (len(bins), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(seeds))
    amplitudes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nk = neutral_field_kernels(
        ModeSet(np.array(bins) * 2.0 * np.pi / grid.period, amplitudes), grid)
    return nk.d, nk.d_f, nk.d_r, None


@settings(PROPERTY, max_examples=75)
@given(families())
def test_contractions_from_the_retarded_kernel(family):
    forward, d_f, d_r, backward = family
    res = reconstruction_residuals(forward, d_f, d_r, backward=backward)
    # kernels are of size max|D_F|; phases reach pi*n/2, so their rounding grows with n
    bound = 2e-14 * d_r.shape[-1] * np.max(np.abs(d_f))
    assert max(res.values()) < bound, res


@PROPERTY
@given(charged_modes(), positive, seeds)
def test_charged_doubled_substitution(field, hbar, seed):
    grid, modes = field
    s = 0.3
    bar, plain = (ProbeSet(s * without_zero_nyquist(random_signal(grid, seed + k)),
                           s * without_zero_nyquist(random_signal(grid, seed + k + 1)),
                           hbar=hbar) for k in (0, 2))
    res = charged_substitution_residual(bar, plain, charged_field_kernels(modes, grid))
    # each quadratic form sums n^2 terms of size dt^2 * weight * s^2
    weight = modes.weights_a.sum() + modes.weights_b.sum()
    assert res <= 1e-14 * hbar * grid.period ** 2 * weight * s ** 2


@st.composite
def fock_states(draw, headroom=2, least=3):
    """A random density matrix whose support lies inside the lowest dim - headroom levels."""
    dim = draw(st.integers(least, 30))
    rng = np.random.default_rng(draw(seeds))
    size = dim - headroom
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:size, :size] = g @ g.conj().T
    return fock.FockState(rho / np.trace(rho).real)


weights = st.complex_numbers(max_magnitude=0.5)
probes = st.lists(st.tuples(st.floats(-10.0, 10.0), weights), max_size=3)


@PROPERTY
@given(fock_states(), probes, probes)
def test_reality_check_on_random_states(state, plus, minus):
    p = OscillatorParams()
    # complex weights make the pair non-unitary, so its size sets the rounding
    size = max(1.0, abs(fock._double_ordered(state, minus, plus, p)))
    assert fock.reality_check(state, plus, minus, p) < 1e-12 * size


@PROPERTY
@given(fock_states(), sizes, st.floats(0.01, 0.5), seeds)
def test_phi_in_state_against_matrix_exponentials(state, n, scale, seed):
    p = OscillatorParams()
    eta = scale * random_signal(make_grid(n, 2.0 * np.pi / n), seed)
    c, d = _eta_ladder_coefficients(eta, p)
    a, adag = fock.ladder(state.dim)
    ref = fock.expectation(state, expm(d * adag) @ expm(c * a))
    # for |c|, |d| above 1 the summed terms can exceed the result by 1e4 and more, so
    # the bound follows the summed magnitudes, not the result
    terms = (np.abs(fock._ladder_exp(c, state.dim)) @ np.abs(state.rho)
             * np.abs(fock._ladder_exp(d, state.dim)))
    assert abs(phi_in_state(state, eta, p) - ref) < 1e-13 * np.sum(terms)


near_one = st.floats(0.5, 2.0)
times = st.floats(-3.0, 3.0)
branches = st.sampled_from(("plus", "minus"))


@PROPERTY
@given(fock_states(headroom=8, least=12),
       st.lists(st.tuples(branches, times), min_size=1, max_size=8),
       st.builds(OscillatorParams, near_one, near_one, near_one))
def test_wick_expansion_on_random_states(state, factors, p):
    assert verify_wick(state, factors, p) < 1e-10


@PROPERTY
@given(fock_states(), oscillators(near_one), st.integers(0, 2**16), st.integers(0, 2**16))
def test_commutator_is_the_response_kernel_in_random_states(state, osc, i1, i2):
    p, grid = osc
    t1, t2 = grid.times()[[i1 % grid.n, i2 % grid.n]]
    q1, q2 = fock.heisenberg_q(p, t1, state.dim), fock.heisenberg_q(p, t2, state.dim)
    expected = commutator_kernel(osc_kernels(p, grid).d_r, p.hbar).value_at_tau(t1 - t2)
    assert abs(fock.expectation(state, q1 @ q2 - q2 @ q1) - expected) < 1e-10


@st.composite
def ordered_products(draw):
    """An OrderedProductSpec of up to 8 q factors, with or without a callable shift."""
    ordering = draw(st.sampled_from(fock.ORDERINGS))
    branch = branches if ordering == "double_time" else st.none()
    factors = draw(st.lists(st.tuples(st.just("q"), times, branch),
                            max_size=fock.MAX_FACTORS))
    shift = None
    if draw(st.booleans()):
        a, b = draw(st.complex_numbers(max_magnitude=0.5)), draw(st.floats(-0.5, 0.5))
        shift = lambda t: a * np.cos(t) + b * t    # noqa: E731
    return fock.OrderedProductSpec(tuple(factors), ordering, shift)


@settings(PROPERTY, max_examples=100)
@given(ordered_products(), st.one_of(st.none(), st.complex_numbers(max_magnitude=0.7)))
def test_every_ordered_moment_matches_its_prediction(spec, alpha):
    p = OscillatorParams()
    if alpha is None:
        state, mean = fock.make_state("vacuum", 40), None
    else:
        state, mean = fock.make_state("coherent", 40, alpha=alpha), coherent_mean(alpha, p)
    bound = 1e-10 * max(1.0, abs(predicted_moment(spec, p, mean)))
    assert moment_residual(state, spec, p, mean) <= bound


@PROPERTY
@given(st.sampled_from((step_scenario, sin_scenario)), positive, positive, sizes,
       st.floats(0.005, 2.5), st.floats(-10.0, 10.0), st.floats(0.0, 0.999))
def test_rk4_recurrence_on_random_oscillators(build, omega0, mass, n, wh, amplitude, onset):
    p = OscillatorParams(mass=mass, omega0=omega0)
    grid = make_grid(n, wh / omega0)
    sc = build(p, grid, amplitude, t_on=grid.t0 + onset * grid.period)
    ref = stage_loop_rk4(sc, grid.dt, n - 1)
    assert np.max(np.abs(_rk4(sc, grid.dt, n - 1) - ref)) <= 1e-12 * np.max(np.abs(ref))



@st.composite
def onsets(draw):
    """(grid, t_on, first sample at or after the onset, whether it carries the onset).

    The onset lies on a sample, within 1e-10 dt of one, or between two.
    """
    grid = make_grid(draw(sizes), draw(st.floats(0.01, 1.0)))
    k = draw(st.integers(0, grid.n - 1))
    where = draw(st.sampled_from(("on", "near", "between")))
    if where == "between":
        return grid, grid.t0 + (k + draw(st.floats(0.01, 0.99))) * grid.dt, k + 1, False
    offset = 0.0
    if where == "near":
        sign = 1.0 if k == 0 else draw(st.sampled_from((-1.0, 1.0)))
        offset = sign * draw(st.floats(1e-11, 1e-10))
    return grid, grid.t0 + (k + offset) * grid.dt, k, True


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from((step_scenario, sin_scenario)), onsets(), st.floats(-10.0, 10.0))
def test_every_scenario_reads_its_onset_by_one_rule(build, onset, amplitude):
    grid, t_on, first, on_grid = onset
    sc = build(OscillatorParams(), grid, amplitude, t_on=t_on)
    values, expected = sc.current.values, sc.current_fn(grid.times())
    assert np.all(values[:first] == 0.0)
    rest = np.arange(grid.n) > first if on_grid else np.arange(grid.n) >= first
    if on_grid:
        assert values[first] == sc.current_fn(np.array([t_on]))[0] / 2.0
    np.testing.assert_allclose(values[rest], expected[rest], rtol=1e-15, atol=0.0)
    window = np.flatnonzero(causal_window(grid, t_on))
    assert window[0] == first if first < grid.n else window.size == 0
