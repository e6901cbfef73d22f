"""Property tests of the exact identities over random grids, bins and parameters.

Examples are drawn deterministically (derandomize=True) and no example
database is written, so every run checks the same cases.  Sample values
come from a numpy generator seeded by the drawn integer.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oscresp import fock
from oscresp.driven import _rk4, causal_window, sin_scenario, step_scenario
from oscresp.functionals import (ProbeSet, _eta_ladder_coefficients,
                                 charged_substitution_residual, coherent_mean,
                                 gaussian_moments, inverse_substitution,
                                 log_phi_vac_quadratic, moment_residuals, phi_in_state,
                                 phi_vac_quadratic, phi_vac_response, predicted_moment,
                                 quad_form, response_substitution)
from oscresp.grids import (Kernel, SampledSignal, circular_convolve, frequency_split,
                           half_step, kernel_adjoint, make_grid, plus_values, swap_reflect,
                           without_zero_nyquist, zero_nyquist_fraction)
from oscresp.kernels import (RECONSTRUCTED, ChargedModeSet, ModeSet, OscillatorParams,
                             charged_field_kernels, commutator_kernel,
                             neutral_field_kernels, osc_kernels, reconstruct,
                             reconstruction_residuals, time_order)
from oscresp.wick import _sides, enumerate_pairings, pair_value, verify_wick
from test_driven import stage_loop_rk4
from test_fock import dense_average, oracle_matrices, zero_padded

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


# operands made in each domain: samples (and their conjugate and adjoint),
# spectra (split parts, cleaned), and the mixtures of the rule
OPERANDS = {
    "samples": lambda x, y: x,
    "plus": lambda x, y: frequency_split(x)[0],
    "minus": lambda x, y: frequency_split(x)[1],
    "clean": lambda x, y: without_zero_nyquist(x),
    "samples+spectrum": lambda x, y: x + frequency_split(y)[0],
    "spectrum-spectrum": lambda x, y: without_zero_nyquist(x) - frequency_split(y)[1],
    "scaled": lambda x, y: (0.5 - 2j) * frequency_split(x)[1],
    "conj": lambda x, y: without_zero_nyquist(x).conj(),
    "conj-of-samples": lambda x, y: x.conj(),
    "adjoint": lambda x, y: kernel_adjoint(frequency_split(x)[0]),
    "adjoint-of-samples": lambda x, y: kernel_adjoint(x),
}
EPS = np.finfo(float).eps


def random_values(n, seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n) + 1j * rng.standard_normal(n)


@PROPERTY
@given(st.integers(2, 64).map(lambda half: 2 * half), positive, seeds,
       st.lists(st.sampled_from(sorted(OPERANDS)), min_size=3, max_size=3))
def test_quad_form_equals_the_transform_free_double_sum(n, dt, seed, forms):
    grid = make_grid(n, dt)

    def operands(read_first):
        """f, k and g; with read_first, both domains of every signal are read before use."""
        def read(*signals):
            for x in signals if read_first else ():
                x.values, x._spectrum
            return signals

        out = []
        for i, (form, cls) in enumerate(zip(forms, (SampledSignal, Kernel, SampledSignal))):
            x, y = read(cls(grid, random_values(n, seed + 2 * i)),
                        cls(grid, random_values(n, seed + 2 * i + 1)))
            out += read(OPERANDS[form](x, y))
        return out

    f, k, g = operands(read_first=False)
    value = quad_form(f, k, g)
    # the same forms, with every operand's other domain read first, give the same bits
    assert quad_form(*operands(read_first=True)) == value
    # dt^2 sum_t sum_t' f(t) k(t - t') g(t'), the lag read as in the kernel index
    index = np.arange(n)
    lag = (index[:, None] - index[None, :] + n // 2) % n
    terms = f.values[:, None] * k.values[lag] * g.values[None, :]
    bound = 16 * EPS * dt * dt * np.abs(terms).sum()
    assert abs(value - dt * dt * terms.sum()) <= bound
    # a form of a conjugated kernel is the conjugate of a form of the kernel itself
    for derived, left, right in ((k.conj(), f.conj(), g.conj()),
                                 (kernel_adjoint(k), g.conj(), f.conj())):
        assert abs(quad_form(f, derived, g) - quad_form(left, k, right).conjugate()) <= 2 * bound

    # the operations on spectrum-only operands against the same ones on samples
    a, b = frequency_split(f)[0], without_zero_nyquist(g)
    c = kernel_adjoint(frequency_split(k)[1])
    results = (a + b, a - b, (0.3 + 1.7j) * a, a.conj(), kernel_adjoint(c))
    assert all("values" not in vars(r) for r in (a, b, c, *results))
    x, y, z = (SampledSignal(grid, a.values), SampledSignal(grid, b.values),
               Kernel(grid, c.values))
    scale = max(np.max(np.abs(v.values)) for v in (x, y, z))
    for result, expected in zip(results, (x + y, x - y, (0.3 + 1.7j) * x, x.conj(),
                                          kernel_adjoint(z))):
        assert np.max(np.abs(result.values - expected.values)) <= 16 * EPS * 2.0 * scale


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


@st.composite
def contraction_pairs(draw):
    """(forward, backward): two random 1-d kernels or two (mu, r, mu', r') families."""
    labels = draw(st.sampled_from(((), (1, 1, 1, 1), (2, 3, 2, 3), (3, 2, 3, 2))))
    shape = (*labels, draw(sizes))
    rng = np.random.default_rng(draw(seeds))
    scale = 10.0 ** draw(st.integers(-100, 100))
    return tuple(scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 for _ in range(2))


@settings(PROPERTY, max_examples=50)
@given(contraction_pairs())
def test_time_order_equals_the_masked_formula(pair):
    forward, backward = pair
    theta = half_step(forward.shape[-1])
    d_f, d_r = time_order(forward, backward)
    assert np.array_equal(d_f, theta * forward + (1.0 - theta) * backward)
    assert np.array_equal(d_r, theta * (forward - backward))


def full_swap_reflect(values):
    """swap_reflect as one full-size array: transpose the label halves, roll the reversal."""
    half = (values.ndim - 1) // 2
    order = (*range(half, 2 * half), *range(half), values.ndim - 1)
    return np.roll(np.transpose(values, order)[..., ::-1], 1, axis=-1)


def full_plus(values):
    """The frequency-positive part on the full array, from one spectrum."""
    return np.fft.ifft(np.fft.fft(values, axis=-1) * half_step(values.shape[-1]), axis=-1)


def full_split(values):
    """The frequency split on the full array, one spectrum and two masked copies."""
    mask_plus = half_step(values.shape[-1])
    spec = np.fft.fft(values, axis=-1)
    return np.fft.ifft(spec * mask_plus, axis=-1), np.fft.ifft(spec * (1.0 - mask_plus), axis=-1)


def full_adjoint(values):
    return np.conj(full_swap_reflect(values))


def upper_pairs(shape, k=0):
    """Mask of the rows (a, b) of a family of this shape with b >= a + k, on the flat label halves."""
    half = (len(shape) - 1) // 2
    labels = int(np.prod(shape[:half]))
    return np.triu(np.ones((labels, labels), bool), k).reshape(*shape[:-1], 1)


def full_rebuilt(forward, d_f, d_r, backward):
    """Each rebuilt kernel and its definition, as full-size arrays.

    The kernels come from the frequency-positive part C+ of C = D_R - D_R^dag:
    on the rows (a, b) with a <= b forward C+, backward C+ - C and
    D_F = D_R^dag + C+; each other row (b, a) is the adjoint of the row
    (a, b) of -C+, C - C+ and D_R - C+ in turn.  The second definition is
    D_R^dag = D_F - forward.
    """
    d_r_dag = full_adjoint(d_r)
    c = d_r - d_r_dag
    plus = full_plus(c)
    upper = upper_pairs(d_r.shape)
    rule = {"forward": (plus, -plus), "backward": (plus - c, c - plus),
            "d_f": (d_r_dag + plus, d_r - plus)}
    rebuilt = {name: np.where(upper, here, full_adjoint(there))
               for name, (here, there) in rule.items()}
    return {
        "d_r_two_defs": (d_f - forward, d_r_dag),
        "forward": (rebuilt["forward"], forward),
        "backward": (rebuilt["backward"],
                     full_swap_reflect(forward) if backward is None else backward),
        "d_f": (rebuilt["d_f"], d_f),
    }


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from(((), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 3))),
       st.sampled_from((4, 8, 256, 1024)), seeds, st.booleans())
@example((3, 3), 4096, 0, True)              # 81 rows of 4096 samples: on the worker pool
@example((3, 3), 4096, 0, False)
def test_blocked_split_and_residuals_equal_the_full_array_formulas(labels, n, seed, backward):
    rng = np.random.default_rng(seed)
    shape = (*labels, *labels, n)
    forward, d_f, d_r, back = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                               for _ in range(4))
    back = back if backward else None
    c = d_r - full_adjoint(d_r)
    assert same_bits(plus_values(c.copy()), full_plus(c))
    full = full_rebuilt(forward, d_f, d_r, back)
    res = reconstruction_residuals(forward, d_f, d_r, backward=back)
    assert tuple(res) == RECONSTRUCTED
    for name, (rebuilt, defined) in full.items():
        assert res[name] == float(np.max(np.abs(rebuilt - defined))), name
    # the adjoint of the second definition, D_R = D_F^dag - forward^dag, has the same maximum
    d_r_form = full_adjoint(d_f) - full_adjoint(forward) - d_r
    assert res["d_r_two_defs"] == float(np.max(np.abs(d_r_form)))
    # the rule over the halves P, M of D_R, which the adjoint does not mix, to rounding
    p, m = full_split(d_r)
    halves = {"forward": p - full_adjoint(p), "backward": full_adjoint(m) - m,
              "d_f": p + full_adjoint(m)}
    for name in RECONSTRUCTED[1:]:
        rebuilt = reconstruct(d_r, name)
        assert same_bits(rebuilt, full[name][0]), name
        assert np.max(np.abs(rebuilt - halves[name])) <= 1e-14 * np.max(np.abs(d_r)), name


@settings(PROPERTY, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from((4, 8, 256, 1024)),
       st.integers(1, 8), seeds)
@example(3, 3, 4096, 8, 0)                   # 9 blocks of 36 864 samples: on the worker pool
def test_the_blocked_neutral_family_is_the_time_order_of_its_own_contraction(
        labels, points, n, modes, seed):
    grid = make_grid(n, 0.37)
    rng = np.random.default_rng(seed)
    bins = rng.choice(np.arange(1, n // 2), size=min(modes, n // 2 - 1), replace=False)
    shape = (len(bins), labels, points)
    amplitudes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nk = neutral_field_kernels(ModeSet(bins * 2.0 * np.pi / grid.period, amplitudes), grid)
    d_f, d_r = time_order(nk.d, swap_reflect(nk.d))
    assert same_bits(nk.d_f, d_f) and same_bits(nk.d_r, d_r)


@settings(PROPERTY, max_examples=40)
@given(families(), seeds)
def test_the_adjoint_rebuild_of_d_f_has_the_residual_of_d_f(family, seed):
    # the adjoint of the rebuilt D_F is D_R - C+ on the rows (a, b) with
    # a < b and the adjoint of D_R^dag + C+ on the others: a permutation
    # and a conjugation of the rebuilt D_F, neither of which rounds
    forward, d_f, d_r, backward = family
    rng = np.random.default_rng(seed)
    d_f = d_f + 1e-3 * (rng.standard_normal(d_f.shape) + 1j * rng.standard_normal(d_f.shape))
    d_r_dag = full_adjoint(d_r)
    plus = full_plus(d_r - d_r_dag)
    rebuilt = np.where(upper_pairs(d_r.shape, 1), d_r - plus, full_adjoint(d_r_dag + plus))
    dagger = float(np.max(np.abs(rebuilt - full_adjoint(d_f))))
    assert dagger == reconstruction_residuals(forward, d_f, d_r, backward=backward)["d_f"]


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
def fock_states(draw, headroom=2, least=3, most=30):
    """A random density matrix whose support lies inside the lowest dim - headroom levels."""
    dim = draw(st.integers(least, most))
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
@given(fock_states(headroom=0, least=2),
       st.lists(st.tuples(branches, times), min_size=1, max_size=8),
       st.builds(OscillatorParams, near_one, near_one, near_one))
def test_wick_expansion_on_random_states(state, factors, p):
    assert verify_wick(state, factors, p) < 1e-10


def pairing_sum(state, factors, p):
    """(sum, summed magnitude) of the pair expansion, one pairing and one leftover at a time."""
    m = len(factors)
    moments = fock.ladder_moments(state, m)
    parts = [(*fock.ladder_parts("q", f.time, p), 0.0) for f in factors]
    total, size = 0.0j, 0.0
    for pairs, rest in enumerate_pairings(m):
        weight = 1.0 + 0.0j
        for i, j in pairs:
            weight *= pair_value("double_time", factors[i], factors[j], p)
        term = weight * fock.contract_moments(moments, [parts[k] for k in rest])
        total += term
        size += abs(term)
    return total, size


wick_states = st.one_of(
    st.builds(lambda dim: fock.make_state("vacuum", dim), st.integers(2, 40)),
    st.builds(lambda dim, alpha: fock.make_state("coherent", dim, alpha=alpha),
              st.integers(30, 40), st.complex_numbers(max_magnitude=1.0)),
    st.builds(lambda dim, nbar: fock.make_state("thermal", dim, nbar=nbar),
              st.integers(30, 40), st.floats(0.0, 0.5)),
    st.builds(lambda dim, n: fock.make_state("fock", dim, n=n),
              st.integers(12, 40), st.integers(0, 3)),
    fock_states(headroom=0, least=2),
)


@pytest.mark.parametrize("m", range(fock.MAX_FACTORS + 1))
@settings(PROPERTY, max_examples=15)
@given(wick_states, st.data(), st.builds(OscillatorParams, near_one, near_one, near_one))
def test_one_contraction_equals_the_sum_over_pairings(m, state, data, p):
    labels = data.draw(st.lists(st.tuples(branches, times), min_size=m, max_size=m))
    factors = [fock.Factor("q", t, branch) for branch, t in labels]
    expected, size = pairing_sum(state, factors, p)
    assert abs(_sides(state, labels, p)[1] - expected) <= 1e-13 * size
    # the c-number pairing sum of a random symmetric quad and lin, pair by pair
    rng = np.random.default_rng(data.draw(seeds))
    quad = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    quad = quad + quad.T
    lin = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    terms = [np.prod([quad[i, j] for i, j in pairs] + [lin[k] for k in rest])
             for pairs, rest in enumerate_pairings(m)]
    assert abs(gaussian_moments(quad, lin) - sum(terms)) <= 1e-13 * sum(map(abs, terms))


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
    assert moment_residuals(state, [spec], p, mean)[0] <= bound


@st.composite
def random_products(draw):
    """(state, spec): q and p factors in any ordering, on a state of full support."""
    m = draw(st.integers(0, fock.MAX_FACTORS))
    state = draw(fock_states(headroom=0, least=2, most=40))
    ordering = draw(st.sampled_from(fock.ORDERINGS))
    branch = branches if ordering == "double_time" else st.none()
    factors = draw(st.lists(st.tuples(st.sampled_from("qp"), times, branch),
                            min_size=m, max_size=m))
    shift = None
    if draw(st.booleans()):
        a, b = (draw(st.complex_numbers(max_magnitude=1.0)) for _ in range(2))
        shift = lambda t: a + b * t    # noqa: E731
    return state, fock.OrderedProductSpec(tuple(factors), ordering, shift)


def term_scale(state, spec):
    """Tr[|rho| |X_1| ... |X_m|], every matrix entrywise absolute: the summed size of all terms."""
    mats = oracle_matrices([(f.observable, f.time, f.branch) for f in spec.factors],
                           spec.shift, state.dim)
    op = np.eye(state.dim)
    for x in mats:
        op = op @ np.abs(x)
    return float(np.sum(np.abs(state.rho) * op.T))


@settings(PROPERTY, max_examples=100)
@given(random_products())
def test_banded_oracle_matches_the_dense_oracle(case):
    # the dense products run on the state zero-padded by m levels, where no product
    # reaches the top level: the banded oracle must be exact for the state it is given
    state, spec = case
    padded = zero_padded(state, len(spec.factors))
    value = fock.ordered_average(state, spec, OscillatorParams())
    assert abs(value - dense_average(padded, spec)) <= 1e-14 * term_scale(padded, spec)


@settings(PROPERTY, max_examples=50)
@given(random_products())
def test_banded_oracle_keeps_the_truncated_products_on_full_support(case):
    # a state that fills its basis is the same density matrix as that state zero-padded
    # by any number of levels, so the banded oracle must give both one average
    state, spec = case
    m = len(spec.factors)
    scale = term_scale(zero_padded(state, m), spec)
    value = fock.ordered_average(state, spec, OscillatorParams())
    for levels in (1, m + 1):
        padded = fock.ordered_average(zero_padded(state, levels), spec, OscillatorParams())
        assert abs(value - padded) <= 1e-14 * scale


@st.composite
def batch_states(draw):
    """A state of full support, the top number state or a thermal state, at dim 2 to 24."""
    kind = draw(st.sampled_from(("random", "top", "thermal")))
    if kind == "random":
        return draw(fock_states(headroom=0, least=2, most=24))
    dim = draw(st.integers(2, 24))
    if kind == "top":
        return fock.make_state("fock", dim, n=dim - 1)
    # the thermal tail past the basis must stay below 1e-10
    return fock.make_state("thermal", dim, nbar=1e-6 if dim < 16 else 0.3)


@st.composite
def batch_specs(draw):
    """A spec of 0 to MAX_FACTORS q and p factors in any ordering, shifted or not.

    A sampled shift puts every factor on a sample of its grid.
    """
    ordering = draw(st.sampled_from(fock.ORDERINGS))
    m = draw(st.integers(0, fock.MAX_FACTORS))
    shift = draw(st.sampled_from(("none", "callable", "sampled")))
    grid = make_grid(16, 0.25)
    if shift == "sampled":
        factor_times = st.sampled_from(grid.times().tolist())
    else:
        factor_times = times
    branch = branches if ordering == "double_time" else st.none()
    factors = draw(st.lists(st.tuples(st.sampled_from("qp"), factor_times, branch),
                            min_size=m, max_size=m))
    if shift == "sampled":
        shift = random_signal(grid, draw(seeds))
    elif shift == "callable":
        a, b = (draw(st.complex_numbers(max_magnitude=1.0)) for _ in range(2))
        shift = lambda t: a + b * t    # noqa: E731
    else:
        shift = None
    return fock.OrderedProductSpec(tuple(factors), ordering, shift)


@settings(PROPERTY, max_examples=60)
@given(batch_states(), st.lists(batch_specs(), max_size=12),
       st.builds(OscillatorParams, near_one, near_one, near_one))
def test_a_batch_of_averages_has_the_bits_of_one_call_each(state, specs, p):
    expected = np.array([fock.ordered_average(state, spec, p) for spec in specs], dtype=complex)
    assert fock.ordered_averages(state, specs, p).tobytes() == expected.tobytes()


def padded_diagonals(rho, m):
    """The diagonals -m..m of rho over dim + m levels, read from a zero-padded copy of rho."""
    dim = rho.shape[0]
    padded = np.zeros((dim + 3 * m, dim + m), dtype=complex)
    padded[m:m + dim, :dim] = rho
    i = np.arange(dim + m)
    return padded[np.arange(2 * m + 1)[:, None] + i, i]


@settings(PROPERTY, max_examples=50)
@given(st.integers(1, 60), st.integers(0, 10), seeds, st.booleans())
def test_diagonals_gathered_from_rho_equal_a_zero_padded_copy(dim, m, seed, real):
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal((dim, dim))
    rho = rho if real else rho + 1j * rng.standard_normal((dim, dim))
    assert same_bits(fock._diagonals(rho, m), padded_diagonals(rho, m))


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def within_ulps(a, b, ulps=4) -> bool:
    """|a - b| within `ulps` units in the last place of the larger magnitude."""
    return abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


stack_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


@PROPERTY
@given(oscillators(), charged_modes(), stack_shapes, st.floats(1e-3, 1.0), seeds)
def test_a_stack_gives_the_bits_of_its_signals_one_at_a_time(oscillator, field, shape, scale,
                                                             seed):
    p, grid = oscillator
    rng = np.random.default_rng(seed)
    # probes of this size keep the vacuum forms' exponents of the order of scale^2
    size = scale * np.sqrt(p.mass * p.omega0 / p.hbar) / grid.period

    def stack(grid, clean):
        s = SampledSignal(grid, size * (rng.standard_normal((*shape, grid.n))
                                        + 1j * rng.standard_normal((*shape, grid.n))))
        return without_zero_nyquist(s) if clean else s

    def row(s, i):
        """Signal i of the stack s, made in the domain s was made in."""
        if s._made_in == "values":
            return SampledSignal(s.grid, s.values[i])
        return type(s)._made(s.grid, spectrum=s._spectrum[i].copy())

    a, b = stack(grid, clean=False), stack(grid, clean=True)
    k = Kernel(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    kers = osc_kernels(p, grid)
    stacked = {
        "fft": lambda x, y: x._spectrum, "ifft": lambda x, y: y.values,
        "plus": lambda x, y: frequency_split(x)[0].values,
        "minus": lambda x, y: frequency_split(y)[1].values,
        "sum": lambda x, y: (x + y).values, "difference": lambda x, y: (y - x).values,
        "scaled": lambda x, y: ((0.3 - 1.1j) * y).values, "conj": lambda x, y: y.conj().values,
        "cleaned": lambda x, y: without_zero_nyquist(x).values,
        "convolved": lambda x, y: circular_convolve(k, y).values,
        "edge fraction": lambda x, y: zero_nyquist_fraction(x),
        "quad form": lambda x, y: quad_form(x, kers.d_f, y),
    }
    near = {
        "log vacuum": lambda x, y: log_phi_vac_quadratic(ProbeSet(x, y, p.hbar), kers),
        "vacuum": lambda x, y: phi_vac_quadratic(ProbeSet(x, y, p.hbar), kers),
        "emission": lambda x, y: phi_vac_response(ProbeSet(x, y, p.hbar), kers.d_r),
    }
    for name, fn in {**stacked, **near}.items():
        values = fn(a, b)
        for i in np.ndindex(shape):
            one = fn(row(a, i), row(b, i))
            assert np.ndim(one) == np.ndim(values) - len(shape), name
            if name in near:
                assert type(one) is complex and within_ulps(values[i], one), name
            else:
                assert same_bits(values[i], one), name
    # a single signal against a stack broadcasts over the stack
    single = row(b, (0,) * len(shape))
    forms = quad_form(a, kers.d_f, single)
    assert all(same_bits(forms[i], quad_form(row(a, i), kers.d_f, single))
               for i in np.ndindex(shape))

    # the charged residual of stacked pairs, one pair at a time
    grid, modes = field
    ck = charged_field_kernels(modes, grid)
    pairs = [stack(grid, clean=True) for _ in range(4)]
    residuals = charged_substitution_residual(ProbeSet(*pairs[:2]), ProbeSet(*pairs[2:]), ck)
    assert residuals.shape == shape
    for i in np.ndindex(shape):
        one = charged_substitution_residual(ProbeSet(*(row(s, i) for s in pairs[:2])),
                                            ProbeSet(*(row(s, i) for s in pairs[2:])), ck)
        assert type(one) is float and within_ulps(residuals[i], one)
