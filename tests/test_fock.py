import math
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from oscresp import fock
from oscresp.fock import (Factor, FockError, OrderedProductSpec,
                          TruncationError, heisenberg_p, heisenberg_q, ladder,
                          make_state, ordered_average, reality_check)
from oscresp.grids import SampledSignal, make_grid
from oscresp.kernels import OscillatorParams, osc_d_value, osc_df_value

P = OscillatorParams()


def test_ladder_matrix_elements():
    a, adag = ladder(2)
    assert a[0, 1] == 1.0 and np.count_nonzero(a) == 1
    a, adag = ladder(10)
    comm = a @ adag - adag @ a
    assert np.max(np.abs(comm[:9, :9] - np.eye(9))) < 1e-14
    assert np.allclose(np.diag(adag @ a), np.arange(10))
    with pytest.raises(FockError):
        ladder(1)


def test_heisenberg_operators():
    dim = 12
    a, adag = ladder(dim)
    q0 = heisenberg_q(P, 0.0, dim)
    assert np.max(np.abs(q0 - (P.q0 / np.sqrt(2)) * (a + adag))) < 1e-15
    for t in (0.0, 0.9, -2.3):
        q = heisenberg_q(P, t, dim)
        p = heisenberg_p(P, t, dim)
        assert np.max(np.abs(q - q.conj().T)) < 1e-14
        assert np.max(np.abs(p - p.conj().T)) < 1e-14


def test_vacuum_two_point_equals_plain_contraction():
    dim = 8
    vac = make_state("vacuum", dim)
    for t1, t2 in [(0.3, -0.7), (1.9, 0.2)]:
        q1, q2 = heisenberg_q(P, t1, dim), heisenberg_q(P, t2, dim)
        value = fock.expectation(vac, q1 @ q2)
        expected = P.hbar * np.exp(-1j * P.omega0 * (t1 - t2)) / (2 * P.mass * P.omega0)
        assert abs(value - expected) < 1e-15
        assert abs(value - 1j * P.hbar * osc_d_value(t1 - t2, P)) < 1e-15


def test_momentum_is_mass_times_velocity():
    dim = 16
    h = 1e-5
    for t in (0.0, 0.8):
        fd = P.mass * (heisenberg_q(P, t + h, dim) - heisenberg_q(P, t - h, dim)) / (2 * h)
        assert np.max(np.abs(heisenberg_p(P, t, dim) - fd)) < 1e-8


def test_make_state_families():
    vac = make_state("vacuum", 5)
    assert np.allclose(np.diag(vac.rho), [1, 0, 0, 0, 0])

    coh = make_state("coherent", 40, alpha=1.0)
    a, _ = ladder(40)
    assert abs(fock.expectation(coh, a) - 1.0) < 1e-10
    assert coh.norm_deficit < 1e-10

    f2 = make_state("fock", 5, n=2)
    _, adag = ladder(5)
    a, _ = ladder(5)
    assert fock.expectation(f2, adag @ a) == pytest.approx(2.0)

    th = make_state("thermal", 40, nbar=0.5)
    a, adag = ladder(40)
    assert abs(fock.expectation(th, adag @ a) - 0.5) < 1e-10
    assert abs(np.trace(th.rho) - 1.0) < 1e-12

    with pytest.raises(TruncationError):
        make_state("coherent", 4, alpha=2.0)
    with pytest.raises(TruncationError):
        make_state("fock", 4, n=7)
    with pytest.raises(FockError):
        make_state("squeezed", 4)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: make_state("coherent", 20, alpha=NAN),
    lambda: make_state("coherent", 20, alpha=INF),
    lambda: make_state("thermal", 20, nbar=NAN),
    lambda: make_state("thermal", 20, nbar=INF),
    lambda: fock.FockState(np.full((3, 3), NAN)),
    lambda: Factor("q", NAN),
    lambda: Factor("p", -INF),
], ids=["coherent-nan", "coherent-inf", "thermal-nan", "thermal-inf", "rho-nan",
        "factor-nan", "factor-inf"])
def test_non_finite_inputs_are_refused(build):
    # refused before any arithmetic: a numpy warning would fail the test
    with pytest.raises(FockError):
        build()


@pytest.mark.parametrize("alpha", [1e200, 1e200j, 4.5, -4.5j])
def test_coherent_amplitude_past_the_basis_is_refused_before_computing(alpha):
    # |alpha|^2 >= dim: the Poisson weight at and past the mean leaves the basis
    with pytest.raises(TruncationError):
        make_state("coherent", 20, alpha=alpha)


@pytest.mark.parametrize("ordering", fock.ORDERINGS)
@pytest.mark.parametrize("bad", [NAN, INF, complex(0.0, -INF)], ids=["nan", "inf", "imag-inf"])
def test_non_finite_shift_is_refused(ordering, bad):
    factors = (("q", 0.2, "plus"), ("q", 0.5, "minus"))
    spec = OrderedProductSpec(factors, ordering, lambda t: bad if t > 0.3 else 0.1)
    with pytest.raises(FockError, match="shift must be finite"):
        ordered_average(make_state("vacuum", 20), spec, P)
    grid = make_grid(64, 0.1)
    values = np.zeros(64, dtype=complex)
    values[grid.index_of(0.5)] = bad
    with pytest.raises(FockError, match="shift must be finite"):
        ordered_average(make_state("vacuum", 20), OrderedProductSpec(
            factors, ordering, SampledSignal(grid, values)), P)


@pytest.mark.parametrize("ordering", fock.ORDERINGS)
def test_truncation_too_small_for_the_product_is_refused(ordering):
    # m factors lift fock(n) to level n + m, which must sit below dim
    for n, m in [(39, 2), (38, 2), (38, 4), (36, 4)]:
        spec = OrderedProductSpec(tuple(("q", 0.1 * k, "plus") for k in range(m)), ordering)
        with pytest.raises(TruncationError):
            ordered_average(make_state("fock", 40, n=n), spec, P)
    # the plain pair still fits: <n| q(0) q(t) |n> = [(2n + 1) cos t + i sin t] / 2
    plain = OrderedProductSpec((("q", 0.0), ("q", 0.1)), "plain")
    value = ordered_average(make_state("fock", 40, n=37), plain, P)
    assert value == pytest.approx((75 * math.cos(0.1) + 1j * math.sin(0.1)) / 2, abs=1e-12)


def test_double_time_two_point_orderings():
    dim = 20
    vac = make_state("vacuum", dim)
    rng = np.random.default_rng(0)
    for _ in range(10):
        t1, t2 = rng.uniform(-4, 4, size=2)
        tau = t1 - t2
        fwd = ordered_average(vac, OrderedProductSpec(
            factors=(("q", t1, "plus"), ("q", t2, "plus")), ordering="double_time"), P)
        assert abs(fwd - 1j * P.hbar * osc_df_value(tau, P)) < 1e-12
        plain = ordered_average(vac, OrderedProductSpec(
            factors=(("q", t1, None), ("q", t2, None)), ordering="plain"), P)
        assert abs(plain - 1j * P.hbar * osc_d_value(tau, P)) < 1e-12
        bwd = ordered_average(vac, OrderedProductSpec(
            factors=(("q", t1, "minus"), ("q", t2, "minus")), ordering="double_time"), P)
        assert abs(bwd + 1j * P.hbar * np.conj(osc_df_value(tau, P))) < 1e-12


def test_mixed_branch_pair_is_a_plain_product():
    # one backward and one forward factor: backward stands left regardless
    dim = 12
    coh = make_state("coherent", 30, alpha=0.7)
    t1, t2 = 0.4, 1.6
    mixed = ordered_average(coh, OrderedProductSpec(
        factors=(("q", t2, "plus"), ("q", t1, "minus")), ordering="double_time"), P)
    q1 = heisenberg_q(P, t1, 30)
    q2 = heisenberg_q(P, t2, 30)
    assert abs(mixed - fock.expectation(coh, q1 @ q2)) < 1e-13


def test_equal_time_ties_are_order_independent():
    # position factors at the same time commute, so the stable input order
    # a tie happens to keep cannot change the ordered average
    state = make_state("coherent", 40, alpha=0.3)
    f1 = (("q", 0.5, "plus"), ("q", 1.2, "plus"), ("q", 0.5, "plus"))
    f2 = (("q", 1.2, "plus"), ("q", 0.5, "plus"), ("q", 0.5, "plus"))
    v1 = ordered_average(state, OrderedProductSpec(factors=f1, ordering="double_time"), P)
    v2 = ordered_average(state, OrderedProductSpec(factors=f2, ordering="double_time"), P)
    assert abs(v1 - v2) < 1e-12

    f3 = (("q", 0.5, "minus"), ("q", 0.5, "plus"), ("q", 0.5, "minus"))
    f4 = (("q", 0.5, "minus"), ("q", 0.5, "minus"), ("q", 0.5, "plus"))
    v3 = ordered_average(state, OrderedProductSpec(factors=f3, ordering="double_time"), P)
    v4 = ordered_average(state, OrderedProductSpec(factors=f4, ordering="double_time"), P)
    assert abs(v3 - v4) < 1e-12


def test_normal_ordering_annihilates_vacuum():
    vac = make_state("vacuum", 12)
    for factors in [
        (("q", 0.3, None),),
        (("q", 0.3, None), ("q", 1.1, None)),
        (("q", 0.3, None), ("p", 1.1, None), ("q", -0.4, None)),
    ]:
        value = ordered_average(vac, OrderedProductSpec(factors=factors, ordering="normal"), P)
        assert abs(value) < 1e-15


def test_weyl_two_point_is_symmetrized_product():
    dim = 25
    state = make_state("coherent", dim, alpha=0.4)
    t1, t2 = 0.3, 1.4
    weyl = ordered_average(state, OrderedProductSpec(
        factors=(("q", t1, None), ("q", t2, None)), ordering="weyl"), P)
    q1, q2 = heisenberg_q(P, t1, dim), heisenberg_q(P, t2, dim)
    sym = 0.5 * fock.expectation(state, q1 @ q2 + q2 @ q1)
    assert abs(weyl - sym) < 1e-13

    vac = make_state("vacuum", 8)
    equal = ordered_average(vac, OrderedProductSpec(
        factors=(("q", 0.7, None), ("q", 0.7, None)), ordering="weyl"), P)
    assert equal == pytest.approx(0.5, abs=1e-13)   # hbar/(2 m omega0)


def test_antinormal_two_point():
    # <a adag> = <adag a> + 1 shifts the plain value by the commutator part
    dim = 20
    vac = make_state("vacuum", dim)
    t1, t2 = 0.2, 1.0
    anti = ordered_average(vac, OrderedProductSpec(
        factors=(("q", t1, None), ("q", t2, None)), ordering="antinormal"), P)
    expected = (P.q0 ** 2 / 2) * (np.exp(-1j * (t1 - t2)) + np.exp(1j * (t1 - t2)))
    assert abs(anti - expected) < 1e-13


def test_shift_enters_every_q_factor():
    dim = 20
    vac = make_state("vacuum", dim)
    g = make_grid(8, 0.5)
    shift = SampledSignal(g, (0.3 + 0.0j) * np.ones(8))
    one = ordered_average(vac, OrderedProductSpec(
        factors=(("q", 0.5, "plus"),), ordering="double_time", shift=shift), P)
    assert one == pytest.approx(0.3, abs=1e-14)
    # callable shifts work the same way
    two = ordered_average(vac, OrderedProductSpec(
        factors=(("q", 0.5, "plus"),), ordering="double_time", shift=lambda t: 0.3), P)
    assert two == pytest.approx(0.3, abs=1e-14)
    # momentum factors take no shift
    pval = ordered_average(vac, OrderedProductSpec(
        factors=(("p", 0.5, None),), ordering="plain", shift=lambda t: 0.3), P)
    assert abs(pval) < 1e-15


def test_spec_validation():
    with pytest.raises(FockError):
        OrderedProductSpec(factors=(("q", 0.0, None),), ordering="double_time")
    with pytest.raises(FockError):
        OrderedProductSpec(factors=(("q", 0.0, "plus"),) * 9, ordering="plain")
    with pytest.raises(FockError):
        OrderedProductSpec(factors=(("x", 0.0, None),), ordering="plain")
    with pytest.raises(FockError):
        Factor("q", 0.0, "sideways")


def test_reality_check_examples():
    vac = make_state("vacuum", 25)
    assert reality_check(vac, [], [], P) == 0.0
    assert reality_check(vac, [(0.0, 0.5)], [(0.7, 0.5)], P) < 1e-12
    coh = make_state("coherent", 40, alpha=0.5)
    assert reality_check(coh, [(0.4, 0.5)], [(1.1, 0.4)], P) < 1e-12
    cplx = reality_check(coh, [(0.4, 0.3 + 0.4j), (2.0, -0.5)],
                         [(1.1, 0.4 - 0.3j)], P)
    assert cplx < 1e-12
    # equal times on one branch, in a superposition two levels below the top
    psi = np.array([0.6, 0.8j, 0.0, 0.0])
    near_top = fock.FockState(np.outer(psi, psi.conj()))
    tied = [(0.0, 0.5), (0.0, 0.25 + 0.1j)]
    assert reality_check(near_top, [], tied, P) < 1e-12
    assert reality_check(near_top, tied, [], P) < 1e-12


def test_ladder_exp_is_the_terminating_series():
    for dim in (2, 7, 40):
        a = ladder(dim)[0]
        for c in (0.0, 0.5, 0.3 - 0.4j):
            ref = expm(c * a)
            assert np.max(np.abs(fock._ladder_exp(c, dim) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [40, 80])
def test_ladder_exp_entries_are_correctly_rounded(dim):
    sizes = fock._ladder_exp_sizes(dim)
    assert not sizes.flags.writeable
    assert np.array_equal(fock._ladder_exp(1.0, dim), sizes)
    with mpmath.workdps(40):
        for j in range(dim):
            for i in range(j + 1):
                exact = (mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(i))
                         / mpmath.factorial(j - i))
                assert abs(mpmath.mpf(sizes[i, j]) - exact) <= 4.5e-16 * exact
    assert not np.any(np.tril(sizes, -1))


@pytest.mark.parametrize("kind", ["vacuum", "thermal", "coherent"])
def test_double_ordered_pair_matches_the_gaussian_closed_form(kind):
    # weights up to 0.5; Gaussian states give
    # <e^{A_1} ... e^{A_m}> = exp(sum <A_k> + sum_k <dA_k^2>/2 + sum_{k<l} <dA_k dA_l>)
    # for A = x a + y adag, with <dA dA'> = x y' (nbar + 1) + y x' nbar
    nbar, alpha = {"vacuum": (0.0, 0.0), "thermal": (0.4, 0.0),
                   "coherent": (0.0, 0.6 - 0.3j)}[kind]
    state = make_state(kind, 40, nbar=nbar, alpha=alpha)
    minus = [(1.2, 0.3 - 0.2j), (0.3, 0.5)]
    plus = [(0.7, 0.4 + 0.1j), (1.5, -0.5)]
    # backward branch earliest leftmost, then forward branch latest leftmost
    ordered = [(1j, minus[1]), (1j, minus[0]), (-1j, plus[1]), (-1j, plus[0])]
    parts = [tuple(sign * w * x for x in fock.ladder_parts("q", t, P))
             for sign, (t, w) in ordered]
    log_phi = sum(x * alpha + y * np.conj(alpha) + x * y * (nbar + 0.5) for x, y in parts)
    for k, (x, y) in enumerate(parts):
        for x2, y2 in parts[k + 1:]:
            log_phi += x * y2 * (nbar + 1) + y * x2 * nbar
    value = fock._double_ordered(state, minus, plus, P)
    assert abs(value - np.exp(log_phi)) < 1e-12


def test_empty_product_is_the_trace():
    coh = make_state("coherent", 30, alpha=0.2)
    value = ordered_average(coh, OrderedProductSpec(factors=(), ordering="plain"), P)
    assert value == pytest.approx(1.0, abs=1e-12)


# -- reference oracles for the weyl, normal and antinormal orderings -------------

ORACLE_DIM = 30
ORACLE_STATES = {
    "vacuum": lambda: make_state("vacuum", ORACLE_DIM),
    "coherent": lambda: make_state("coherent", ORACLE_DIM, alpha=0.8),
    "thermal": lambda: make_state("thermal", ORACLE_DIM, nbar=0.3),
}


def oracle_factors(m):
    times = np.random.default_rng(m).uniform(-2.0, 2.0, size=m)
    observables = ("q", "p", "q", "q", "p", "p")[:m]
    return tuple((obs, float(t), None) for obs, t in zip(observables, times))


def oracle_matrices(factors, shift, dim):
    mats = []
    for obs, t, _ in factors:
        if obs == "q":
            op = heisenberg_q(P, t, dim)
            if shift is not None:
                op = op + shift(t) * np.eye(dim)
        else:
            op = heisenberg_p(P, t, dim)
        mats.append(op)
    return mats


def permutation_average(state, mats):
    total = 0.0j
    orders = list(permutations(mats))
    for seq in orders:
        op = np.eye(state.dim, dtype=complex)
        for x in seq:
            op = op @ x
        total += fock.expectation(state, op)
    return total / len(orders)


def expanded_average(state, mats, antinormal):
    # every factor is c*a + d*adag + s*1; read c, d, s off its matrix
    dim = state.dim
    a, adag = ladder(dim)
    a_pow = [np.linalg.matrix_power(a, k) for k in range(len(mats) + 1)]
    adag_pow = [np.linalg.matrix_power(adag, k) for k in range(len(mats) + 1)]
    op = np.zeros((dim, dim), dtype=complex)
    for choice in product(range(3), repeat=len(mats)):
        coeff = 1.0 + 0.0j
        for x, part in zip(mats, choice):
            coeff *= (x[0, 1], x[1, 0], x[0, 0])[part]
        n_a, n_dag = choice.count(0), choice.count(1)
        if antinormal:
            op += coeff * (a_pow[n_a] @ adag_pow[n_dag])
        else:
            op += coeff * (adag_pow[n_dag] @ a_pow[n_a])
    return fock.expectation(state, op)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("kind", sorted(ORACLE_STATES))
@pytest.mark.parametrize("shift", [None, lambda t: 0.3 + 0.2j * t], ids=["bare", "shifted"])
def test_orderings_match_explicit_operator_oracles(m, kind, shift):
    state = ORACLE_STATES[kind]()
    factors = oracle_factors(m)
    mats = oracle_matrices(factors, shift, state.dim)
    references = {
        "weyl": permutation_average(state, mats),
        "normal": expanded_average(state, mats, antinormal=False),
        "antinormal": expanded_average(state, mats, antinormal=True),
    }
    for ordering, ref in references.items():
        value = ordered_average(state, OrderedProductSpec(factors, ordering, shift), P)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), ordering


# -- the dense oracle that the banded one replaced, kept as a reference -----------

def chain_average(state, mats):
    """Tr[rho X_1 ... X_m] by m dense matrix products."""
    op = np.eye(state.dim, dtype=complex)
    for x in mats:
        op = op @ x
    return complex(np.trace(state.rho @ op))


def polarization_average(state, mats):
    """<Sym(X_1 ... X_m)> by polarization.

    Sym(X_1 ... X_m) = 2^(1-m)/m! sum over eps in {+-1}^m with eps_1 = +1 of
    (prod eps) S^m, S = sum eps_i X_i.
    """
    m = len(mats)
    if m == 0:
        return complex(np.trace(state.rho))
    total = 0.0j
    for bits in range(2 ** (m - 1)):
        signs = [1] + [-1 if bits >> i & 1 else 1 for i in range(m - 1)]
        s = np.tensordot(signs, np.array(mats), axes=1)
        total += math.prod(signs) * np.trace(state.rho @ np.linalg.matrix_power(s, m))
    return complex(total) * 2.0 ** (1 - m) / math.factorial(m)


def dense_ladder_moments(state, order, antinormal):
    """<adag^j a^k> (or <a^k adag^j>) for j, k <= order, from dense matrix powers."""
    a, adag = ladder(state.dim)
    a_pow = [np.linalg.matrix_power(a, k) for k in range(order + 1)]
    adag_pow = [np.linalg.matrix_power(adag, k) for k in range(order + 1)]
    table = np.empty((order + 1, order + 1), dtype=complex)
    for j in range(order + 1):
        for k in range(order + 1):
            op = a_pow[k] @ adag_pow[j] if antinormal else adag_pow[j] @ a_pow[k]
            table[j, k] = np.trace(state.rho @ op)
    return table


def dense_average(state, spec):
    """ordered_average of spec from dense matrices, for the weyl, chain and moment forms."""
    factors = spec.factors
    mats = oracle_matrices([(f.observable, f.time, f.branch) for f in factors],
                           spec.shift, state.dim)
    if spec.ordering == "weyl":
        return polarization_average(state, mats)
    if spec.ordering in ("normal", "antinormal"):
        table = dense_ladder_moments(state, len(mats), spec.ordering == "antinormal")
        return fock.contract_moments(table, [(x[0, 1], x[1, 0], x[0, 0]) for x in mats])
    if spec.ordering == "double_time":
        # backward branch leftmost, earliest first; then the forward branch, latest first
        order = sorted(range(len(factors)), key=lambda i: (
            factors[i].branch == "plus",
            factors[i].time if factors[i].branch == "minus" else -factors[i].time))
        mats = [mats[i] for i in order]
    return chain_average(state, mats)


def test_weyl_at_max_factors_gives_gaussian_moments():
    vac = make_state("vacuum", 40)
    m = fock.MAX_FACTORS
    equal = ordered_average(vac, OrderedProductSpec(
        factors=(("q", 0.4, None),) * m, ordering="weyl"), P)
    assert m == 8
    assert abs(equal - 105 * (P.q0 ** 2 / 2) ** 4) < 1e-12 * 105
    distinct = ordered_average(vac, OrderedProductSpec(
        factors=tuple(("q", 0.3 * k, None) for k in range(m - 1)), ordering="weyl"), P)
    assert abs(distinct) < 1e-12


def test_ladder_moments_in_closed_form():
    order = 5
    j, k = np.indices((order + 1, order + 1))
    same = j == k
    factorial = np.array([math.factorial(n) for n in range(order + 1)])
    vac = fock.ladder_moments(make_state("vacuum", 20), order, "antinormal")
    assert np.max(np.abs(vac - np.where(same, factorial[j], 0.0))) < 1e-10
    thermal = make_state("thermal", 60, nbar=0.3)
    th = fock.ladder_moments(thermal, order)
    assert np.max(np.abs(th - np.where(same, factorial[j] * 0.3 ** j, 0.0))) < 1e-10
    # symmetric moments of a thermal state are j! (nbar + 1/2)^j on the diagonal; the weyl
    # table holds j + k <= its order only, so order 2 * order covers every j, k <= order
    sym = fock.ladder_moments(thermal, 2 * order, "weyl")[:order + 1, :order + 1]
    assert np.max(np.abs(sym - np.where(same, factorial[j] * 0.8 ** j, 0.0))) < 1e-10
    alpha = 0.5 - 0.3j
    coh = fock.ladder_moments(make_state("coherent", 40, alpha=alpha), order)
    assert np.max(np.abs(coh - np.conj(alpha) ** j * alpha ** k)) < 1e-10


def test_contraction_reads_the_leading_block_of_a_larger_table():
    # verify_wick contracts every leftover subset against one table of order m
    state = make_state("coherent", 40, alpha=0.6 - 0.2j)
    factors = tuple(("q", t, None) for t in (0.3, -1.1, 0.8))
    parts = [(*fock.ladder_parts("q", t, P), 0.0) for _, t, _ in factors]
    table = fock.ladder_moments(state, fock.MAX_FACTORS)
    expected = ordered_average(state, OrderedProductSpec(factors, "normal"), P)
    assert fock.contract_moments(table, parts) == expected
    assert fock.contract_moments(table, []) == table[0, 0]


def test_subset_table_holds_the_normal_average_of_every_subset():
    state = make_state("coherent", 40, alpha=0.6 - 0.2j)
    times = (0.3, -1.1, 0.8, 2.4, -0.5)
    parts = [(*fock.ladder_parts("q", t, P), 0.1 * k) for k, t in enumerate(times)]
    table = fock.ladder_moments(state, len(parts))
    subsets = fock.contract_subsets(table, parts)
    assert subsets.shape == (2 ** len(parts),)
    for mask in range(2 ** len(parts)):
        chosen = [part for k, part in enumerate(parts) if mask >> k & 1]
        expected = fock.contract_moments(table, chosen)
        assert abs(subsets[mask] - expected) <= 1e-14 * max(1.0, abs(expected))


def test_memoised_tables_are_shared_and_read_only():
    assert ladder(6) is ladder(6)
    tables = [*ladder(6), fock._ladder_roots(12, 4), fock._band_roots(9, 12),
              *fock._diagonal_index(12, 3), *fock._table_gather(12, 3, "normal"),
              *fock._table_gather(12, 3, "antinormal")]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
