import math

import numpy as np
import pytest

from oscresp import fock
from oscresp.kernels import OscillatorParams, osc_df_value
from oscresp.wick import (WickError, enumerate_pairings, hori_expand,
                          pair_operator_counts, pair_value, verify_wick)

P = OscillatorParams()


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_pairing_enumeration_counts():
    two = enumerate_pairings(2)
    assert len(two) == 2                      # empty + the single pair
    three = enumerate_pairings(3)
    assert len(three) == 4                    # empty + three single pairs
    assert sum(1 for pairs, rest in three if len(pairs) == 1) == 3
    assert all(rest for pairs, rest in three)   # odd count: no perfect pairing

    for m in (2, 4, 6, 8):
        perfect = sum(1 for pairs, rest in enumerate_pairings(m) if not rest)
        assert perfect == double_factorial(m - 1)

    assert len(enumerate_pairings(0)) == 1
    with pytest.raises(WickError):
        enumerate_pairings(11)
    # built once per m, and immutable, since every caller shares it
    assert enumerate_pairings(6) is enumerate_pairings(6)
    assert isinstance(enumerate_pairings(6), tuple)


def test_pairings_partition_the_index_set():
    for pairs, rest in enumerate_pairings(6):
        seen = sorted([i for pair in pairs for i in pair] + list(rest))
        assert seen == list(range(6))


def test_hori_kind_assignment():
    terms = hori_expand([("plus", 0.0), ("plus", 1.3)])
    assert len(terms) == 2
    paired = [t for t in terms if t.pairs]
    assert paired[0].kinds == ("F",)

    terms = hori_expand([("minus", 0.7), ("plus", 0.0)])
    paired = [t for t in terms if t.pairs][0]
    assert paired.kinds == ("cross",)

    terms = hori_expand([("minus", 0.7), ("minus", 0.2)])
    paired = [t for t in terms if t.pairs][0]
    assert paired.kinds == ("Fstar",)

    with pytest.raises(WickError):
        hori_expand([("sideways", 0.0)])
    with pytest.raises(WickError):
        hori_expand([("plus", 0.0)] * 9)


def test_cross_contraction_takes_backward_time_first():
    minus, plus = fock.Factor("q", 0.9, "minus"), fock.Factor("q", 0.2, "plus")
    v1 = pair_value("double_time", minus, plus, P)
    v2 = pair_value("double_time", plus, minus, P)
    assert v1 == v2     # normalised to the same argument order


def test_normal_ordering_pairs_to_zero_and_other_orderings_are_refused():
    later, earlier = fock.Factor("q", 0.9), fock.Factor("q", 0.2)
    assert pair_value("normal", later, earlier, P) == 0.0
    with pytest.raises(WickError, match="sideways"):
        pair_value("sideways", later, earlier, P)


def test_pair_operator_counts_are_factorials():
    for m, k in [(4, 1), (4, 2), (6, 2), (6, 3)]:
        counts = pair_operator_counts(m, k)
        assert all(c == math.factorial(k) for c in counts.values())
        n_patterns = len(counts)
        # number of ways to choose k disjoint pairs out of m indices
        expected = 1
        remaining = m
        for _ in range(k):
            expected *= remaining * (remaining - 1) // 2
            remaining -= 2
        expected //= math.factorial(k)
        assert n_patterns == expected


def test_two_point_expansion_in_vacuum():
    vac = fock.make_state("vacuum", 20)
    assert verify_wick(vac, [("plus", 0.3), ("plus", 1.1)], P) < 1e-12
    assert verify_wick(vac, [("minus", 0.3), ("plus", 1.1)], P) < 1e-12
    assert verify_wick(vac, [("minus", 0.3), ("minus", 1.1)], P) < 1e-12


def test_four_point_forward_is_the_three_pairing_sum():
    vac = fock.make_state("vacuum", 20)
    times = [0.3, 0.9, 1.7, 2.2]
    assert verify_wick(vac, [("plus", t) for t in times], P) < 1e-11

    # the expansion reduces to the explicit three-pairing kernel sum
    lhs = fock.ordered_average(
        vac,
        fock.OrderedProductSpec(
            factors=tuple(("q", t, "plus") for t in times), ordering="double_time"),
        P,
    )
    t1, t2, t3, t4 = times
    prefactor = (1j * P.hbar) ** 2
    explicit = prefactor * (
        osc_df_value(t1 - t2, P) * osc_df_value(t3 - t4, P)
        + osc_df_value(t1 - t3, P) * osc_df_value(t2 - t4, P)
        + osc_df_value(t1 - t4, P) * osc_df_value(t2 - t3, P)
    )
    assert abs(lhs - explicit) < 1e-11


def test_mixed_branches_with_coherent_state():
    coh = fock.make_state("coherent", 40, alpha=1.0)
    factors = [("plus", 0.3), ("minus", 1.1), ("plus", -0.4), ("minus", 0.8)]
    assert verify_wick(coh, factors, P) < 1e-9


def test_randomized_states_branches_and_times():
    rng = np.random.default_rng(123)
    states = [
        fock.make_state("vacuum", 40),
        fock.make_state("coherent", 40, alpha=1.0),
        fock.make_state("fock", 40, n=2),
    ]
    worst = 0.0
    for _ in range(20):
        state = states[rng.integers(0, 3)]
        m = int(rng.integers(2, 5))
        factors = [("plus" if rng.random() < 0.5 else "minus",
                    float(rng.uniform(-2, 2))) for _ in range(m)]
        worst = max(worst, verify_wick(state, factors, P))
    assert worst < 1e-9


def test_verify_cap():
    vac = fock.make_state("vacuum", 10)
    assert fock.MAX_FACTORS == 8
    assert verify_wick(vac, [("plus", 0.1 * k) for k in range(8)], P) < 1e-12
    with pytest.raises(WickError):
        verify_wick(vac, [("plus", 0.1)] * 9, P)
    with pytest.raises(WickError):
        enumerate_pairings(9)
