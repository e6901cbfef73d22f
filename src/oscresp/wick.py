"""Contraction combinatorics and Fock-space verification of pair expansion.

A product of branch-labelled position factors expands into a sum over all
ways of replacing disjoint factor pairs by c-number contractions, the kind
of each contraction being fixed by the branch labels of its two factors:
both forward -> time-ordered kernel, both backward -> its conjugate, mixed
-> the plain kernel with the backward time first.  The expansion carries
every term with coefficient one; applying the generating quadratic
derivative operator n times produces each n-pair pattern n! times, and
the 1/n! of the exponential restores unit coefficients.  Contractions are
evaluated from the analytic closed forms at exact time differences, so
none of this inherits grid error.  One loop, ``_pairing_sum``, sums every
pairing expansion: ``verify_wick`` with the pair values of one table
(``pair_table``) against the normally ordered averages of every leftover
subset (``fock.contract_subsets``), and ``functionals.gaussian_moments``,
which every moment prediction reaches, against products of c-numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fock
from .grids import _require_int
from .kernels import OscillatorParams, osc_d_value, osc_df_value


class WickError(ValueError):
    """Invalid expansion request."""


def _require_factor_count(m: int) -> int:
    m = _require_int(m, "factor count", WickError)
    if m > fock.MAX_FACTORS:
        raise WickError(f"factor count {m} outside 0..{fock.MAX_FACTORS}")
    return m


@dataclass(frozen=True)
class WickTerm:
    """One contraction pattern: index pairs with kinds, and the leftovers."""

    pairs: tuple          # ((i, j), ...) with i < j
    kinds: tuple          # 'F', 'Fstar' or 'cross' per pair
    rest: tuple           # uncontracted factor indices, ascending


def enumerate_pairings(m: int) -> tuple:
    """All sets of disjoint index pairs of range(m), with their leftovers.

    Includes the empty pairing.  Returned as a tuple of (pairs, rest)
    tuples, made once per m; for even m the number of perfect pairings is
    (m-1)!!.
    """
    return _pairings(_require_factor_count(m))


@functools.lru_cache
def _pairings(m: int) -> tuple:
    """The pairings of ``enumerate_pairings``, built once per m."""

    def recurse(indices):
        if not indices:
            return [((), ())]
        first, remainder = indices[0], indices[1:]
        out = []
        for pairs, rest in recurse(remainder):
            out.append((pairs, (first,) + rest))
        for j in range(len(remainder)):
            partner = remainder[j]
            others = remainder[:j] + remainder[j + 1:]
            for pairs, rest in recurse(others):
                out.append((((first, partner),) + pairs, rest))
        return out

    return tuple(recurse(tuple(range(m))))


def _pair_kind(branch_i: str, branch_j: str) -> str:
    if branch_i == "plus" and branch_j == "plus":
        return "F"
    if branch_i == "minus" and branch_j == "minus":
        return "Fstar"
    return "cross"


def hori_expand(factors) -> list:
    """Expand branch-labelled factors into WickTerms with kinds assigned.

    factors: sequence of (branch, time) with branch 'plus' or 'minus'.
    Mixed pairs are normalised so the kernel argument is the backward
    time minus the forward time.
    """
    factors = list(factors)
    _require_factor_count(len(factors))
    for branch, _ in factors:
        if branch not in ("plus", "minus"):
            raise WickError(f"factor branch must be 'plus' or 'minus', got {branch!r}")
    terms = []
    for pairs, rest in enumerate_pairings(len(factors)):
        kinds = tuple(_pair_kind(factors[i][0], factors[j][0]) for i, j in pairs)
        terms.append(WickTerm(pairs=pairs, kinds=kinds, rest=rest))
    return terms


def pair_value(ordering: str, f_i: fock.Factor, f_j: fock.Factor,
               p: OscillatorParams) -> complex:
    """c-number pair rule of an ordering, i*hbar included, for q factors f_i left of f_j.

    At tau = t_i - t_j: double_time the contraction of the kind the
    branches fix, plain i hbar D(tau), weyl (i hbar/2) [D(tau) + D(-tau)],
    antinormal i hbar [D(tau) + D(-tau)] and normal 0.  Any other ordering
    is refused.
    """
    tau = f_i.time - f_j.time
    if ordering == "double_time":
        kind = _pair_kind(f_i.branch, f_j.branch)
        if kind == "F":
            return 1j * p.hbar * osc_df_value(tau, p)
        if kind == "Fstar":
            return -1j * p.hbar * np.conj(osc_df_value(tau, p))
        return 1j * p.hbar * osc_d_value(tau if f_i.branch == "minus" else -tau, p)
    if ordering == "plain":
        return 1j * p.hbar * osc_d_value(tau, p)
    if ordering == "normal":
        return 0.0j
    if ordering not in ("weyl", "antinormal"):
        raise WickError(f"no pair rule for ordering {ordering!r}")
    both = osc_d_value(tau, p) + osc_d_value(-tau, p)
    return (0.5j if ordering == "weyl" else 1j) * p.hbar * both


def pair_table(ordering: str, factors, p: OscillatorParams) -> np.ndarray:
    """Symmetric m x m table of the ``pair_value`` of every factor pair i < j; zero diagonal."""
    m = len(factors)
    table = np.zeros((m, m), dtype=complex)
    for i, j in combinations(range(m), 2):
        table[i, j] = table[j, i] = pair_value(ordering, factors[i], factors[j], p)
    return table


@functools.lru_cache
def _pairing_terms(m: int) -> tuple:
    """(pairs, bitmask of the leftovers) of each pairing of ``_pairings(m)``."""
    return tuple((pairs, sum(1 << k for k in rest)) for pairs, rest in _pairings(m))


def _pairing_sum(pair, leftovers) -> complex:
    """Sum over the pairings of m = len(pair) factors of pair values times leftovers.

    pair[i][j] (i < j) is the value of the pair (i, j); leftovers[b] is the
    value of the unpaired subset with bitmask b (bit k set: factor k
    unpaired), so leftovers[0] is that of the empty subset.
    """
    total = 0.0j
    for pairs, rest in _pairing_terms(len(pair)):
        term = 1.0 + 0.0j
        for i, j in pairs:
            term *= pair[i][j]
        total += term * leftovers[rest]
    return total


def verify_wick(state: fock.FockState, factors, p: OscillatorParams) -> float:
    """|double-ordered average - pair expansion| for the given factors (``_sides``)."""
    average, expansion = _sides(state, factors, p)
    return abs(average - expansion)


def _sides(state: fock.FockState, factors, p: OscillatorParams):
    """(double-ordered average, pair expansion) of (branch, time) position factors.

    The left side is the banded Fock-oracle average of the branch-ordered
    factors, with the bits of ``fock.ordered_average``; the right side sums
    over all contraction patterns the pair values times the leftovers'
    average.  The normally ordered averages of every leftover subset come
    from one table of ladder moments (``fock.contract_subsets``), and
    ``_pairing_sum`` sums the patterns.  Both sides read one set of factor
    parts and one set of the diagonals of rho.
    """
    factors = list(factors)
    m = _require_factor_count(len(factors))
    spec = fock.OrderedProductSpec(tuple(("q", t, branch) for branch, t in factors),
                                   "double_time")
    parts = [fock._factor_parts(f, p, None) for f in spec.factors]
    diagonals = fock._diagonals(state.rho, m)
    order = fock._contour_order([(f.branch, f.time) for f in spec.factors])
    average = fock._product_average(diagonals, [parts[i] for i in order])
    leftovers = fock.contract_subsets(fock._moments(diagonals, m, "normal"), parts)
    expansion = _pairing_sum(pair_table("double_time", spec.factors, p).tolist(),
                             leftovers.tolist())
    return average, expansion


def pair_operator_counts(m: int, applications: int) -> dict:
    """Multiset count of pair patterns after repeated pairing applications.

    Starting from m free indices, apply `applications` times the operation
    "contract one not-yet-paired index pair" in every possible way, and
    count how often each final pattern of pairs occurs.  Each pattern with
    k pairs is produced exactly k! times by k applications, which is what
    the 1/n! of the exponential generating operator divides out.
    """
    m = _require_int(m, "m", WickError)
    applications = _require_int(applications, "applications", WickError)
    counts = {frozenset(): 1}
    for _ in range(applications):
        new_counts = {}
        for pattern, count in counts.items():
            used = {idx for pair in pattern for idx in pair}
            free = [i for i in range(m) if i not in used]
            for i, j in combinations(free, 2):
                key = pattern | {(i, j)}
                new_counts[key] = new_counts.get(key, 0) + count
        counts = new_counts
    return counts
