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
none of this inherits grid error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fock
from .kernels import OscillatorParams, osc_d_value, osc_df_value


class WickError(ValueError):
    """Invalid expansion request."""


def _require_factor_count(m: int) -> None:
    if not 0 <= m <= fock.MAX_FACTORS:
        raise WickError(f"factor count {m} outside 0..{fock.MAX_FACTORS}")


@dataclass(frozen=True)
class WickTerm:
    """One contraction pattern: index pairs with kinds, and the leftovers."""

    pairs: tuple          # ((i, j), ...) with i < j
    kinds: tuple          # 'F', 'Fstar' or 'cross' per pair
    rest: tuple           # uncontracted factor indices, ascending


def enumerate_pairings(m: int):
    """All sets of disjoint index pairs of range(m), with their leftovers.

    Includes the empty pairing.  Returned as (pairs, rest) tuples; for
    even m the number of perfect pairings is (m-1)!!.
    """
    _require_factor_count(m)

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

    return recurse(tuple(range(m)))


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


def contraction_value(t_i: float, branch_i: str, t_j: float, branch_j: str,
                      p: OscillatorParams) -> complex:
    """c-number value, with its i*hbar prefactor, of a pair of the kind its branches fix."""
    kind = _pair_kind(branch_i, branch_j)
    if kind == "F":
        return 1j * p.hbar * osc_df_value(t_i - t_j, p)
    if kind == "Fstar":
        return -1j * p.hbar * np.conj(osc_df_value(t_i - t_j, p))
    t_minus, t_plus = (t_i, t_j) if branch_i == "minus" else (t_j, t_i)
    return 1j * p.hbar * osc_d_value(t_minus - t_plus, p)


def verify_wick(state: fock.FockState, factors, p: OscillatorParams) -> float:
    """|double-ordered average - pair expansion| for the given factors.

    The left side is the matrix-product average of the branch-ordered
    position factors; the right side sums, over all contraction patterns,
    the product of contraction values times the normally ordered average
    of the leftover factors, all read from one table of ladder moments.
    """
    factors = list(factors)
    m = len(factors)
    _require_factor_count(m)
    lhs = fock.ordered_average(state, fock.OrderedProductSpec(
        tuple(("q", t, branch) for branch, t in factors), "double_time"), p)
    moments = fock.ladder_moments(state, m)
    parts = [(*fock.ladder_parts("q", t, p), 0.0) for _, t in factors]
    contractions = {
        (i, j): contraction_value(factors[i][1], factors[i][0], factors[j][1], factors[j][0], p)
        for i, j in combinations(range(m), 2)
    }
    rhs = 0.0j
    for pairs, rest in enumerate_pairings(m):
        weight = 1.0 + 0.0j
        for pair in pairs:
            weight *= contractions[pair]
        rhs += weight * fock.contract_moments(moments, [parts[k] for k in rest])
    return abs(lhs - rhs)


def pair_operator_counts(m: int, applications: int) -> dict:
    """Multiset count of pair patterns after repeated pairing applications.

    Starting from m free indices, apply `applications` times the operation
    "contract one not-yet-paired index pair" in every possible way, and
    count how often each final pattern of pairs occurs.  Each pattern with
    k pairs is produced exactly k! times by k applications, which is what
    the 1/n! of the exponential generating operator divides out.
    """
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
