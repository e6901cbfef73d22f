"""Truncated number-basis oracle for operator products and orderings.

Matrices in a truncated Fock basis provide the brute-force side of every
identity check: Heisenberg-picture position/momentum operators, density
matrices for the standard state families, and averages of operator
products under the orderings used throughout (forward/backward time
ordering on the two contour branches, normal, antinormal, symmetric, or
none).  The driven system enters exactly through a c-number shift of the
position factors, so no time-dependent integration is ever needed.

Every factor is c*a + d*adag + s, bidiagonal in the number basis, so a
product of m factors reaches only the diagonals -m..m, and so does its
trace against rho.  No ordered average forms a dim x dim product.  Plain
and contour-ordered products are built as bands (``_band_step``) and
traced against those diagonals of rho (``_diagonals``).  Normal,
antinormal and symmetric (Weyl) products contract the coefficients of the
factors' a / adag / identity parts with one table of ordered ladder
moments per ordering (``ladder_moments``), read from the same diagonals;
``contract_subsets`` does so for every subset of the factors at once.
Only the truncated a and adag enter, never [a, adag] = 1, so the oracle
stays independent of the pairing rules that it checks.  Tables that
depend on sizes alone (ladder matrices, roots, gather indices) are made
once per size and are read-only.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grids import SampledSignal
from .kernels import OscillatorParams

MAX_FACTORS = 8
NORM_DEFICIT_LIMIT = 1e-10

ORDERINGS = ("double_time", "normal", "weyl", "antinormal", "plain")


class FockError(ValueError):
    """Invalid Fock-space request."""


class TruncationError(FockError):
    """The truncated basis cannot represent the requested state."""


def ladder(dim: int):
    """Annihilation and creation matrices; a[n-1, n] = sqrt(n).

    The pair is made once per dim and is read-only.
    """
    if dim < 2:
        raise FockError("need dim >= 2 for a ladder pair")
    return _ladder_pair(dim)


def _read_only(*arrays):
    """The arrays, each made read-only: memoised tables are shared by every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.lru_cache
def _ladder_pair(dim: int):
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return _read_only(a, a.conj().T)


def ladder_parts(observable: str, t, p: OscillatorParams):
    """(c, d) with X(t) = c*a + d*adag for X = q or p, at one time or an array.

    q(t) = (q0/sqrt 2) [a e^{-i w0 t} + adag e^{+i w0 t}]; p(t), mass times
    the velocity of q(t), is (i p0/sqrt 2) [adag e^{+i w0 t} - a e^{-i w0 t}].
    """
    phase = np.exp(-1j * p.omega0 * t)
    if observable == "q":
        scale = p.q0 / math.sqrt(2.0)
        return scale * phase, scale * np.conj(phase)
    if observable == "p":
        scale = 1j * p.p0 / math.sqrt(2.0)
        return -scale * phase, scale * np.conj(phase)
    raise FockError(f"unknown observable {observable!r}")


def _quadrature(observable: str, p: OscillatorParams, t: float, dim: int) -> np.ndarray:
    c, d = ladder_parts(observable, t, p)
    a, adag = ladder(dim)
    return c * a + d * adag


def heisenberg_q(p: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """Matrix of q(t) in the truncated basis."""
    return _quadrature("q", p, t, dim)


def heisenberg_p(p: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """Matrix of p(t) in the truncated basis."""
    return _quadrature("p", p, t, dim)


@dataclass(frozen=True)
class FockState:
    """Density matrix in the truncated basis, with its truncation deficit."""

    rho: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise FockError("density matrix must be square")
        if not (np.all(np.isfinite(rho)) and math.isfinite(self.norm_deficit)):
            raise FockError("density matrix and truncation deficit must be finite")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def make_state(kind: str, dim: int, *, alpha: complex = 0.0, n: int = 0,
               nbar: float = 0.0) -> FockState:
    """Build vacuum, coherent(alpha), fock(n) or thermal(nbar) states.

    States that lose weight to truncation are renormalised; if the lost
    weight exceeds 1e-10 the truncation is refused rather than silently
    degraded.  A coherent state with |alpha|^2 >= dim loses more than
    that (its Poisson weight past the mean), so it is refused before its
    amplitudes, which could overflow, are formed.
    """
    if dim < 2:
        raise FockError("need dim >= 2")
    if not (cmath.isfinite(alpha) and math.isfinite(nbar)):
        raise FockError(f"alpha and nbar must be finite, got alpha={alpha}, nbar={nbar}")
    if kind in ("vacuum", "fock"):
        level = n if kind == "fock" else 0
        if not 0 <= level < dim:
            raise TruncationError(f"fock level {level} outside truncated basis of {dim}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[level, level] = 1.0
        return FockState(rho, 0.0)
    if kind == "coherent":
        if abs(alpha) >= math.sqrt(dim):
            raise TruncationError(f"coherent(alpha={alpha}) has mean occupation "
                                  f"|alpha|^2 >= dim={dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        for k in range(1, dim):
            amps[k] = amps[k - 1] * alpha / math.sqrt(k)
        amps *= np.exp(-abs(alpha) ** 2 / 2.0)
        norm2 = float(np.vdot(amps, amps).real)
        deficit = 1.0 - norm2
        if deficit > NORM_DEFICIT_LIMIT:
            raise TruncationError(
                f"coherent(alpha={alpha}) loses {deficit:.3e} of its norm at dim={dim}")
        psi = amps / math.sqrt(norm2)
        return FockState(np.outer(psi, psi.conj()), deficit)
    if kind == "thermal":
        if nbar < 0:
            raise FockError("thermal occupation must be nonnegative")
        ratio = nbar / (nbar + 1.0)
        weights = ratio ** np.arange(dim) / (nbar + 1.0)
        deficit = 1.0 - float(weights.sum())
        if deficit > NORM_DEFICIT_LIMIT:
            raise TruncationError(
                f"thermal(nbar={nbar}) loses {deficit:.3e} of its norm at dim={dim}")
        return FockState(np.diag(weights / weights.sum()).astype(complex), deficit)
    raise FockError(f"unknown state kind {kind!r}")


def expectation(state: FockState, op: np.ndarray) -> complex:
    """Tr[rho O] as the elementwise sum of rho * O^T."""
    return complex((state.rho * op.T).sum())


def require_headroom(state: FockState, m: int) -> None:
    """Refuse m factors when levels >= dim - m hold over NORM_DEFICIT_LIMIT.

    m raising operators would lift those levels past the truncated basis.
    """
    spill = float(state.rho.diagonal()[max(state.dim - m, 0):].real.sum())
    if spill > NORM_DEFICIT_LIMIT:
        raise TruncationError(
            f"{spill:.3e} of the state sits at levels >= {state.dim - m}, which a "
            f"product of {m} factors lifts past the truncated basis of {state.dim}")


# -- ordered products -----------------------------------------------------------

Shift = Union[SampledSignal, Callable[[float], complex], None]


@dataclass(frozen=True)
class Factor:
    observable: str            # 'q' or 'p'
    time: float
    branch: Optional[str] = None   # 'plus', 'minus' or None

    def __post_init__(self):
        if self.observable not in ("q", "p"):
            raise FockError(f"unknown observable {self.observable!r}")
        if self.branch not in ("plus", "minus", None):
            raise FockError(f"unknown branch {self.branch!r}")
        if not math.isfinite(self.time):
            raise FockError(f"factor time must be finite, got {self.time}")


@dataclass(frozen=True)
class OrderedProductSpec:
    """An ordered product: factors, an ordering rule, optional c-number shift.

    The shift is the classical displacement added to every q factor; it is
    evaluated at the factor times either from grid samples or a callable.
    """

    factors: tuple
    ordering: str
    shift: Shift = None

    def __post_init__(self):
        factors = tuple(
            f if isinstance(f, Factor) else Factor(*f) for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if self.ordering not in ORDERINGS:
            raise FockError(f"unknown ordering {self.ordering!r}")
        if len(factors) > MAX_FACTORS:
            raise FockError(f"at most {MAX_FACTORS} factors supported")
        if self.ordering == "double_time":
            if any(f.branch is None for f in factors):
                raise FockError("double_time ordering needs a branch on every factor")


def _shift_value(shift: Shift, t: float) -> complex:
    if shift is None:
        return 0.0
    value = shift.value_at(t) if isinstance(shift, SampledSignal) else complex(shift(t))
    if not cmath.isfinite(value):
        raise FockError(f"shift must be finite, got {value} at t={t}")
    return value


def _factor_parts(f: Factor, p: OscillatorParams, shift: Shift):
    """(c, d, s): the factor as c*a + d*adag + s*identity."""
    c, d = ladder_parts(f.observable, f.time, p)
    return c, d, (_shift_value(shift, f.time) if f.observable == "q" else 0.0)


@functools.lru_cache
def _diagonal_index(dim: int, m: int):
    """Row and column indices that gather the diagonals -m..m from rho padded by m rows."""
    i = np.arange(dim)
    return _read_only(np.arange(2 * m + 1)[:, None] + i, i)


def _diagonals(rho: np.ndarray, m: int) -> np.ndarray:
    """R[m+k, i] = rho[i+k, i] for k = -m..m, zero where i+k leaves the basis.

    With band(P)[m+k, i] = P[i, i+k], Tr[rho P] = sum(band(P) * R).
    """
    dim = rho.shape[0]
    padded = np.zeros((dim + 2 * m, dim), dtype=complex)
    padded[m:m + dim] = rho
    return padded[_diagonal_index(dim, m)]


@functools.lru_cache
def _band_roots(rows: int, dim: int) -> np.ndarray:
    """sqrt(f mod dim) for the flat indices f < rows*dim - (dim - 1) of a band; read-only."""
    return _read_only(np.sqrt(np.arange(rows * dim - (dim - 1)) % dim))


def _band_step(band: np.ndarray, c: complex, d: complex, s: complex) -> np.ndarray:
    """band(F P) from band(P), for F = c*a + d*adag + s.

    (F P)[i, i+k] = c sqrt(i+1) P[i+1, i+k] + d sqrt(i) P[i-1, i+k] + s P[i, i+k]:
    a moves an entry one diagonal up, adag one diagonal down.  On the
    flattened band both moves are one offset of dim - 1, with the root of
    each entry's column; column 0, whose root is 0, stands for the entries
    that leave the band, so the sums run over contiguous arrays.
    """
    dim = band.shape[1]
    root = _band_roots(*band.shape)
    flat = band.reshape(-1)
    out = np.multiply(s, band, order="C")
    moved = out.reshape(-1)         # a view, since out is C-contiguous
    moved[dim - 1:] += c * root * flat[:len(root)]
    moved[:len(root)] += d * root * flat[dim - 1:]
    return out


def _product_average(rho: np.ndarray, parts) -> complex:
    """Tr[rho F_1 ... F_m] for factors F = (c, d, s), leftmost first."""
    m = len(parts)
    band = np.zeros((2 * m + 1, rho.shape[0]), dtype=complex)
    band[m] = 1.0
    for c, d, s in reversed(parts):
        band = _band_step(band, c, d, s)
    return complex((band * _diagonals(rho, m)).sum())


@functools.lru_cache
def _ladder_roots(dim: int, order: int) -> np.ndarray:
    """S[j, n] = sqrt(n!/(n-j)!), the entry of a^j at (n-j, n); zero for n < j; read-only."""
    roots = np.zeros((order + 1, dim))
    roots[0] = 1.0
    for j in range(1, min(order, dim - 1) + 1):
        roots[j, j:] = roots[j - 1, j:] * np.sqrt(np.arange(1, dim - j + 1))
    return _read_only(roots)


def _padded(diagonals: np.ndarray, order: int) -> np.ndarray:
    """The diagonals with `order` zero columns on each side: column i at i + order."""
    out = np.zeros((diagonals.shape[0], diagonals.shape[1] + 2 * order), dtype=complex)
    out[:, order:-order or None] = diagonals
    return out


@functools.lru_cache
def _table_gather(dim: int, order: int, ordering: str):
    """(weights, rows, columns) of the normal or antinormal table, read-only.

    Entry [j, k] of the table (``ladder_moments``) is
    sum(weights[j, k] * padded[rows, columns][j, k]), padded the ``_padded``
    diagonals, and S the ``_ladder_roots``:
    normal <adag^j a^k> = sum_l rho[l+k, l+j] S[j, l+j] S[k, l+k], l the
    level a^k lowers to; antinormal <a^k adag^j> = sum_u rho[u-j, u-k]
    S[j, u] S[k, u], u the level adag^j raises to.
    """
    j, k, lvl = np.ogrid[:order + 1, :order + 1, :dim]
    if ordering == "normal":
        rise = _ladder_roots(dim + order, order)
        weights, columns = rise[j, lvl + j] * rise[k, lvl + k], order + lvl + j
    else:
        fall = _ladder_roots(dim, order)
        weights, columns = fall[j, lvl] * fall[k, lvl], order + lvl - k
    return _read_only(weights, order + k - j, columns)


def _weyl_table(diagonals: np.ndarray, order: int) -> np.ndarray:
    """<Sym(adag^j a^k)> for j + k <= order, zero beyond.

    (a + adag)^n sums every word of n ladder factors once, and its
    diagonal k - j holds exactly the comb(n, k) words with j adag and k a,
    n = j + k; their average is the symmetric product.
    """
    table = np.zeros((order + 1, order + 1), dtype=complex)
    band = np.zeros_like(diagonals, dtype=float)
    band[order] = 1.0
    for n in range(order + 1):
        if n:
            band = _band_step(band, 1.0, 1.0, 0.0)
        traces = (band * diagonals).sum(axis=1)
        for k in range(n + 1):
            table[n - k, k] = traces[order + 2 * k - n] / math.comb(n, k)
    return table


_TABLE_ORDERINGS = ("normal", "antinormal", "weyl")


def ladder_moments(state: FockState, order: int, ordering: str = "normal") -> np.ndarray:
    """T[j, k] = <adag^j a^k> in the given ordering, for j, k <= order.

    normal <adag^j a^k>; antinormal <a^k adag^j>; weyl the equal-weight
    average over every order of the j adag and k a factors, for
    j + k <= order.  Each entry is read from the diagonals -order..order
    of rho with the truncated ladder matrix elements.
    """
    if ordering not in _TABLE_ORDERINGS:
        raise FockError(f"no ladder-moment table for ordering {ordering!r}")
    diagonals = _diagonals(state.rho, order)
    if ordering == "weyl":
        return _weyl_table(diagonals, order)
    weights, rows, columns = _table_gather(diagonals.shape[1], order, ordering)
    return (weights * _padded(diagonals, order)[rows, columns]).sum(axis=-1)


def _poly_step(poly: np.ndarray, c: complex, d: complex, s: complex) -> np.ndarray:
    """Coefficients of (c x + d y + s) P from those of P, on the last two axes.

    Entry [j, k] holds the coefficient of y^j x^k: y stands for adag, x for a.
    """
    grown = s * poly
    grown[..., 1:] += c * poly[..., :-1]
    grown[..., 1:, :] += d * poly[..., :-1, :]
    return grown


def contract_moments(moments: np.ndarray, parts) -> complex:
    """Average of the product of factors c*a + d*adag + s, one (c, d, s) per factor.

    The coefficients P[j, k] of x^k y^j in the product of (c x + d y + s)
    are contracted with the leading block of a ``ladder_moments`` table
    of the wanted ordering, which must reach order len(parts).
    """
    m = len(parts)
    poly = np.zeros((m + 1, m + 1), dtype=complex)     # [adag power, a power]
    poly[0, 0] = 1.0
    for c, d, s in parts:
        poly = _poly_step(poly, c, d, s)
    return complex((poly * moments[:m + 1, :m + 1]).sum())


def contract_subsets(moments: np.ndarray, parts) -> np.ndarray:
    """``contract_moments`` of every subset of the factors, indexed by bitmask.

    Entry b is the average of the product of the factors k with bit k of b
    set.  The coefficient tables of all 2^m subsets grow in m steps, each
    step appending a copy with one more factor, and are contracted with
    the table in one product.  The table must reach order len(parts).
    """
    m = len(parts)
    poly = np.zeros((1, m + 1, m + 1), dtype=complex)
    poly[0, 0, 0] = 1.0
    for c, d, s in parts:
        poly = np.concatenate((poly, _poly_step(poly, c, d, s)))
    return poly.reshape(len(poly), -1) @ moments[:m + 1, :m + 1].ravel()


def _contour_order(labels) -> list:
    """Indices of (branch, time) labels in contour order, leftmost first.

    The backward ('minus') branch stands left of the forward ('plus')
    branch; on the backward branch the earliest time is leftmost, on the
    forward branch the latest.  Equal times on one branch keep their input
    order.
    """
    minus = [i for i, (branch, _) in enumerate(labels) if branch == "minus"]
    plus = [i for i, (branch, _) in enumerate(labels) if branch == "plus"]
    return (sorted(minus, key=lambda i: labels[i][1])
            + sorted(plus, key=lambda i: -labels[i][1]))


def ordered_average(state: FockState, spec: OrderedProductSpec,
                    p: OscillatorParams) -> complex:
    """Tr[rho O] with O assembled according to the requested ordering.

    plain: the factors as given.  double_time: the factors in contour
    order (``_contour_order``), so contour-earlier operators go right.
    Both are one banded product.  normal, antinormal and weyl: every
    factor is c*a + d*adag + s, contracted with the ordering's
    ``ladder_moments`` table by ``contract_moments``.
    """
    factors = spec.factors
    require_headroom(state, len(factors))
    parts = [_factor_parts(f, p, spec.shift) for f in factors]
    if spec.ordering in _TABLE_ORDERINGS:
        return contract_moments(ladder_moments(state, len(parts), spec.ordering), parts)
    if spec.ordering == "double_time":
        parts = [parts[i] for i in _contour_order([(f.branch, f.time) for f in factors])]
    return _product_average(state.rho, parts)


# -- double-ordered exponential pair ---------------------------------------------

Probe = Sequence[tuple]          # sequence of (time, weight)


@functools.lru_cache
def _ladder_exp_sizes(dim: int) -> np.ndarray:
    """sqrt(j!/i!) / (j-i)! at (i, j >= i), zero below the diagonal; read-only.

    Each entry is sqrt(comb(j, i) / (j-i)!) from exact integers: the int
    division and the square root each round once, so every entry is
    within about one ulp.
    """
    sizes = np.zeros((dim, dim))
    for j in range(dim):
        for i in range(j + 1):
            sizes[i, j] = math.sqrt(math.comb(j, i) / math.factorial(j - i))
    sizes.flags.writeable = False
    return sizes


def _ladder_exp(c: complex, dim: int) -> np.ndarray:
    """exp(c*a) in the truncated basis, c^(j-i) sqrt(j!/i!) / (j-i)! at (i, j >= i).

    a is nilpotent there, so the series ends and the matrix is exact.
    exp(d*adag) is the transpose of exp(d*a), because a is real.
    """
    n = np.arange(dim)
    lag = n[None, :] - n[:, None]                                     # j - i
    upper = lag >= 0
    k = np.where(upper, lag, 0)
    powers = np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(dim - 1, c))))
    return np.where(upper, powers[k] * _ladder_exp_sizes(dim), 0.0)


def _double_ordered(state: FockState, minus_probe: Probe, plus_probe: Probe,
                    p: OscillatorParams) -> complex:
    """Tr[rho U], U the product of exp(+-i w q(t)) factors in branch order.

    exp(+i w q(t)) on the backward branch and exp(-i w q(t)) on the forward
    one, in contour order (``_contour_order``).  Weights at equal times on
    one branch add into one factor, since q(t) commutes with itself (the
    truncated factors would not commute exactly).  Each factor is normal
    ordered, exp(c a + d adag) = e^{cd/2} exp(d adag) exp(c a).
    """
    dim = state.dim
    merged = {}
    for branch, probe in (("minus", minus_probe), ("plus", plus_probe)):
        for t, w in probe:
            merged[branch, t] = merged.get((branch, t), 0.0) + w
    labels = list(merged)
    op = np.eye(dim, dtype=complex)
    for i in _contour_order(labels):
        sign = 1j if labels[i][0] == "minus" else -1j
        c, d = (sign * merged[labels[i]] * x for x in ladder_parts("q", labels[i][1], p))
        op = op @ (np.exp(c * d / 2) * (_ladder_exp(d, dim).T @ _ladder_exp(c, dim)))
    return expectation(state, op)


def reality_check(state: FockState, plus_probe: Probe, minus_probe: Probe,
                  p: OscillatorParams) -> float:
    """Residual of conj(Phi(eta-, eta+)) = Phi(conj eta+, conj eta-).

    Both sides are the double-ordered exponential pair, each exponential
    exact in the truncated basis (``_ladder_exp``).  The truncated pair
    obeys the symmetry exactly, so the residual is rounding alone.
    """
    phi = _double_ordered(state, minus_probe, plus_probe, p)
    swapped = _double_ordered(
        state,
        [(t, np.conj(w)) for t, w in plus_probe],
        [(t, np.conj(w)) for t, w in minus_probe],
        p,
    )
    return abs(np.conj(phi) - swapped)
