"""Truncated number-basis oracle for operator products and orderings.

Dense matrices in a truncated Fock basis provide the brute-force side of
every identity check: Heisenberg-picture position/momentum operators,
density matrices for the standard state families, and averages of
operator products under the orderings used throughout (forward/backward
time ordering on the two contour branches, normal, antinormal, symmetric,
or none).  The driven system enters exactly through a c-number shift of
the position factors, so no time-dependent integration is ever needed.

Plain and contour-ordered products are one chain of matrix products.  The
symmetric (Weyl) product comes from the polarization identity: 2^(m-1)
m-th powers of signed factor sums, ceil(m/2) matrix products each, in
place of m! permutations.  Normal and antinormal products contract the
coefficients of the factors' a / a^dag / identity parts with one table of
ladder moments (``ladder_moments``).
"""

from __future__ import annotations

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
    """Annihilation and creation matrices; a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise FockError("need dim >= 2 for a ladder pair")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, a.conj().T


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


def heisenberg_q(p: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """Matrix of q(t) in the truncated basis."""
    return _factor_matrix(Factor("q", t), p, dim, None)


def heisenberg_p(p: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """Matrix of p(t) in the truncated basis."""
    return _factor_matrix(Factor("p", t), p, dim, None)


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
    degraded.
    """
    if dim < 2:
        raise FockError("need dim >= 2")
    if kind in ("vacuum", "fock"):
        level = n if kind == "fock" else 0
        if not 0 <= level < dim:
            raise TruncationError(f"fock level {level} outside truncated basis of {dim}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[level, level] = 1.0
        return FockState(rho, 0.0)
    if kind == "coherent":
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
    return complex(np.trace(state.rho @ op))


def require_headroom(state: FockState, m: int) -> None:
    """Refuse m factors when levels >= dim - m hold over NORM_DEFICIT_LIMIT.

    m raising operators would lift those levels past the truncated basis.
    """
    spill = float(np.sum(np.diagonal(state.rho)[max(state.dim - m, 0):].real))
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
    if isinstance(shift, SampledSignal):
        return shift.value_at(t)
    return complex(shift(t))


def _factor_parts(f: Factor, p: OscillatorParams, shift: Shift):
    """(c, d, s): the factor as c*a + d*adag + s*identity."""
    c, d = ladder_parts(f.observable, f.time, p)
    return c, d, (_shift_value(shift, f.time) if f.observable == "q" else 0.0)


def _factor_matrix(f: Factor, p: OscillatorParams, dim: int, shift: Shift) -> np.ndarray:
    c, d, s = _factor_parts(f, p, shift)
    a, adag = ladder(dim)
    op = c * a + d * adag
    return op + s * np.eye(dim) if s else op


def ladder_moments(state: FockState, order: int, antinormal: bool = False) -> np.ndarray:
    """M[j, k] = <adag^j a^k>, or <a^k adag^j> if antinormal, for j, k <= order.

    <adag^j a^k> = Tr(a^k rho adag^j) is the sum of (a^k rho) * a^j taken
    elementwise, because a is real; likewise <a^k adag^j> with rho a^k.
    a^j is nonzero only on its j-th superdiagonal, sqrt(n!/(n-j)!) at
    (n-j, n), so the table costs `order` matrix products.
    """
    dim = state.dim
    a = ladder(dim)[0].real
    shifted = [state.rho]                      # a^k rho, or rho a^k
    for _ in range(order):
        shifted.append(shifted[-1] @ a if antinormal else a @ shifted[-1])
    moments = np.empty((order + 1, order + 1), dtype=complex)
    weight = np.ones(dim)                      # superdiagonal j of a^j
    for j in range(order + 1):
        if j:
            weight = weight[:-1] * np.sqrt(np.arange(j, dim))
        for k in range(order + 1):
            moments[j, k] = np.dot(np.diagonal(shifted[k], offset=j), weight)
    return moments


def contract_moments(moments: np.ndarray, parts) -> complex:
    """Average of the product of factors c*a + d*adag + s, one (c, d, s) per factor.

    The coefficients P[j, k] of x^k y^j in the product of (c x + d y + s)
    are contracted with the leading block of a ``ladder_moments`` table,
    which must reach order len(parts): normal order for <adag^j a^k>,
    antinormal for <a^k adag^j>.
    """
    m = len(parts)
    poly = np.zeros((m + 1, m + 1), dtype=complex)     # [adag power, a power]
    poly[0, 0] = 1.0
    for c, d, s in parts:
        grown = s * poly
        grown[:, 1:] += c * poly[:, :-1]
        grown[1:, :] += d * poly[:-1, :]
        poly = grown
    return complex(np.sum(poly * moments[:m + 1, :m + 1]))


def _weyl_average(state: FockState, mats) -> complex:
    """<Sym(X_1 ... X_m)> by polarization.

    Sym(X_1 ... X_m) = 2^(1-m)/m! sum over eps in {+-1}^m with eps_1 = +1 of
    (prod eps) S^m, S = sum eps_i X_i.  Each <S^m> is Tr[(S^r rho) S^h] with
    h = ceil(m/2) and r = m - h: h matrix products per sign pattern.
    """
    m = len(mats)
    h = (m + 1) // 2
    stack = np.array(mats)
    total = 0.0j
    for bits in range(2 ** (m - 1)):
        signs = [1] + [-1 if bits >> i & 1 else 1 for i in range(m - 1)]
        powers = [np.tensordot(signs, stack, axes=1)]          # S^1 ... S^h
        while len(powers) < h:
            powers.append(powers[-1] @ powers[0])
        left = powers[m - h - 1] @ state.rho if m > h else state.rho
        total += math.prod(signs) * np.einsum("ij,ji->", left, powers[-1])
    return complex(total) * 2.0 ** (1 - m) / math.factorial(m)


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

    double_time: the factors in contour order (``_contour_order``), so
    contour-earlier operators go right.
    weyl: the equal-weight average over all factor orders, evaluated by
    the polarization identity.  normal/antinormal: every factor is
    c*a + d*adag + s, contracted with ``ladder_moments`` by
    ``contract_moments``.
    """
    dim = state.dim
    factors = spec.factors
    if not factors:
        return complex(np.trace(state.rho))
    require_headroom(state, len(factors))

    if spec.ordering in ("normal", "antinormal"):
        moments = ladder_moments(state, len(factors), antinormal=spec.ordering == "antinormal")
        return contract_moments(moments, [_factor_parts(f, p, spec.shift) for f in factors])

    mats = [_factor_matrix(f, p, dim, spec.shift) for f in factors]
    if spec.ordering == "weyl":
        return _weyl_average(state, mats)
    if spec.ordering == "double_time":
        mats = [mats[i] for i in _contour_order([(f.branch, f.time) for f in factors])]
    op = mats[0]
    for m in mats[1:]:
        op = op @ m
    return expectation(state, op)


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
