"""Numerical evaluation of the doubly periodic layer: wp, half-period values,
the level-2 invariant t(tau), Picard solution points, the four-term derivative
identity, and the degree-3 multiplication check.

Everything is computed from q-series in double precision:

* theta constants with nome q = exp(i*pi*tau) give the three half-period
  values e1, e2, e3 (geometric convergence for Im tau bounded away from 0);
* wp and wp' use the exponential Fourier series in qbar = q^2 after reducing
  the argument to the centered fundamental cell of the lattice Z + tau*Z.

Arguments closer to a lattice point than :data:`POLE_THRESHOLD` raise
:class:`PoleProximityError` instead of returning a huge value, and Im tau below
:data:`IM_TAU_FLOOR`, where the series lose accuracy, raises :class:`PrecisionError`.
Re tau is first reduced exactly into [-1, 1], which keeps the lattice and q.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .curves import TRIPLING_F, TRIPLING_G
from .orbits import RationalPair, canonicalize

_PI = math.pi
_TWO_PI_I = 2j * _PI

IM_TAU_FLOOR = 0.1
POLE_THRESHOLD = 1e-6
_SERIES_TOL = 1e-16
_MAX_TERMS = 2000


class EllipticError(ValueError):
    """Base class for evaluation failures in this module."""


class PrecisionError(EllipticError):
    """tau too close to the real axis (or a cusp) for reliable double precision."""


class PoleProximityError(EllipticError):
    """Evaluation point too close to a pole or a vanishing denominator."""


@dataclass(frozen=True)
class EllipticInvariants:
    """Half-period values, cubic coefficients, and the level-2 invariant at tau."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    t: complex


@dataclass(frozen=True)
class AlphaTuple:
    """Four parameters (a0, a1, a2, a3) of the symmetric form; exact or numeric."""

    a0: Union[Fraction, complex]
    a1: Union[Fraction, complex]
    a2: Union[Fraction, complex]
    a3: Union[Fraction, complex]

    def __iter__(self):
        return iter((self.a0, self.a1, self.a2, self.a3))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)


def _require_tau(tau: complex) -> complex:
    """tau - 2k with the real part in [-1, 1]; the subtraction is exact."""
    tau = complex(tau)
    if not (tau.imag > 0):
        raise EllipticError(f"tau must lie in the upper half-plane, got {tau}")
    if not cmath.isfinite(tau):
        raise EllipticError(f"tau must be finite, got {tau}")
    if tau.imag < IM_TAU_FLOOR:
        raise PrecisionError(
            f"Im tau = {tau.imag:g} below the precision floor {IM_TAU_FLOOR:g}"
        )
    return complex(math.remainder(tau.real, 2), tau.imag)


def half_periods(tau: complex) -> tuple[complex, complex, complex, complex]:
    """(0, 1/2, tau/2, (1+tau)/2) for the lattice Z + tau*Z."""
    tau = complex(tau)
    return 0j, 0.5 + 0j, tau / 2, (1 + tau) / 2


def theta_constants(tau: complex):
    """Theta constants (theta2, theta3, theta4) at nome q = exp(i*pi*tau)."""
    tau = _require_tau(tau)
    q = cmath.exp(1j * _PI * tau)
    if q == 0:
        raise PrecisionError(f"nome underflows at tau = {tau}")
    t2 = 1 + 0j  # sum q^{n(n+1)}, factor 2*q^{1/4} applied at the end
    t3 = 1 + 0j
    t4 = 1 + 0j
    qabs = abs(q)
    for n in range(1, _MAX_TERMS):
        sq = q ** (n * n)
        tr = q ** (n * (n + 1))
        t3 += 2 * sq
        t4 += 2 * ((-1) ** n) * sq
        t2 += tr
        if qabs ** (n * n) < _SERIES_TOL:
            break
    else:
        raise PrecisionError("theta series did not converge")
    t2 *= 2 * _root4(q)
    return t2, t3, t4


def _root4(q: complex) -> complex:
    # principal fourth root; q = exp(i pi tau) never crosses the cut for Im tau > 0
    return cmath.exp(cmath.log(q) / 4)


def invariants_at(tau: complex) -> EllipticInvariants:
    """Half-period values e_k = wp(omega_k), cubic coefficients, and t(tau).

    e1 + e2 + e3 = 0 by construction; t = (e3 - e1)/(e2 - e1) avoids {0, 1}
    for any tau in the upper half-plane, and a degenerate numerical value
    raises :class:`PrecisionError`.
    """
    t2, t3, t4 = theta_constants(tau)
    p2 = _PI * _PI / 3
    e1 = p2 * (t3 ** 4 + t4 ** 4)
    e2 = -p2 * (t2 ** 4 + t3 ** 4)
    e3 = p2 * (t2 ** 4 - t4 ** 4)
    scale = max(abs(e1), abs(e2), abs(e3))
    if min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) < 1e-12 * scale:
        raise PrecisionError(f"half-period values nearly collide at tau = {tau}")
    t = (e3 - e1) / (e2 - e1)
    if min(abs(t), abs(t - 1)) < 1e-12:
        raise PrecisionError(f"t(tau) degenerates at tau = {tau}")
    g2 = 2 * (e1 * e1 + e2 * e2 + e3 * e3)
    g3 = 4 * e1 * e2 * e3
    return EllipticInvariants(e1=e1, e2=e2, e3=e3, g2=g2, g3=g3, t=t)


def _reduce_cell(z: complex, tau: complex) -> complex:
    """Representative of z mod Z + tau*Z with cell coordinates in [-1/2, 1/2)."""
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    a -= math.floor(a + 0.5)
    b -= math.floor(b + 0.5)
    return complex(a + b * tau.real, b * tau.imag)


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest point of Z + tau*Z."""
    zr = _reduce_cell(complex(z), complex(tau))
    best = abs(zr)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            if m or n:
                best = min(best, abs(zr - (m + n * tau)))
    return best


def _series_point(z: complex, tau: complex) -> complex:
    zr = _reduce_cell(complex(z), complex(tau))
    if lattice_distance(zr, tau) < POLE_THRESHOLD:
        raise PoleProximityError(
            f"z = {z} within {POLE_THRESHOLD:g} of the period lattice"
        )
    return zr


def wp(z: complex, tau: complex) -> complex:
    """Weierstrass wp(z | tau) for the lattice Z + tau*Z."""
    tau = _require_tau(tau)
    zr = _series_point(z, tau)
    qbar = cmath.exp(_TWO_PI_I * tau)
    u = cmath.exp(_TWO_PI_I * zr)
    s = 1.0 / 12 + u / (1 - u) ** 2
    qn = 1 + 0j
    for _ in range(1, _MAX_TERMS):
        qn *= qbar
        w = qn * u
        v = qn / u
        term = w / (1 - w) ** 2 + v / (1 - v) ** 2 - 2 * qn / (1 - qn) ** 2
        s += term
        if abs(term) < _SERIES_TOL * max(1.0, abs(s)) and abs(qn) < 1e-8:
            break
    else:
        raise PrecisionError(f"wp series did not converge at tau = {tau}")
    return _TWO_PI_I ** 2 * s


def wp_prime(z: complex, tau: complex) -> complex:
    """Derivative wp'(z | tau); odd and lattice-periodic."""
    tau = _require_tau(tau)
    zr = _series_point(z, tau)
    qbar = cmath.exp(_TWO_PI_I * tau)
    u = cmath.exp(_TWO_PI_I * zr)
    s = u * (1 + u) / (1 - u) ** 3
    qn = 1 + 0j
    for _ in range(1, _MAX_TERMS):
        qn *= qbar
        w = qn * u
        v = qn / u
        term = w * (1 + w) / (1 - w) ** 3 - v * (1 + v) / (1 - v) ** 3
        s += term
        if abs(term) < _SERIES_TOL * max(1.0, abs(s)) and abs(qn) < 1e-8:
            break
    else:
        raise PrecisionError(f"wp' series did not converge at tau = {tau}")
    return _TWO_PI_I ** 3 * s


def _normalized(wp_value: complex, inv: EllipticInvariants) -> complex:
    """(wp - e1)/(e2 - e1) for a value of wp and the invariants at its tau."""
    return (wp_value - inv.e1) / (inv.e2 - inv.e1)


def normalized_w(z: complex, tau: complex) -> complex:
    """w(z) = (wp(z) - e1)/(e2 - e1), the normalized elliptic coordinate."""
    inv = invariants_at(tau)
    return _normalized(wp(z, tau), inv)


PairLike = Union[RationalPair, Sequence]


def _as_pair(v: PairLike) -> RationalPair:
    if isinstance(v, RationalPair):
        return v
    return canonicalize(v)


def _label_point(pair: RationalPair, tau: complex) -> tuple[complex, complex]:
    """(tau - 2k, p) for mu + nu*tau = (mu + 2k*nu) + nu*(tau - 2k): p takes the
    first part mod 1 in Fractions, so no float ever holds 2k*nu."""
    tau = complex(tau)
    reduced = _require_tau(tau)
    k = int(tau.real - reduced.real) // 2
    mu = (pair.mu + 2 * k * pair.nu) % 1 if k else pair.mu
    return reduced, float(mu) + float(pair.nu) * reduced


def picard_eval(v: PairLike, tau: complex) -> tuple[complex, complex]:
    """Point (t, y) of the Picard solution labeled by the class (mu, nu).

    Half-integer classes are rejected: p(tau) = mu + nu*tau would sit on a
    half-period, making y constantly one of 0, 1, t.
    """
    pair = _as_pair(v)
    if pair.is_half_integer():
        raise ValueError(
            f"{pair} lies in (Z/2)^2: the corresponding solution is trivial"
        )
    tau, p = _label_point(pair, tau)
    inv = invariants_at(tau)
    return inv.t, _normalized(wp(p, tau), inv)


def reduction_residual(alpha: Union[AlphaTuple, Sequence], v: PairLike, tau: complex) -> complex:
    """The four-term derivative sum sum_k alpha_k * wp'(mu + nu*tau + omega_k | tau).

    Vanishing identically in tau is exactly the condition for the class
    (mu, nu) to give a solution at parameters alpha; the value at a single
    tau is the pointwise residual.  Linear in alpha.
    """
    a = list(alpha)
    if len(a) != 4:
        raise ValueError("alpha must have four components")
    pair = _as_pair(v)
    tau, p = _label_point(pair, tau)
    total = 0j
    for ak, om in zip(a, half_periods(tau)):
        if ak == 0:
            continue
        total += complex(ak) * wp_prime(p + om, tau)
    return total


def triple_check(z: complex, tau: complex) -> tuple[complex, complex]:
    """Both sides of the multiplication identity w(3z) = y * (f(y,t)/g(y,t))^2.

    y = w(z); raises on pole proximity of z or 3z and when the denominator
    g(y, t) is too close to zero for a meaningful comparison.
    """
    tau = _require_tau(tau)
    inv = invariants_at(tau)
    y = _normalized(wp(z, tau), inv)
    lhs = _normalized(wp(3 * z, tau), inv)
    t = inv.t
    fval = complex(TRIPLING_F(y=y, t=t))
    gval = complex(TRIPLING_G(y=y, t=t))
    scale = max(1.0, abs(y), abs(t)) ** 4
    if abs(gval) < 1e-9 * scale:
        raise PoleProximityError(
            f"tripling denominator g(y, t) = {gval:g} too small at z = {z}"
        )
    rhs = y * (fval / gval) ** 2
    return lhs, rhs
