"""Numerical evaluation of the doubly periodic layer: wp, half-period values,
the level-2 invariant t(tau), Picard solution points, the four-term derivative
identity, and the degree-3 multiplication check.

Every call evaluates one short theta sum in double precision:

* tau is first mapped into the closed fundamental domain of SL2(Z):
  tau' = (a*tau + b)/(c*tau + d) with |Re tau'| <= 1/2 and |tau'| >= 1, so
  Im tau' >= sqrt(3)/2 and the nome q' = exp(i*pi*tau') has |q'| <= 0.066;
* the lattice Z + tau*Z is lam*(Z + tau'*Z) with lam = c*tau + d, so
  wp(z | tau) = lam^-2 wp(z/lam | tau') and wp'(z | tau) = lam^-3 wp'(z/lam | tau');
  the point mu + nu*tau of a class goes to mu' + nu'*tau' with
  (mu', nu') = (a*mu - b*nu, -c*mu + d*nu), computed on the integer
  numerators of the class, and the half-periods 1/2, tau/2, (1+tau)/2 go to
  the half-periods of tau' of parity (a, c), (b, d), (a+b, c+d) mod 2;
* one loop of four steps sums the theta series of theta_1..4(pi*z' | tau')
  and of the theta constants, and every value is a quotient of them
  (DLMF 20.7, 23.6):
  wp - e_k = pi^2 (theta_i theta_j theta_m(pi*z)/theta_1(pi*z))^2,
  e_k - e_l = +-pi^2 theta_n^4, and
  wp' = -2 pi^3 (theta_2 theta_3 theta_4)^2 theta_2 theta_3 theta_4(pi*z)/theta_1(pi*z)^3,
  with the half-period shift laws of theta for wp'(z + omega_k).  So t,
  1 - t and y are formed without subtracting nearly equal numbers.

Arguments closer to a lattice point than :data:`POLE_THRESHOLD`, measured in
the caller's lattice Z + tau*Z, raise :class:`PoleProximityError` instead of
returning a huge value.  Im tau below :data:`IM_TAU_FLOOR` raises
:class:`PrecisionError`: the values are still accurate there, but the
four-term sums are scaled by lam^-3, so the sums at matching and at
non-matching parameters no longer separate at fixed absolute tolerances.
A complex z reaches its thetas through ``_point_thetas``, a class through
``_class_thetas``; each path checks poles, a class on integers at each half-period shift.
A class of level N shifted by a half-period to a point off the lattice lies
at least |lam|*(1 - slack)/2N from it (1 - slack bounds every nonzero vector
of the reduced lattice from below), so while that bound is at least
2*POLE_THRESHOLD the shift is clear without measuring.  A shift onto the
lattice is measured (and raises), and so is every shift at a level past the
bound, which |lam| >= Im tau >= 0.1 keeps above about 25 000.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from ._record import record
from .curves import TRIPLING_F, TRIPLING_G, _four_components
from .orbits import PairLike, RationalPair, _as_pair, level_numerators, parse_rational

_PI = math.pi
_PI2 = _PI * _PI
_TWO_PI3 = 2 * _PI2 * _PI

IM_TAU_FLOOR = 0.1
POLE_THRESHOLD = 1e-6
# Terms n = 1.._THETA_TERMS beyond the central ones of each theta series.  At
# |q'| <= exp(-pi*sqrt(3)/2) < 0.066 the first omitted term is below 1e-24 of
# the largest one, for every z' in the centred cell.
_THETA_TERMS = 4
# tau' is reduced until |tau'|^2 >= 1 - _UNIT_CIRCLE_SLACK, so rounding cannot
# make the inversion cycle on the unit circle.
_UNIT_CIRCLE_SLACK = 1e-12
# (i, j) with e_i - e_j = +pi^2 theta_n^4, n fixed by the third index
_POSITIVE_DIFFERENCES = frozenset({(1, 2), (1, 3), (3, 2)})


class EllipticError(ValueError):
    """Base class for evaluation failures in this module."""


class PrecisionError(EllipticError):
    """tau too close to the real axis (or a cusp) for reliable double precision."""


class PoleProximityError(EllipticError):
    """Evaluation point too close to a pole or a vanishing denominator."""


@record
class EllipticInvariants:
    """Half-period values, cubic coefficients, and the level-2 invariant at tau."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    t: complex


@record
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


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not (tau.imag > 0):
        raise EllipticError(f"tau must lie in the upper half-plane, got {tau}")
    if not cmath.isfinite(tau):
        raise EllipticError(f"tau must be finite, got {tau}")
    return tau


def _require_tau(tau: complex) -> complex:
    tau = _check_tau(tau)
    if tau.imag < IM_TAU_FLOOR:
        raise PrecisionError(
            f"Im tau = {tau.imag:g} below the precision floor {IM_TAU_FLOOR:g}"
        )
    return tau


def _as_complex(x) -> complex:
    """complex(x); a Fraction as numerator / denominator, the correctly rounded int
    division that complex(Fraction) reaches through numbers.Rational.__float__."""
    return complex(x.numerator / x.denominator) if type(x) is Fraction else complex(x)


def _read_number(text: str) -> Union[Fraction, complex]:
    """The number a string spells: a Fraction when it is rational, else complex."""
    try:
        return parse_rational(text)
    except ValueError:
        return complex(text)


def half_periods(tau: complex) -> tuple[complex, complex, complex, complex]:
    """(0, 1/2, tau/2, (1+tau)/2) for the lattice Z + tau*Z."""
    tau = complex(tau)
    return 0j, 0.5 + 0j, tau / 2, (1 + tau) / 2


class _Reduction(NamedTuple):
    """tau0 = tau - n with n = round(Re tau), which is exact and keeps the
    lattice; [[a, b], [c, d]] in SL2(Z) maps tau0 to tau1 = (a*tau0 + b)/lam,
    lam = c*tau0 + d, in the closed fundamental domain."""

    n: int
    a: int
    b: int
    c: int
    d: int
    tau0: complex
    tau1: complex
    lam: complex


def _reduce(tau: complex) -> _Reduction:
    """The reduction of tau, which lies in the upper half-plane."""
    n = round(tau.real)
    x, y = tau.real - n, tau.imag
    a, b, c, d = 1, 0, 0, 1
    while (r2 := x * x + y * y) < 1 - _UNIT_CIRCLE_SLACK:
        # S = [[0, -1], [1, 0]], then T^-k = [[1, -k], [0, 1]], applied on the left
        x, y = -x / r2, y / r2
        k = round(x)
        x -= k
        a, b, c, d = -c - k * a, -d - k * b, a, b
    tau0 = complex(tau.real - n, tau.imag)
    return _Reduction(n, a, b, c, d, tau0, complex(x, y), c * tau0 + d)


def _centre(x: float) -> float:
    return x - math.floor(x + 0.5)


def _moved_coords(z: complex, red: _Reduction) -> tuple[float, float]:
    """Coordinates (alpha, beta) in [-1/2, 1/2] of z/lam = alpha + beta*tau1 mod Z + tau1*Z,
    mapped from z's coordinates at tau0 as a class is."""
    beta = z.imag / red.tau0.imag
    alpha = z.real - beta * red.tau0.real
    return _centre(red.a * alpha - red.b * beta), _centre(-red.c * alpha + red.d * beta)


def _half_period_indices(red: _Reduction) -> tuple[int, int, int]:
    """Indices at tau1 (1: 1/2, 2: tau1/2, 3: (1+tau1)/2) of the images of 1/2, tau/2, (1+tau)/2.

    tau/2 is n/2 + tau0/2, so the second column of the whole matrix is (b - a*n, d - c*n).
    """
    n, a, b, c, d = red[:5]
    s1 = a % 2 + 2 * (c % 2)
    s2 = (b - a * n) % 2 + 2 * ((d - c * n) % 2)
    return s1, s2, s1 ^ s2


def _cell_distance(alpha: float, beta: float, tau: complex) -> float:
    """Distance from z = alpha + beta*tau, |alpha|, |beta| <= 1/2, to Z + tau*Z for a
    reduced tau: the nearest lattice point is 0, m or k, with m = +-1 and k = +-tau
    the signs of alpha and beta.  The cell 0, m, k, m + k of a reduced basis splits
    into non-obtuse triangles, so a corner of it is nearest, and every point of
    its quarter next to 0 is at least as close to 0 as to m + k."""
    z = alpha + beta * tau
    m = 1.0 if alpha >= 0 else -1.0
    k = tau if beta >= 0 else -tau
    return min(abs(z), abs(z - m), abs(z - k))


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest point of Z + tau*Z."""
    red = _reduce(_check_tau(tau))
    return abs(red.lam) * _cell_distance(*_moved_coords(complex(z), red), red.tau1)


def _thetas(tau: complex, z: complex):
    """(t1, t2, t3, t4, c2, c3, c4, q) from one loop, for tau reduced and z centred.

    t_n = theta_n(pi*z | tau) and c_n = theta_n(0 | tau), q = exp(i*pi*tau).
    t1, t2 and c2 are divided by q^(1/4), and t1..t4 share one more positive
    factor exp(-pi*|Im z|); every quotient taken of them is homogeneous in
    both factors, and with them no term over- or underflows.
    """
    ipt = 1j * _PI * tau
    ipz = 1j * _PI * z
    shift = _PI * abs(z.imag)
    q = cmath.exp(ipt)
    up = cmath.exp(ipt + 2 * ipz)  # q*w^2 and q/w^2, w = exp(i*pi*z): both at most 1
    down = cmath.exp(ipt - 2 * ipz)
    ev = math.exp(-shift)
    even_up = even_down = ev  # q^(n^2) w^(+-2n)
    odd_up = cmath.exp(ipz - shift)  # q^(n^2+n) w^(+-(2n+1))
    odd_down = cmath.exp(-ipz - shift)
    t1, t2, t3, t4 = odd_up - odd_down, odd_up + odd_down, ev, ev
    s2 = s3 = s4 = 0j
    qe = qo = 1  # q^(n^2), q^(n^2+n)
    q2n2 = 1  # q^(2n-2)
    sign = 1
    for _ in range(_THETA_TERMS):
        q2n1 = q2n2 * q
        sign = -sign
        even_up *= up * q2n2
        even_down *= down * q2n2
        odd_up *= up * q2n1
        odd_down *= down * q2n1
        qe *= q2n1
        qo *= q2n1 * q
        even = even_up + even_down
        t3 += even
        t4 += sign * even
        t2 += odd_up + odd_down
        t1 += sign * (odd_up - odd_down)
        s2 += qo
        s3 += qe
        s4 += sign * qe
        q2n2 *= q * q
    return -1j * t1, t2, t3, t4, 2 * (1 + s2), 1 + 2 * s3, 1 + 2 * s4, q


def _difference(f: tuple, i: int, j: int) -> complex:
    """(e_i - e_j)/pi^2 at tau1 for distinct half-period indices i, j, from
    f = (theta_2^4, theta_4^4, theta_3^4), indexed by the index missing from {i, j}."""
    v = f[5 - i - j]
    return v if (i, j) in _POSITIVE_DIFFERENCES else -v


def _wp_minus_e(k: int, th) -> complex:
    """(wp(z) - e_k)/pi^2 at tau1, a square of theta quotients."""
    t1, t2, t3, t4, c2, c3, c4, _ = th
    x = (c3 * c4 * t2, c2 * c3 * t4, c2 * c4 * t3)[k - 1] / t1
    return x * x


def _wp_prime_shifted(k: int, th) -> complex:
    """wp'(z + omega_k) at tau1, omega_0 = 0, with the half-period shift laws."""
    t1, t2, t3, t4, c2, c3, c4, q = th
    scale = _TWO_PI3 * (c2 * c3 * c4) ** 2
    if k == 0:
        return -scale * t2 * t3 * t4 / t1 ** 3
    if k == 1:
        return scale * t1 * t3 * t4 / t2 ** 3
    if k == 2:
        return scale * q * t1 * t2 * t3 / t4 ** 3
    return -scale * q * t1 * t2 * t4 / t3 ** 3


def _level2(red: _Reduction, th):
    """(e1, e2, e3)/pi^2 at tau1, t, and (e2 - e1)/pi^2 at tau1 for the
    relabelled half-periods; raises on colliding values or a degenerate t."""
    c2, c3, c4, q = th[4:]
    f = (q * c2 ** 4, c4 ** 4, c3 ** 4)
    s1, s2, s3 = _half_period_indices(red)
    base = _difference(f, s2, s1)
    e = ((f[2] + f[1]) / 3, -(f[0] + f[2]) / 3, (f[0] - f[1]) / 3)
    tau = red.n + red.tau0
    # checked before dividing by base: near an odd integer cusp q underflows
    # to 0, and base with it
    if base == 0 or min(map(abs, f)) < 1e-12 * max(map(abs, e)):
        raise PrecisionError(f"half-period values nearly collide at tau = {tau}")
    t = _difference(f, s3, s1) / base
    one_minus_t = _difference(f, s2, s3) / base
    if min(abs(t), abs(one_minus_t)) < 1e-12:
        raise PrecisionError(f"t(tau) degenerates at tau = {tau}")
    return (e[s1 - 1], e[s2 - 1], e[s3 - 1]), t, base


def invariants_at(tau: complex) -> EllipticInvariants:
    """Half-period values e_k = wp(omega_k), cubic coefficients, and t(tau).

    e1 + e2 + e3 = 0 by construction; t = (e3 - e1)/(e2 - e1) avoids {0, 1}
    for any tau in the upper half-plane, and a degenerate numerical value
    raises :class:`PrecisionError`.
    """
    red = _reduce(_require_tau(tau))
    (e1, e2, e3), t, _ = _level2(red, _thetas(red.tau1, 0j))
    scale = _PI2 / red.lam ** 2
    e1, e2, e3 = e1 * scale, e2 * scale, e3 * scale
    g2 = 2 * (e1 * e1 + e2 * e2 + e3 * e3)
    g3 = 4 * e1 * e2 * e3
    return EllipticInvariants(e1=e1, e2=e2, e3=e3, g2=g2, g3=g3, t=t)


def _point_thetas(z: complex, red: _Reduction):
    """The thetas at z moved to tau1, once z is clear of the caller's lattice."""
    alpha, beta = _moved_coords(complex(z), red)
    _require_clear(abs(red.lam) * _cell_distance(alpha, beta, red.tau1), z)
    return _thetas(red.tau1, alpha + beta * red.tau1)


def _require_clear(distance: float, z) -> None:
    if distance < POLE_THRESHOLD:
        raise PoleProximityError(
            f"z = {z} within {POLE_THRESHOLD:g} of the period lattice"
        )


def _normalized(th, red: _Reduction, base: complex) -> complex:
    """(wp(z) - e1)/(e2 - e1) at the original tau, from the thetas at z moved to tau1."""
    return _wp_minus_e(_half_period_indices(red)[0], th) / base


def wp(z: complex, tau: complex) -> complex:
    """Weierstrass wp(z | tau) for the lattice Z + tau*Z."""
    red = _reduce(_require_tau(tau))
    th = _point_thetas(z, red)
    c2, c3 = th[4], th[5]
    # wp = e_2 + pi^2 (...)^2 at tau1, with e_2 = -pi^2 (theta_2^4 + theta_3^4)/3
    return _PI2 * (_wp_minus_e(2, th) - (th[7] * c2 ** 4 + c3 ** 4) / 3) / red.lam ** 2


def wp_prime(z: complex, tau: complex) -> complex:
    """Derivative wp'(z | tau); odd and lattice-periodic."""
    red = _reduce(_require_tau(tau))
    return _wp_prime_shifted(0, _point_thetas(z, red)) / red.lam ** 3


def _label_point(pair: RationalPair, red: _Reduction):
    """((N, A, B), p1): the class moved to tau1 is (A/N, B/N) with A, B in
    [-N/2, N/2), and p1 = A/N + B/N*tau1 its point.

    mu + nu*tau = (mu + n*nu) + nu*tau0, so the class at tau0 is (mu + n*nu, nu).
    Solving mu + nu*tau0 = lam*(mu' + nu'*tau1) for tau1 = [[a, b], [c, d]] tau0
    gives (mu', nu') = [[a, -b], [-c, d]] (mu, nu), taken on the level numerators.
    """
    n, a, b, c, d = red[:5]
    N, A, B = level_numerators(pair)
    A = (A + B * n) % N
    A, B = (a * A - b * B) % N, (-c * A + d * B) % N
    A, B = (A - N if 2 * A >= N else A), (B - N if 2 * B >= N else B)
    return (N, A, B), A / N + B / N * red.tau1


def _class_thetas(pair: RationalPair, red: _Reduction, shifts: Sequence[int]):
    """The thetas at the class's point p1 moved to tau1, once p1 + omega_k, k in shifts,
    is clear of the lattice, with cell coordinates (u, w)/2N taken on the integers.

    A shift with (u, w) != (0, 0) mod 2N is clear without measuring when
    |lam|*(1 - slack)/2N >= 2*POLE_THRESHOLD: (u + w*tau1)/2N lies off the
    lattice of the reduced tau1 by a nonzero lattice vector over 2N, and no
    such vector is shorter than 1 - slack.  Any other shift is measured.
    """
    (N, A, B), p1 = _label_point(pair, red)
    clear = abs(red.lam) * (1 - _UNIT_CIRCLE_SLACK) / (2 * N) >= 2 * POLE_THRESHOLD
    for k in shifts:
        u = (2 * A + N * (k & 1)) % (2 * N)
        w = (2 * B + N * (k >> 1)) % (2 * N)
        if clear and (u or w):
            continue
        u, w = (u - 2 * N if u >= N else u), (w - 2 * N if w >= N else w)
        distance = abs(red.lam) * _cell_distance(u / (2 * N), w / (2 * N), red.tau1)
        if distance < POLE_THRESHOLD:  # z is built only for the message
            _require_clear(distance, float(pair.mu) + float(pair.nu) * (red.n + red.tau0))
    return _thetas(red.tau1, p1)


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
    red = _reduce(_require_tau(tau))
    th = _class_thetas(pair, red, (0,))
    _, t, base = _level2(red, th)
    return t, _normalized(th, red, base)


def reduction_residual(alpha: Union[AlphaTuple, Sequence], v: PairLike, tau: complex) -> complex:
    """The four-term derivative sum sum_k alpha_k * wp'(mu + nu*tau + omega_k | tau).

    Vanishing identically in tau is exactly the condition for the class
    (mu, nu) to give a solution at parameters alpha; the value at a single
    tau is the pointwise residual.  Linear in alpha; a non-finite alpha
    component raises ValueError before any work.  A string component is read
    as the number it spells, a Fraction when rational.  A term is dropped
    only when its component is zero in value: a Fraction that rounds to 0.0
    keeps its term (and its pole check).
    """
    raw = _four_components(alpha)
    a = [_read_number(ak) if isinstance(ak, str) else ak for ak in raw]
    weights = [_as_complex(ak) for ak in a]
    if not all(map(cmath.isfinite, weights)):
        raise ValueError(f"alpha must be finite, got {', '.join(map(str, raw))}")
    pair = _as_pair(v)
    red = _reduce(_require_tau(tau))
    terms = [(ck, k) for ak, ck, k in zip(a, weights, (0, *_half_period_indices(red))) if ak != 0]
    if not terms:
        return 0j
    th = _class_thetas(pair, red, [k for _, k in terms])
    total = 0j
    for ck, k in terms:
        total += ck * _wp_prime_shifted(k, th)
    return total / red.lam ** 3


def triple_check(z: complex, tau: complex) -> tuple[complex, complex]:
    """Both sides of the multiplication identity w(3z) = y * (f(y,t)/g(y,t))^2.

    y = w(z); raises on pole proximity of z or 3z and when the denominator
    g(y, t) is too close to zero for a meaningful comparison.
    """
    red = _reduce(_require_tau(tau))
    z = complex(z)
    th = _point_thetas(z, red)
    th3 = _point_thetas(3 * z, red)
    _, t, base = _level2(red, th)
    y = _normalized(th, red, base)
    lhs = _normalized(th3, red, base)
    fval = complex(TRIPLING_F(y=y, t=t))
    gval = complex(TRIPLING_G(y=y, t=t))
    scale = max(1.0, abs(y), abs(t)) ** 4
    if abs(gval) < 1e-9 * scale:
        raise PoleProximityError(
            f"tripling denominator g(y, t) = {gval:g} too small at z = {z}"
        )
    rhs = y * (fval / gval) ** 2
    return lhs, rhs
