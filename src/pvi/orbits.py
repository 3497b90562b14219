"""Exact arithmetic on rational half-period vectors under the level-2 congruence group.

A solution label is a pair (mu, nu) of rationals taken modulo Z x Z and
modulo a global sign.  The group of integer matrices congruent to the
identity mod 2 acts on these classes by matrix-vector multiplication;
because the action preserves denominators, every orbit of a rational
class is finite.

Orbit questions are answered in closed form.  A nonzero class of level N
(the lcm of its denominators) lies in the orbit fixed by N alone when N is
odd, and by N and the parity of its numerators at level N when N is even.
The eligible classes of level N > 2 form one orbit of J_2(N)/2 classes for
odd N and three orbits of J_2(N)/6 for even N, with J_2 the Jordan
totient; at N = 2 the three half-integer classes are fixed points.
Listing reads the same rule: an orbit is the canonical classes of its
level in ascending order, filtered by numerator parity at even level; the
breadth-first closure that checks the rule is in :mod:`pvi.selftest`.

Conventions fixed here and relied on throughout the package:

* canonical representative: reduce both components into [0, 1), then take
  the lexicographic minimum of v and -v (so equal classes give equal
  pairs); it is computed on the integer numerators at the level N, and a
  pair hashes by its numerators and denominators, never by Fraction.__hash__;
* column-vector action A @ (mu, nu)^T followed by canonicalization;
* generators [[1, 2], [0, 1]] and [[1, 0], [2, 1]] (with -I absorbed by
  the sign quotient) and their inverses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Union

from ._record import record

RationalLike = Union[Fraction, int, str]

# Listing an orbit is guarded by this cap on the class denominator, which
# bounds the orbit size (below N^2/2) and so the work.
# Deciding calls (same_orbit, orbit_partition, the orbit-to-curve dictionary)
# are closed form and answer above it.
MAX_ORBIT_DENOMINATOR = 1000

# orbit_partition factors N by trial division, so it takes at most
# sqrt(MAX_PARTITION_DENOMINATOR) = 10^6 steps.
MAX_PARTITION_DENOMINATOR = 10**12


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a 'p/q' or integer string (q > 0 after reduction)."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical 'p/q' string (plain integer when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@record(order=True)
class RationalPair:
    """Canonical representative of a class (mu, nu) mod Z^2 and global sign.

    Both components lie in [0, 1); among the class representatives v and -v
    the lexicographically smaller is stored.  Construct via
    :func:`canonicalize` (the constructor does not normalize).

    The hash is that of the tuple (mu.numerator, mu.denominator,
    nu.numerator, nu.denominator).  Fractions are kept in lowest terms, so it
    agrees with equality, and it skips Fraction.__hash__, a modular inverse
    per component that would dominate building large orbit sets.

    A pair has slots and no ``__dict__``: ``mu``, ``nu`` and ``_hash``, the
    hash computed once.  The public constructor ``RationalPair(mu, nu)`` is
    unchanged and fills ``_hash`` on the first hash; every pair this module
    builds itself comes from :func:`_pair` with its hash already kept.
    """

    __slots__ = ("mu", "nu", "_hash")

    mu: Fraction
    nu: Fraction

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # built by the public constructor, not hashed yet
            mu, nu = self.mu, self.nu
            h = hash((mu.numerator, mu.denominator, nu.numerator, nu.denominator))
            _set_hash(self, h)
            return h

    def __iter__(self):
        return iter((self.mu, self.nu))

    @property
    def denominator(self) -> int:
        """Least N with (mu, nu) in (1/N)Z^2; invariant under the group action."""
        return lcm(self.mu.denominator, self.nu.denominator)

    def is_zero(self) -> bool:
        return self.mu == 0 and self.nu == 0

    def is_half_integer(self) -> bool:
        """True when the class lies in (Z/2)^2, i.e. labels a trivial solution."""
        return self.mu.denominator <= 2 and self.nu.denominator <= 2

    def __str__(self) -> str:
        return f"({format_rational(self.mu)}, {format_rational(self.nu)})"

    def as_strings(self) -> list[str]:
        return [format_rational(self.mu), format_rational(self.nu)]


_new = object.__new__
_set_mu = RationalPair.__dict__["mu"].__set__
_set_nu = RationalPair.__dict__["nu"].__set__
_set_hash = RationalPair.__dict__["_hash"].__set__


def _pair(mu: Fraction, nu: Fraction, h: int) -> RationalPair:
    """The pair (mu, nu) with its hash h kept, without the frozen constructor's
    setattr calls; h must be the hash of (mu.numerator, mu.denominator,
    nu.numerator, nu.denominator), which each caller has from integers it holds."""
    p = _new(RationalPair)
    _set_mu(p, mu)
    _set_nu(p, nu)
    _set_hash(p, h)
    return p


def canonicalize(v: Iterable[RationalLike]) -> RationalPair:
    """Canonical representative of the class of v modulo Z^2 and sign.

    canonicalize(v) == canonicalize(-v) == canonicalize(v + k) for any
    integer vector k.
    """
    mu, nu = map(_as_fraction, v)
    p, q, r, s = mu.numerator, mu.denominator, nu.numerator, nu.denominator
    N = lcm(q, s)
    a, b = p * (N // q), r * (N // s)
    if 0 <= a < N and 0 <= b < N and (a, b) <= (-a % N, -b % N):  # already canonical
        if type(v) is RationalPair and v.mu is mu and v.nu is nu:
            return v
        return _pair(mu, nu, hash((p, q, r, s)))
    return _canonical_at(N, a, b)


def _as_fraction(x: RationalLike) -> Fraction:
    if type(x) is Fraction:
        return x
    return parse_rational(x) if isinstance(x, str) else Fraction(x)


def _canonical_at(N: int, a: int, b: int) -> RationalPair:
    """Canonical representative of the class of (a/N, b/N): the numerators taken
    mod N, then the smaller of (a, b) and (-a, -b) mod N."""
    a, b = a % N, b % N
    na, nb = -a % N, -b % N
    if (na, nb) < (a, b):
        a, b = na, nb
    ga, gb = gcd(a, N), gcd(b, N)
    return _pair(Fraction(a, N), Fraction(b, N), hash((a // ga, N // ga, b // gb, N // gb)))


@record
class Gamma2Matrix:
    """Integer matrix [[a, b], [c, d]] with det 1 and a, d odd, b, c even."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1, got {self.a * self.d - self.b * self.c}")
        if self.a % 2 == 0 or self.d % 2 == 0 or self.b % 2 != 0 or self.c % 2 != 0:
            raise ValueError("matrix is not congruent to the identity mod 2")

    @classmethod
    def identity(cls) -> "Gamma2Matrix":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "Gamma2Matrix") -> "Gamma2Matrix":
        return Gamma2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Gamma2Matrix":
        return Gamma2Matrix(self.d, -self.b, -self.c, self.a)

    def moebius(self, tau: complex) -> complex:
        """Action on the upper half-plane, (a*tau + b) / (c*tau + d)."""
        return (self.a * tau + self.b) / (self.c * tau + self.d)


GEN_SHEAR_UPPER = Gamma2Matrix(1, 2, 0, 1)
GEN_SHEAR_LOWER = Gamma2Matrix(1, 0, 2, 1)
GENERATORS = (GEN_SHEAR_UPPER, GEN_SHEAR_LOWER)


def act(matrix: Gamma2Matrix, v: RationalPair) -> RationalPair:
    """Column-vector action: canonicalize(matrix @ (mu, nu)^T), on the level numerators."""
    N, a, b = level_numerators(v)
    return _canonical_at(N, matrix.a * a + matrix.b * b, matrix.c * a + matrix.d * b)


@record
class StandardForm:
    """Standard-form data of a nonzero class: mu = m*M/N, nu = n*M/N.

    N is the lcm of the reduced denominators of mu and nu, M the gcd of the
    lifted numerators (so gcd(M, N) = 1 and gcd(m, n) = 1), and ``standard``
    is the representative (0, M/N), (M/N, 0) or (M/N, M/N) selected by the
    parity of (m, n): (even, odd), (odd, even), (odd, odd) respectively.
    Every orbit contains its standard representative.

    Like :class:`RationalPair` it has slots and no ``__dict__``; the public
    constructor is unchanged, and :func:`standard_form` builds through
    :func:`_standard` without the frozen constructor's setattr calls.
    """

    __slots__ = ("M", "N", "m", "n", "standard")

    M: int
    N: int
    m: int
    n: int
    standard: RationalPair


_set_M, _set_N, _set_m, _set_n, _set_standard = (
    StandardForm.__dict__[name].__set__ for name in StandardForm.__slots__)


def _standard(M: int, N: int, m: int, n: int, standard: RationalPair) -> StandardForm:
    """StandardForm(M, N, m, n, standard), with the slots set directly."""
    sf = _new(StandardForm)
    _set_M(sf, M)
    _set_N(sf, N)
    _set_m(sf, m)
    _set_n(sf, n)
    _set_standard(sf, standard)
    return sf


def standard_form(v: RationalPair) -> StandardForm:
    """Reduce a nonzero class to its standard form; rejects the zero class."""
    if v.is_zero():
        raise ValueError("zero vector has no standard form")
    N, a, b = level_numerators(v)
    M = gcd(a, b)
    m, n = a // M, b // M
    standard = _canonical_at(N, *((0, M) if m % 2 == 0 else (M, 0) if n % 2 == 0 else (M, M)))
    return _standard(M, N, m, n, standard)


def merging_matrix(N: int) -> Gamma2Matrix:
    """The explicit matrix [[-N, N+1], [-1-N^2, 1+N(N+1)]] merging standard classes.

    Maps the class of (M/N, 0) to that of (0, M/N).  Only exists in the
    group for odd N: for even N the classes (M/N, 0), (0, M/N), (M/N, M/N)
    lie in three distinct orbits and no such matrix exists, so even N is
    rejected.
    """
    if N < 1 or N % 2 == 0:
        raise ValueError(f"merging matrix exists only for odd N >= 1, got {N}")
    return Gamma2Matrix(-N, N + 1, -1 - N * N, 1 + N * (N + 1))


def level_numerators(v: RationalPair) -> tuple[int, int, int]:
    """(N, a, b) with v = (a/N, b/N) and N its level, the lcm of the denominators."""
    mu, nu = v.mu, v.nu
    q, s = mu.denominator, nu.denominator
    N = lcm(q, s)
    return N, mu.numerator * (N // q), nu.numerator * (N // s)


def _level_classes(N: int, parity: Optional[tuple[int, int]] = None) -> Iterator[tuple[int, int]]:
    """Numerators (a, b) of the canonical classes (a/N, b/N) of level N, ascending,
    and only those with (a % 2, b % 2) == parity if it is given.

    Canonical: (a, b) <= (-a mod N, -b mod N), so a <= N/2, and b <= N/2 where
    a is its own negative.  Of level N: gcd(a, b, N) = gcd(b, gcd(a, N)) = 1.
    """
    (pa, pb), step = parity or (0, 0), 2 if parity else 1
    for a in range(pa, N // 2 + 1, step):
        g = gcd(a, N)
        stop = N // 2 + 1 if a == 0 or 2 * a == N else N
        for b in range(pb, stop, step):
            if g == 1 or gcd(b, g) == 1:
                yield a, b


def _level_table(N: int) -> tuple[list[Fraction], list[tuple[int, int]]]:
    """fr[k] = k/N and nd[k] = (numerator, denominator) of k/N for 0 <= k < N, so
    the pair (fr[a], fr[b]) hashes as hash(nd[a] + nd[b])."""
    fr = [Fraction(k, N) for k in range(N)]
    return fr, [(f.numerator, f.denominator) for f in fr]


def orbit_numerators(v: RationalPair) -> tuple[int, list[tuple[int, int]]]:
    """Level N of v and the numerators (a, b) of its orbit's members (a/N, b/N), ascending:
    every canonical class of level N, or at even N those with v's numerator parity."""
    N, a, b = level_numerators(v)
    if N > MAX_ORBIT_DENOMINATOR:
        raise ValueError(f"denominator {N} exceeds the orbit enumeration cap "
                         f"{MAX_ORBIT_DENOMINATOR}")
    return N, list(_level_classes(N, (a % 2, b % 2) if N % 2 == 0 else None))


def enumerate_orbit(v: RationalPair) -> frozenset[RationalPair]:
    """Full orbit of the class of v as canonical representatives."""
    N, members = orbit_numerators(v)
    fr, nd = _level_table(N)
    return frozenset(_pair(fr[a], fr[b], hash(nd[a] + nd[b])) for a, b in members)


def orbit_key(v: RationalPair) -> tuple[int, ...]:
    """Key of the orbit of a nonzero class: N, plus its numerators mod 2 for even N."""
    N, a, b = level_numerators(v)
    if a == b == 0:
        raise ValueError("zero vector has no standard form")
    return (N,) if N % 2 else (N, a % 2, b % 2)


def same_orbit(v1: RationalPair, v2: RationalPair) -> bool:
    """True when the classes of v1 and v2 lie in one orbit."""
    if v1.is_zero() or v2.is_zero():
        raise ValueError("orbit membership is defined for nonzero classes")
    return orbit_key(canonicalize(v1)) == orbit_key(canonicalize(v2))


def eligible_classes(N: int) -> list[RationalPair]:
    """All classes (m/N, n/N) whose numerator gcd is coprime to N, canonicalized, ascending."""
    fr, nd = _level_table(N)
    return [_pair(fr[a], fr[b], hash(nd[a] + nd[b])) for a, b in _level_classes(N)]


def _jordan_totient2(N: int) -> int:
    """J_2(N) = N^2 * prod(1 - p^-2) over the primes p dividing N, by trial division."""
    out, rest, p = N * N, N, 2
    while p * p <= rest:
        if rest % p == 0:
            out = out // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out = out // (rest * rest) * (rest * rest - 1)
    return out


def orbit_partition(N: int) -> list[int]:
    """Sorted orbit sizes partitioning all eligible classes of denominator level N.

    [1, 1, 1] at N = 2, one orbit of J_2(N)/2 classes for odd N and three
    of J_2(N)/6 for even N; N above MAX_PARTITION_DENOMINATOR is rejected.
    """
    if N < 2:
        raise ValueError("orbit partition is defined for N >= 2")
    if N > MAX_PARTITION_DENOMINATOR:
        raise ValueError(
            f"denominator {N} exceeds the orbit partition cap {MAX_PARTITION_DENOMINATOR}"
        )
    if N == 2:
        return [1, 1, 1]
    j2 = _jordan_totient2(N)
    return [j2 // 2] if N % 2 else [j2 // 6] * 3
