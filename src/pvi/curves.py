"""The exact polynomial layer: master sextic, canonical curves, and their identities.

Everything here is exact arithmetic over Q via :class:`~pvi.multipoly.MultiPoly`:

* the parameter-weighted sextic whose nontrivial irreducible factors are the
  only candidate curves for smooth (zero-, one-, pole- and fixed-point-free)
  solutions;
* the table of the seven canonical curves A..G (:data:`CURVE_TABLE`) and the
  reducibility surface (a quartic relation in the four parameters, with
  three distinguished lines);
* the degree-3 multiplication identity for the normalized elliptic
  coordinate w = (p - e1)/(e2 - e1), whose numerator/denominator
  factorizations produce the four quartic curves;
* rational uniformizations of the quartic curves and the S3/S4 symmetry
  substitutions permuting the curves;
* a specialization-based irreducibility certifier (never a general
  factorization algorithm).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Sequence, Union

from ._record import record
from .multipoly import MultiPoly, Scalar, grid_content, integer_grid, linear_combination

Y = MultiPoly.variable("y")
T = MultiPoly.variable("t")
Z = MultiPoly.variable("z")
ONE = MultiPoly.constant(1)

AlphaLike = Sequence[Union[Scalar, Fraction]]


class CurveId(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"

    def __str__(self) -> str:
        return self.value


class CurveRow(NamedTuple):
    """A canonical curve; a parameter point on its pattern; the Kummer line that
    is a conic's pattern (None for a quartic, whose pattern is the nonzero
    multiples of ``alpha``); and a class (mu, nu) whose Picard solution traces it."""

    poly: MultiPoly
    alpha: tuple[Fraction, ...]
    line: str | None
    picard_class: tuple[Fraction, ...]


def _row(poly: str, alpha: str, line: str | None, picard_class: str) -> CurveRow:
    return CurveRow(MultiPoly.parse(poly), tuple(map(Fraction, alpha.split())), line,
                    tuple(map(Fraction, picard_class.split())))


CURVE_TABLE: dict[CurveId, CurveRow] = {
    CurveId.A: _row("y^2 - t", "1 1 2 2", "L1", "1/4 0"),
    CurveId.B: _row("y^2 - 2*y + t", "1 2 1 2", "L2", "0 1/4"),
    CurveId.C: _row("y^2 - 2*y*t + t", "1 2 2 1", "L3", "1/4 1/4"),
    CurveId.D: _row("3*y^4 - 4*y^3*t - 4*y^3 + 6*y^2*t - t^2", "9 1 1 1", None, "1/3 0"),
    CurveId.E: _row("y^4 - 6*y^2*t + 4*y*t^2 + 4*y*t - 3*t^2", "1 9 1 1", None, "1/6 0"),
    CurveId.F: _row("y^4 - 4*y^3 + 6*y^2*t - 4*y*t^2 + t^2", "1 1 9 1", None, "0 1/6"),
    CurveId.G: _row("y^4 - 4*y^3*t + 6*y^2*t - 4*y*t + t^2", "1 1 1 9", None, "1/6 1/6"),
}

# Every reader of a curve polynomial goes through this dict, not the table, so
# that replacing an entry reaches them all.
CURVES: dict[CurveId, MultiPoly] = {cid: row.poly for cid, row in CURVE_TABLE.items()}

QUARTIC_CURVES = tuple(cid for cid, row in CURVE_TABLE.items() if row.line is None)


_Y2, _YM1, _YMT = Y ** 2, (Y - 1) ** 2, (Y - T) ** 2
# The sextic's four basis sextics, one per parameter.  Each is built as a
# product in the order the full formula multiplies it out, so a combination
# of them keeps that formula's term order.
_MASTER_BASIS = (
    _Y2 * _YM1 * _YMT,
    -(T * _YM1 * _YMT),
    -((1 - T) * _Y2 * _YMT),
    -(T * (T - 1) * _Y2 * _YM1),
)
# The quartic's basis quartics for a0, a2 and a1, in the order
# a0*(y-1)^2*y^2 - a2*y^2 - t*(a1*(y-1)^2 - a2*y^2) first meets their terms.
_P0_BASIS = ((Y - 1) ** 2 * Y ** 2, -(Y ** 2) + T * Y ** 2, -(T * (Y - 1) ** 2))


def master_poly(alpha: AlphaLike) -> MultiPoly:
    """Parameter-weighted sextic in (y, t); linear in the four parameters.

    a0*y^2*(y-1)^2*(y-t)^2 - a1*t*(y-1)^2*(y-t)^2
    - a2*(1-t)*y^2*(y-t)^2 - a3*t*(t-1)*y^2*(y-1)^2

    Being linear in alpha, it is built as the combination sum a_i * B_i of
    four constant basis sextics, with the term order of the product formula.
    """
    return linear_combination([Fraction(a) for a in alpha], _MASTER_BASIS)


def p0_poly(alpha: AlphaLike) -> MultiPoly:
    """Quartic cofactor of (y - t)^2 in the sextic when the fourth parameter vanishes.

    a0*(y-1)^2*y^2 - a2*y^2 - t*(a1*(y-1)^2 - a2*y^2), built like
    :func:`master_poly` from three constant basis quartics.
    """
    a0, a1, a2 = (Fraction(a) for a in alpha[:3])
    return linear_combination((a0, a2, a1), _P0_BASIS)


# ----------------------------------------------------------------------
# reducibility surface
# ----------------------------------------------------------------------

_LINE_PAIRINGS = {"L1": ((0, 1), (2, 3)), "L2": ((0, 2), (1, 3)), "L3": ((0, 3), (1, 2))}


def _kummer_expression(a):
    """(sum a_i^2 - 2 sum_{i<j} a_i a_j)^2 - 64 a0 a1 a2 a3, over Fractions or MultiPolys."""
    sym2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    return (sum(x * x for x in a) - 2 * sym2) ** 2 - 64 * a[0] * a[1] * a[2] * a[3]


def kummer_defect(alpha: AlphaLike) -> Fraction:
    """LHS - RHS of the quartic surface relation, exactly.

    The relation is homogeneous of degree 4, so it is evaluated on the
    integers D*a_i, D the lcm of the denominators, and divided by D^4.
    """
    a = [Fraction(x) for x in alpha]
    den = lcm(*(x.denominator for x in a))
    return Fraction(_kummer_expression([x.numerator * (den // x.denominator) for x in a]), den ** 4)


def kummer_condition(alpha: AlphaLike) -> tuple[bool, Fraction]:
    """(holds, defect): whether the four parameters lie on the reducibility surface."""
    defect = kummer_defect(alpha)
    return defect == 0, defect


def kummer_defect_poly() -> MultiPoly:
    """The defect as a polynomial in the parameter variables a0..a3."""
    return _kummer_expression([MultiPoly.variable(f"a{i}") for i in range(4)])


def signed_sum_product() -> MultiPoly:
    """Product of (u0 + e1*u1 + e2*u2 + e3*u3) over the 8 sign patterns.

    The factors with e1 = +1 and -1 pair into a difference of squares, so
    the product is built as four of them, u0^2 - (u1 + e2*u2 + e3*u3)^2 for
    (e2, e3) in {+1, -1}^2, multiplied as (q0*q1)*(q2*q3); it has the same
    terms in the same order as the eight linear factors multiplied in turn.
    """
    u0, *rest = [MultiPoly.variable(f"u{i}") for i in range(4)]
    square = u0 * u0
    q = []
    for signs in product((1, -1), repeat=2):
        s = linear_combination((1, *signs), rest)
        q.append(square - s * s)
    return (q[0] * q[1]) * (q[2] * q[3])


def verify_kummer_equivalence() -> bool:
    """Exact ring identity: the 8-fold signed product equals the defect at a_j = u_j^2."""
    subs = {f"a{i}": MultiPoly.variable(f"u{i}") ** 2 for i in range(4)}
    return signed_sum_product() == kummer_defect_poly().subs(**subs)


def line_membership(alpha: AlphaLike) -> set[str]:
    """Which of the three distinguished lines of the surface contain alpha."""
    return _lines_through([Fraction(x) for x in alpha])


def _lines_through(a: Sequence) -> set[str]:
    # a line holds two pairs of equal entries, so any nonzero multiple of a
    # point lies on the same lines
    return {name for name, ((i, j), (k, l)) in _LINE_PAIRINGS.items()
            if a[i] == a[j] and a[k] == a[l]}


def pattern_curves(alpha: AlphaLike) -> list[CurveId]:
    """Curves of :data:`CURVE_TABLE` whose parameter pattern contains alpha, in table order."""
    a = [Fraction(x) for x in alpha]
    point = _projective_point(a)
    lines = _lines_through(point or a)
    return [cid for cid, row in CURVE_TABLE.items()
            if (row.line in lines if row.line else _QUARTIC_POINTS[cid] == point)]


def _projective_point(a: Sequence[Fraction]) -> tuple[int, ...] | None:
    """The primitive integer multiple of a with first nonzero entry positive; None for zero."""
    den = lcm(*(x.denominator for x in a))
    v = [x.numerator * (den // x.denominator) for x in a]
    g = gcd(*v) if next((x for x in v if x), 0) >= 0 else -gcd(*v)
    return tuple(x // g for x in v) if g else None


_QUARTIC_POINTS = {cid: _projective_point(CURVE_TABLE[cid].alpha) for cid in QUARTIC_CURVES}


# ----------------------------------------------------------------------
# tripling identity and the quartic curves
# ----------------------------------------------------------------------

TRIPLING_F = MultiPoly.parse("y^4 + 4*y*t - 6*y^2*t - 3*t^2 + 4*y*t^2")
TRIPLING_G = MultiPoly.parse("4*y^3*t - 6*y^2*t + 4*y^3 - 3*y^4 + t^2")


def derive_quartics() -> dict[CurveId, MultiPoly]:
    """Recover the four quartic curves from the tripling identity w(3z) = y*(f/g)^2.

    w(3z) = infinity on the zero set of g, w(3z) = 0 on that of f (y itself
    never vanishes for the classes of interest), and the value-1 and value-t
    loci y*f^2 - g^2 and y*f^2 - t*g^2 carry the factors (y - 1) and (y - t)
    times perfect squares whose roots are the remaining two quartics.
    """
    f, g = TRIPLING_F, TRIPLING_G
    d = (-g).sign_normalized()
    e = f.sign_normalized()
    fcurve = (f * f * Y - g * g).exact_div(Y - 1).square_root()
    gcurve = (f * f * Y - T * g * g).exact_div(Y - T).square_root()
    return {CurveId.D: d, CurveId.E: e, CurveId.F: fcurve, CurveId.G: gcurve}


# ----------------------------------------------------------------------
# rational substitutions: uniformizations and curve symmetries
# ----------------------------------------------------------------------

RationalMap = dict[str, tuple[MultiPoly, MultiPoly]]

UNIFORMIZATIONS: dict[CurveId, RationalMap] = {
    CurveId.D: {
        "y": (ONE, 1 - Z ** 2),
        "t": (2 * Z - 1, (Z - 1) ** 3 * (Z + 1)),
    },
    CurveId.E: {
        "y": (1 - Z ** 2, ONE),
        "t": ((Z + 1) * (Z - 1) ** 3, 2 * Z - 1),
    },
    CurveId.F: {
        "y": (Z ** 2, ONE),
        "t": (-(Z ** 3) * (Z - 2), 2 * Z - 1),
    },
    CurveId.G: {
        "y": (-(2 * Z - 1), Z * (Z - 2)),
        "t": (-(2 * Z - 1), Z ** 3 * (Z - 2)),
    },
}


def verify_uniformization(curve: CurveId) -> bool:
    """Exact check that the rational parametrization annihilates the curve."""
    if curve not in UNIFORMIZATIONS:
        raise ValueError(f"no uniformization recorded for curve {curve}")
    return CURVES[curve].substitute(UNIFORMIZATIONS[curve]).is_zero()


SYMMETRY_GENERATORS: dict[str, RationalMap] = {
    # (t, y) -> (1 - t, 1 - y)
    "s1": {"t": (1 - T, ONE), "y": (1 - Y, ONE)},
    # (t, y) -> (1/t, y/t)
    "s2": {"t": (ONE, T), "y": (Y, T)},
    # (t, y) -> (1/t, 1/y)
    "s3": {"t": (ONE, T), "y": (ONE, Y)},
}


def apply_symmetry(p: MultiPoly, word: Union[str, Iterable[str]]) -> MultiPoly:
    """Apply a word in the symmetry generators s1, s2, s3 to a curve polynomial.

    After each substitution the denominators are cleared by the minimal
    monomial and the sign is normalized; the identity word returns p
    (normalized) unchanged.
    """
    if isinstance(word, str):
        word = [w for w in word.replace("*", " ").split() if w]
    result = p
    for gen in word:
        if gen not in SYMMETRY_GENERATORS:
            raise ValueError(f"unknown symmetry generator {gen!r}; use s1, s2, s3")
        result = result.substitute(SYMMETRY_GENERATORS[gen])
        result = result.strip_monomial_content().sign_normalized()
    return result.sign_normalized()


def identify_curve(p: MultiPoly) -> CurveId | None:
    """Match a polynomial against the canonical curves up to sign."""
    q = p.sign_normalized()
    for cid, poly in CURVES.items():
        if q == poly:
            return cid
    return None


# ----------------------------------------------------------------------
# irreducibility certification
# ----------------------------------------------------------------------

@record
class IrreducibilityResult:
    """Outcome of the certifier: status in {'irreducible', 'reducible', 'unknown'}.

    ``witness`` is an exact proper factor (reducible case); ``certificate``
    is the pair (t0, p) whose specialization stayed degree-preserving and
    irreducible over the prime field (irreducible case).
    """

    status: str
    witness: MultiPoly | None = None
    certificate: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.status == "irreducible"


def _zero_point(f: MultiPoly) -> tuple[Scalar, Scalar] | None:
    """A rational point (y, t) with f(y, t) = 0 when f is linear in t or in y,
    the other coordinate being _FILTER_PARAMETER; None otherwise, or when the
    linear coefficient vanishes there.  Integral coordinates are ints."""
    for var, free in (("t", "y"), ("y", "t")):
        if f.degree_in(var) == 1:
            parts = f.coefficients_in(var)
            at = {free: _FILTER_PARAMETER}
            a, b = parts[1](**at), parts.get(0, MultiPoly.zero())(**at)
            if not a:
                return None
            at[var] = -b / a
            return tuple(x.numerator if x.denominator == 1 else x for x in (at["y"], at["t"]))
    return None


# The free coordinate of each trial divisor's zero point.  Away from the
# special values 0, 1 and -1, so that a polynomial with small coefficients
# seldom vanishes there by accident (over the 2028 quartic cofactors P0 of
# small integer parameters, 14 failing divisions are left, against 190 at 3).
_FILTER_PARAMETER = 11
_TRIAL_FACTORS = tuple(
    (f, f.total_degree(), f.degree_in("y"), f.degree_in("t"), _zero_point(f))
    for f in (Y - 1, T - 1, Y - T, Y + 1, Y + T, *CURVES.values())
)
# A square p = q^2 has a rational square as its value at every point.
_SQUARE_POINT = (7, 11)
_SPECIALIZATION_POINTS = (2, 3, 5, 1, -1, 4, 7, 6, -2, 9)
_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
           73, 79, 83, 89, 97, 3, 2)


def is_irreducible(p: MultiPoly) -> IrreducibilityResult:
    """Certificate-based irreducibility over Q for a polynomial in (y, t).

    Returns 'reducible' only with an exact factor witness (monomial content,
    content in y, trial division against low-degree candidates, perfect-square
    extraction, and content in t once the first specialization has failed);
    'irreducible' only with a specialization certificate (some integer t0 and
    prime p at which the image keeps its y-degree and is irreducible over
    the p-element field, decided by the distinct-degree test); 'unknown'
    otherwise.

    The search reads p's integer grid (the coefficients of y^i t^j over
    their common denominator L), built once; both contents are gcds of it,
    in y of its rows and in t of its columns.  Before a trial division by a
    divisor linear in t or in y, p is evaluated at one rational point of the
    divisor's zero set, and before the square root at one integer point; a
    nonzero value, or one that is not a rational square, proves that the
    division or the root fails, so it is not tried and the first witness
    found stays the same.  The specialization at each t0 is one Horner pass
    per y-coefficient on integers; t0 is skipped when the leading value is
    zero, and a prime when it divides the values' reduced common denominator
    or the leading value.
    """
    if p.is_zero():
        raise ValueError("irreducibility of the zero polynomial is undefined")
    if not set(p.vars) <= {"y", "t"}:
        raise ValueError(f"certifier handles polynomials in (y, t) only, got {p.vars}")
    degy = p.degree_in("y")
    if degy > 6:
        raise ValueError(f"y-degree {degy} exceeds the supported bound 6")

    den, rows = integer_grid(p, "y", "t")
    # the monomial content: y divides p when its row 0 is zero, t when every
    # row's constant term is
    name = "y" if not any(rows[0]) else "t" if not any(row[0] for row in rows) else None
    if name and p.total_degree() >= 2:  # p/y, or p/t, is then nonconstant
        return IrreducibilityResult("reducible", witness=MultiPoly.variable(name))

    if degy:  # the content in y, a gcd of the rows as polynomials in t
        content = grid_content(rows, "t")
        if not content.is_constant():
            return IrreducibilityResult("reducible", witness=content)

    # a factor cannot exceed p in any degree, so those candidates cannot divide
    total, degt = p.total_degree(), p.degree_in("t")
    in_t: dict = {}
    for factor, f_total, f_degy, f_degt, point in _TRIAL_FACTORS:
        if f_total < total and f_degy <= degy and f_degt <= degt:
            if point is not None and _nonzero_at(rows, point, in_t):
                continue
            if p.try_divide(factor) is not None:
                return IrreducibilityResult("reducible", witness=factor)

    if total >= 2 and _square_at(den, rows, _SQUARE_POINT):
        try:
            root = p.square_root()
            return IrreducibilityResult("reducible", witness=root)
        except ArithmeticError:
            pass

    if degy == 0:
        return IrreducibilityResult("unknown")

    for i, t0 in enumerate(_SPECIALIZATION_POINTS):
        if i == 1:
            # A proper factor g(y) free of t divides every specialization, so
            # no point can certify p; checked once the first point has failed.
            content = grid_content(list(zip(*rows)), "y")
            if 0 < content.total_degree() < total:
                return IrreducibilityResult("reducible", witness=content)
        values = [_homogeneous(row, t0) for row in rows]
        lead = values[degy]
        if not lead:
            continue
        # the values are values[i] / den; over their reduced common
        # denominator they are values[i] / g, a unit multiple mod any prime
        # not dividing it
        g = gcd(den, *values)
        if g > 1:
            values = [v // g for v in values]
            lead //= g
        common = den // g
        for prime in _PRIMES:
            if not common % prime or not lead % prime:
                continue
            if _fp_is_irreducible([v % prime for v in values], prime):
                return IrreducibilityResult("irreducible", certificate=(t0, prime))
    return IrreducibilityResult("unknown")


def _nonzero_at(rows: list[list[int]], point: tuple[Scalar, Scalar], in_t: dict) -> bool:
    """Whether the polynomial with integer grid rows is nonzero at the point
    (y, t).  At a point where a trial divisor vanishes, nonzero proves that
    it does not divide.  in_t keeps the polynomial at each y seen, as
    coefficients in t, for the next point with that y."""
    y, t = point
    column = in_t.get(y)
    if column is None:
        column = in_t[y] = _in_t(rows, y)
    return _homogeneous(column, t) != 0


def _square_at(den: int, rows: list[list[int]], point: tuple[int, int]) -> bool:
    """Whether the polynomial rows / den has a rational square as its value
    at the integer point, as a square polynomial does at every point: the
    value v / den is one exactly when v * den is an integer square."""
    v = den * _homogeneous(_in_t(rows, point[0]), point[1])
    return v >= 0 and isqrt(v) ** 2 == v


def _in_t(rows: list[list[int]], y: Scalar) -> list[int]:
    """The polynomial with integer grid rows at y = n/d, as integer
    coefficients in t: d^D times its value, D the number of rows less one."""
    return [_homogeneous(column, y) for column in zip(*rows)]


def _homogeneous(coeffs: Sequence[int], x: Scalar) -> int:
    """d^D times the value at x = n/d of the polynomial with ascending integer
    coefficients and degree D: an integer, zero exactly when the value is
    and of its sign."""
    n, d = x.numerator, x.denominator
    v, scale = 0, 1
    for c in reversed(coeffs):
        v = v * n + c * scale
        scale *= d
    return v


# Univariate polynomials over F_p are int lists, ascending, with no zero
# leading coefficient; [] is the zero polynomial.

def _fp_mod(num: list[int], den: list[int], prime: int) -> list[int]:
    num = num[:]
    inv = pow(den[-1], -1, prime)
    while len(num) >= len(den):
        c = (num[-1] * inv) % prime
        shift = len(num) - len(den)
        for i, dc in enumerate(den):
            num[shift + i] = (num[shift + i] - c * dc) % prime
        while num and num[-1] == 0:
            num.pop()
        if not num:
            break
    return num


def _fp_reduction_table(f: list[int], prime: int) -> list[list[int]]:
    """y^d, ..., y^(2d-2) mod the monic f of degree d over F_p, each as its
    d coefficients: the table that folds a product of two residues back."""
    table = [[-c % prime for c in f[:-1]]]
    for _ in range(len(f) - 3):
        table.append(_fp_times_y(table[-1], table[0], prime))
    return table


def _fp_times_y(a: list[int], first: list[int], prime: int) -> list[int]:
    """y * a mod f over F_p, for a residue of d coefficients and first the
    d coefficients of y^d mod f."""
    top, a = a[-1], [0, *a[:-1]]
    return [(x + top * r) % prime for x, r in zip(a, first)] if top else a


def _fp_mulmod(a: list[int], b: list[int], table: list[list[int]], prime: int) -> list[int]:
    """a * b mod f over F_p, for residues of d coefficients each and f's
    reduction table: the coefficient of y^(d+i) in the product adds that
    multiple of y^(d+i) mod f."""
    d = len(a)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, z in enumerate(b, i):
                out[j] += x * z
    low = out[:d]
    for c, row in zip(out[d:], table):
        c %= prime
        if c:
            for j, r in enumerate(row):
                low[j] += c * r
    return [c % prime for c in low]


def _fp_is_irreducible(coeffs: list[int], prime: int) -> bool:
    """Distinct-degree test of a univariate polynomial f of degree d over F_p.

    f is irreducible exactly when gcd(f, y^(p^k) - y) = 1 for k = 1..d/2:
    a reducible f has an irreducible factor of some degree k <= d/2, which
    divides y^(p^k) - y, while an irreducible f of degree d > k shares no
    factor with it.  The case k = 1 asks whether f has a root in F_p, so it
    is a Horner sweep over the p points, and a cubic or a conic without a
    root is irreducible.  From d = 4 on, g = y^p mod f is taken by squaring
    and shifting, and y^(p^k) mod f = sum_i c_i g^i where y^(p^(k-1)) mod f
    = sum_i c_i y^i, since the p-th power is linear over F_p.  Each product
    of two residues is folded back through the table of y^d..y^(2d-2) mod f.
    """
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    backward = coeffs[::-1]
    for x in range(prime):
        v = 0
        for c in backward:
            v = v * x + c
        if not v % prime:
            return False
    if deg <= 3:
        return True
    inv = pow(coeffs[-1], -1, prime)
    f = [c * inv % prime for c in coeffs]
    table = _fp_reduction_table(f, prime)
    g = [0] * deg
    g[1] = 1
    for bit in bin(prime)[3:]:
        g = _fp_mulmod(g, g, table, prime)
        if bit == "1":
            g = _fp_times_y(g, table[0], prime)
    powers = [g]  # g^1 .. g^(d-1) mod f
    for _ in range(deg - 2):
        powers.append(_fp_mulmod(powers[-1], g, table, prime))
    frobenius = g
    for _ in range(deg // 2 - 1):
        image = [frobenius[0], *[0] * (deg - 1)]
        for c, power in zip(frobenius[1:], powers):
            if c:
                image = [x + c * r for x, r in zip(image, power)]
        frobenius = [x % prime for x in image]
        b = frobenius[:]
        b[1] = (b[1] - 1) % prime
        while b and b[-1] == 0:
            b.pop()
        a = f
        while b:
            a, b = b, _fp_mod(a, b, prime)
        if len(a) > 1:
            return False
    return True
