"""Expected answers taken from the paper (arXiv:1602.04694), not from pvi.

Everything the benchmark checks an answer against is written out here from
the paper's statements: orbit sizes through the Jordan totient, the
level-3/4/6 orbit-to-curve table, the seven canonical curves and their
parameter patterns, the reducibility surface, and the three symmetry
substitutions.  Numeric facts that the paper implies but does not tabulate
(which curve a symmetry sends a curve to) are derived here with numpy from
the paper's formulas, never by calling pvi.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

import numpy as np

# Canonical curves A..G, P(y, t) = 0, as printed in the paper.
CURVE_TEXT = {
    "A": "y^2 - t",
    "B": "y^2 - 2*y + t",
    "C": "y^2 - 2*y*t + t",
    "D": "3*y^4 - 4*y^3*t - 4*y^3 + 6*y^2*t - t^2",
    "E": "y^4 - 6*y^2*t + 4*y*t^2 + 4*y*t - 3*t^2",
    "F": "y^4 - 4*y^3 + 6*y^2*t - 4*y*t^2 + t^2",
    "G": "y^4 - 4*y^3*t + 6*y^2*t - 4*y*t + t^2",
}
CURVE_NAMES = tuple(CURVE_TEXT)
QUARTICS = ("D", "E", "F", "G")

# One parameter point (a0, a1, a2, a3) on each curve's pattern.
CANONICAL_ALPHA = {
    "A": (1, 1, 2, 2),
    "B": (1, 2, 1, 2),
    "C": (1, 2, 2, 1),
    "D": (9, 1, 1, 1),
    "E": (1, 9, 1, 1),
    "F": (1, 1, 9, 1),
    "G": (1, 1, 1, 9),
}

# Level-3/4/6 classes and the curve their Picard solution traces, keyed by
# the parity of the numerators (m, n) of (m/N, n/N).
ORBIT_CURVE = {
    (4, "odd", "even"): "A",
    (4, "even", "odd"): "B",
    (4, "odd", "odd"): "C",
    (6, "odd", "even"): "E",
    (6, "even", "odd"): "F",
    (6, "odd", "odd"): "G",
}

ACCEPT_TOL = 1e-8
REJECT_TOL = 1e-3


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

def jordan2(n: int) -> int:
    """Jordan totient J2(n) = n^2 * prod over primes p | n of (1 - p^-2)."""
    out, m, p = n * n, n, 2
    while p * p <= m:
        if m % p == 0:
            out = out // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out = out // (m * m) * (m * m - 1)
    return out


def orbit_sizes(n: int) -> list[int]:
    """Sorted orbit sizes at level n > 2: one orbit for odd n, three for even n."""
    if n % 2:
        return [jordan2(n) // 2]
    return [jordan2(n) // 6] * 3


def class_count(n: int) -> int:
    """Number of classes (m/n, n'/n) of exact level n, up to sign."""
    return jordan2(n) // 2


def parity(m: int, n: int) -> tuple[str, str]:
    return ("even" if m % 2 == 0 else "odd", "even" if n % 2 == 0 else "odd")


def same_orbit(level1: int, par1, level2: int, par2) -> bool:
    if level1 != level2:
        return False
    return level1 % 2 == 1 or par1 == par2


def orbit_curve(level: int, par) -> str | None:
    if level == 3:
        return "D"
    return ORBIT_CURVE.get((level, *par))


def random_class(rng, level: int, par=None) -> tuple[int, int]:
    """Numerators (m, n) of a class of exact level `level`, with a given parity if set."""
    while True:
        m, n = rng.randrange(level), rng.randrange(level)
        if gcd(gcd(m, n), level) != 1:
            continue
        if par is None or parity(m, n) == par:
            return m, n


def standard_parity_rep(par) -> tuple[int, int]:
    """Numerator pattern of the standard representative: (0, 1), (1, 0) or (1, 1)."""
    return {("even", "odd"): (0, 1), ("odd", "even"): (1, 0), ("odd", "odd"): (1, 1)}[par]


def canonical_pair(mu: Fraction, nu: Fraction) -> tuple[Fraction, Fraction]:
    """Representative of (mu, nu) mod Z^2 and sign: components in [0, 1), lexicographic min."""
    return min((mu % 1, nu % 1), ((-mu) % 1, (-nu) % 1))


# ----------------------------------------------------------------------
# parameters and the reducibility surface
# ----------------------------------------------------------------------

def curves_for(alpha) -> list[str]:
    """Curves whose pattern the nonzero parameter point satisfies, in order A..G."""
    a0, a1, a2, a3 = (Fraction(a) for a in alpha)
    out = []
    if a0 == a1 and a2 == a3:
        out.append("A")
    if a0 == a2 and a1 == a3:
        out.append("B")
    if a0 == a3 and a1 == a2:
        out.append("C")
    if a1 != 0 and a1 == a2 == a3 and a0 == 9 * a1:
        out.append("D")
    if a0 != 0 and a0 == a2 == a3 and a1 == 9 * a0:
        out.append("E")
    if a0 != 0 and a0 == a1 == a3 and a2 == 9 * a0:
        out.append("F")
    if a0 != 0 and a0 == a1 == a2 and a3 == 9 * a0:
        out.append("G")
    return out


def kummer_defect(alpha) -> Fraction:
    """(sum a_i^2 - 2 sum_{i<j} a_i a_j)^2 - 64 a0 a1 a2 a3."""
    a = [Fraction(x) for x in alpha]
    s2 = sum(x * x for x in a)
    sym = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    return (s2 - 2 * sym) ** 2 - 64 * a[0] * a[1] * a[2] * a[3]


def line_point(rng, line: str) -> tuple[Fraction, ...]:
    """A point of one of the three lines a_i = a_j, a_k = a_l on the surface."""
    x, y = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2))
    return {"L1": (x, x, y, y), "L2": (x, y, x, y), "L3": (x, y, y, x)}[line]


# ----------------------------------------------------------------------
# polynomials, evaluated without pvi
# ----------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*([^+-]+)")


def poly_terms(text: str) -> dict[tuple[str, ...], Fraction]:
    """Sparse form {sorted variable multiset: coefficient} of a 'c*x^a*y^b' sum."""
    out: dict[tuple[str, ...], Fraction] = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coef = Fraction(-1 if sign == "-" else 1)
        mono: list[str] = []
        for factor in body.split("*"):
            if factor[0].isdigit():
                coef *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono += [name] * int(exp or 1)
        key = tuple(sorted(mono))
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c}


def eval_terms(terms, **values):
    total = 0
    for mono, coef in terms.items():
        term = coef
        for name in mono:
            term = term * values[name]
        total = total + term
    return total


def eval_multipoly_terms(variables, terms, point):
    """Exact value of a polynomial given by its variable names and exponent map."""
    total = Fraction(0)
    for exps, coef in terms.items():
        term = Fraction(coef)
        for name, e in zip(variables, exps):
            term *= Fraction(point[name]) ** e
        total += term
    return total


CURVE_TERMS = {name: poly_terms(text) for name, text in CURVE_TEXT.items()}


def y_coefficients(name: str, t: complex) -> np.ndarray:
    """Coefficients of P(., t) in y, highest degree first."""
    terms = CURVE_TERMS[name]
    deg = max(m.count("y") for m in terms)
    out = np.zeros(deg + 1, dtype=complex)
    for mono, coef in terms.items():
        out[deg - mono.count("y")] += float(coef) * t ** mono.count("t")
    return out


def curve_value(name: str, y: complex, t: complex) -> complex:
    return complex(eval_terms(CURVE_TERMS[name], y=complex(y), t=complex(t)))


def curve_scale(name: str, y: complex, t: complex) -> float:
    """Sum of the moduli of P's terms at (y, t): the size rounding error scales with."""
    return sum(abs(float(c)) * abs(y) ** m.count("y") * abs(t) ** m.count("t")
               for m, c in CURVE_TERMS[name].items())


# (t, y) -> image point of the symmetry generators; each is an involution,
# so the curve obtained by substituting a generator is the image of the old one.
GENERATORS = {
    "s1": lambda t, y: (1 - t, 1 - y),
    "s2": lambda t, y: (1 / t, y / t),
    "s3": lambda t, y: (1 / t, 1 / y),
}


def _symmetry_image(name: str, gen: str) -> str:
    t0 = 0.3137 + 0.2291j
    hits = set()
    for y0 in np.roots(y_coefficients(name, t0)):
        t1, y1 = GENERATORS[gen](t0, complex(y0))
        scale = max(1.0, abs(t1), abs(y1)) ** 4
        for other in CURVE_NAMES:
            if abs(curve_value(other, y1, t1)) < 1e-9 * scale:
                hits.add(other)
    if len(hits) != 1:
        raise ValueError(f"symmetry {gen} of curve {name} lands on {sorted(hits)}")
    return hits.pop()


SYMMETRY_TABLE = {(c, g): _symmetry_image(c, g) for c in CURVE_NAMES for g in GENERATORS}


def symmetry_image(name: str, word) -> str:
    for gen in word:
        name = SYMMETRY_TABLE[(name, gen)]
    return name


# ----------------------------------------------------------------------
# irreducibility certificates over F_p
# ----------------------------------------------------------------------

def p0_y_coefficients(a0, a1, a2, t) -> list[Fraction]:
    """Ascending y-coefficients of a0(y-1)^2 y^2 - a2 y^2 - t(a1 (y-1)^2 - a2 y^2)."""
    a0, a1, a2, t = (Fraction(x) for x in (a0, a1, a2, t))
    return [-a1 * t, 2 * a1 * t, a0 - a2 - t * (a1 - a2), -2 * a0, a0]


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _polymod(f, g, p):
    f = f[:]
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        _trim(f)
    return f


def _mulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _polymod(_trim(out), g, p)


def _powmod_x(e, g, p):
    result, base = [1], _polymod([0, 1], g, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, g, p)
        base = _mulmod(base, base, g, p)
        e >>= 1
    return result


def _gcd(a, b, p):
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _polymod(a, b, p)
    return a


def fp_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin's test: a degree-n polynomial over F_p (ascending coefficients) is irreducible."""
    f = _trim([c % p for c in coeffs])
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True

    def x_pow_minus_x(k):
        h = _powmod_x(p ** k, f, p) + [0, 0]
        h[1] = (h[1] - 1) % p
        return _trim(h)

    if x_pow_minus_x(n):
        return False
    for q in {q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))}:
        if len(_gcd(f, x_pow_minus_x(n // q), p)) > 1:
            return False
    return True


def mod_p(c: Fraction, p: int) -> int | None:
    if c.denominator % p == 0:
        return None
    return c.numerator * pow(c.denominator, -1, p) % p
