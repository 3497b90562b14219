"""Sparse multivariate polynomials with exact rational coefficients.

Variables are drawn from a fixed ordered universe: y, t, z, the curve
parameters a0..a3 and their square roots u0..u3.  A monomial is one int:
the total degree in the top field, then one 8-bit exponent field per
variable, y highest.  Integer order is then graded-lex order (total degree
first, ties broken left-to-right in universe order), and multiplying
monomials is integer addition.  Work that would build a monomial above
total degree :data:`MAX_DEGREE` is refused with a ValueError before it
starts, so no field overflows.

All arithmetic is exact over Q.  Coefficients are stored as ints where
integral and as Fractions otherwise; public accessors return Fractions.
Terms keep the order each operation produces them in, and evaluation sums
them in that order.  Evaluation at int and Fraction points runs in integers
over one common denominator; the parser, products over a common denominator
and contents (:func:`grid_content`, the one gcd over the rows of an
:func:`integer_grid`, for ``content_in`` and the curve certifier alike) work
on ints too.  Work that only moves monomials runs on the keys: a substitution
by single terms (the curve symmetries s2 and s3, a_i -> u_i^2, constants)
shifts each key by integer arithmetic, and the monomial content is the
minimum of each field.  Printing reads signs and magnitudes from the integers
of a coefficient.  A polynomial is immutable, so each instance memoizes its
powers (``p ** n`` is built once), its hash and its degree in each variable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

VARIABLES = ("y", "t", "z", "a0", "a1", "a2", "a3", "u0", "u1", "u2", "u3")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

MAX_DEGREE = 255
_MASK = 0xFF
_SHIFTS = tuple(8 * (len(VARIABLES) - 1 - i) for i in range(len(VARIABLES)))
_DEGREE_SHIFT = 8 * len(VARIABLES)
# key of the monomial name^1: its exponent field plus one unit of total degree
_VAR_KEY = tuple((1 << s) + (1 << _DEGREE_SHIFT) for s in _SHIFTS)
_LOW_BITS = sum(1 << s for s in _SHIFTS)
_NAMES: dict[int, tuple[str, ...]] = {}  # which fields are nonzero -> their names; <= 2^11 entries

Scalar = Union[Fraction, int]
Exponents = tuple[int, ...]
Terms = dict[int, Scalar]  # monomial key -> nonzero int, or non-integral Fraction

_set = object.__setattr__


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


class NotAPerfectSquareError(ArithmeticError):
    """Raised when a polynomial square root is requested of a non-square."""


def _check_vars(names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; allowed: {VARIABLES}")
    if any(_VAR_INDEX[a] >= _VAR_INDEX[b] for a, b in zip(names, names[1:])):
        raise ValueError(f"variables must be distinct and in universe order, got {names}")
    return names


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"total degree {degree} exceeds the limit of {MAX_DEGREE}")


def _norm(c: Scalar) -> Scalar:
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _den(t: Terms) -> int:
    """The lcm of the coefficient denominators."""
    return lcm(*[c.denominator for c in t.values() if type(c) is not int])


def _mul(a: Terms, b: Terms) -> Terms:
    """Product in nested-loop order: each key sits where it first arises.

    The loop runs on integers over each operand's common denominator.
    """
    if not a or not b:
        return {}
    # the degree field of the sum of the leading keys exceeds the limit
    # exactly when the product's total degree does
    if (max(a) + max(b)) >> _DEGREE_SHIFT > MAX_DEGREE:
        _check_degree((max(a) >> _DEGREE_SHIFT) + (max(b) >> _DEGREE_SHIFT))
    if len(a) == 1 or len(b) == 1:
        # times a single term, keys stay distinct and in the other operand's order
        ((k0, c0),), many = (a.items(), b) if len(a) == 1 else (b.items(), a)
        return {k + k0: _norm(c * c0) for k, c in many.items()}
    da, db = _den(a), _den(b)
    a_items = a.items() if da == 1 else [(k, int(c * da)) for k, c in a.items()]
    b_items = b.items() if db == 1 else [(k, int(c * db)) for k, c in b.items()]
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a_items:
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if da == db == 1:
        return {k: c for k, c in out.items() if c}
    return {k: _norm(Fraction(c, da * db)) for k, c in out.items() if c}


def _accumulate(acc: Terms, items: Iterable[tuple[int, Scalar]]) -> Terms:
    """acc += items in place, each item an exact scalar.

    A zero item is skipped and a key not yet present is stored as it comes
    (an integral value as an int), so only a key already present costs an
    addition; a cancelled key leaves, and re-enters at the end.
    """
    get = acc.get
    for k, c in items:
        if not c:
            continue
        v = get(k)
        if v is None:
            acc[k] = c if type(c) is int or c.denominator != 1 else c.numerator
        else:
            v += c
            if v:
                acc[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
            else:
                del acc[k]
    return acc


def linear_combination(scalars: Sequence[Scalar], polys: Sequence["MultiPoly"]) -> "MultiPoly":
    """sum scalars[i] * polys[i], accumulated in order; a zero scalar is skipped.

    The terms come out as in ((c0*p0 + c1*p1) + c2*p2) + ..., with c_i*p_i
    keeping the key order of p_i.  The scalars are scaled to integers by the
    lcm D of their denominators, and the sum is divided by D once at the end;
    scaling keeps which partial sums cancel, so it keeps the term order.
    """
    scalars = [_norm(c) for c in scalars]
    den = lcm(*[c.denominator for c in scalars if type(c) is not int])
    acc: Terms = {}
    for c, p in zip(scalars, polys):
        if c:
            c = c * den if type(c) is int else c.numerator * (den // c.denominator)
            _accumulate(acc, [(k, c * v) for k, v in p._t.items()])
    if den != 1:
        acc = {k: v // den if type(v) is int and not v % den else _norm(Fraction(v, den))
               for k, v in acc.items()}
    return MultiPoly._of(acc)


def _raw(x) -> "Terms | None":
    """The terms of a polynomial or of an exact scalar; None for anything else."""
    if isinstance(x, MultiPoly):
        return x._t
    if isinstance(x, (int, Fraction)):
        c = _norm(x)
        return {0: c} if c else {}
    return None


class MultiPoly:
    """Immutable sparse polynomial: map from packed monomials to nonzero rationals."""

    __slots__ = ("_t", "_vars", "_powers", "_hash", "_degrees")

    def __init__(self, terms: Mapping[Exponents, Scalar] = (), variables: Sequence[str] = ()):
        names = _check_vars(variables)
        units = [_VAR_KEY[_VAR_INDEX[n]] for n in names]
        t: Terms = {}
        for exps, coef in terms.items() if isinstance(terms, Mapping) else terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(names):
                raise ValueError(f"exponent tuple {exps} does not match variables {names}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            _check_degree(sum(exps))
            _accumulate(t, [(sum(e * u for e, u in zip(exps, units)), _norm(Fraction(coef)))])
        _set(self, "_t", t)

    @classmethod
    def _of(cls, t: Terms) -> "MultiPoly":
        p = object.__new__(cls)
        _set(p, "_t", t)
        return p

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # the default reduction restores slots through setattr, which is refused
        return (MultiPoly._of, (dict(self._t),))

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        return cls._of(_raw(Fraction(c)))

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        _check_vars((name,))
        return cls._of({_VAR_KEY[_VAR_INDEX[name]]: 1})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._of({})

    @property
    def vars(self) -> tuple[str, ...]:
        """The variables some term uses, in universe order."""
        names = getattr(self, "_vars", None)
        if names is None:
            used = 0
            for k in self._t:
                used |= k
            used |= used >> 4
            used |= used >> 2
            used |= used >> 1  # now the low bit of each field is set iff the field is nonzero
            pattern = used & _LOW_BITS
            if pattern not in _NAMES:
                _NAMES[pattern] = tuple([v for v, s in zip(VARIABLES, _SHIFTS) if pattern >> s & 1])
            names = _NAMES[pattern]
            _set(self, "_vars", names)
        return names

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Exponent tuples over self.vars mapped to Fraction coefficients, in term order."""
        decode = self._decoder()
        return MappingProxyType({decode(k): Fraction(c) for k, c in self._t.items()})

    def _decoder(self) -> Callable[[int], Exponents]:
        """Map a monomial key to its exponent tuple over self.vars."""
        shifts = [_SHIFTS[_VAR_INDEX[v]] for v in self.vars]
        return lambda key: tuple([key >> s & _MASK for s in shifts])

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return self._t.keys() <= {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._t.get(0, 0))

    def total_degree(self) -> int:
        return max(self._t) >> _DEGREE_SHIFT if self._t else 0

    def degree_in(self, name: str) -> int:
        degrees = getattr(self, "_degrees", None)
        if degrees is None:
            degrees = {}
            _set(self, "_degrees", degrees)
        elif name in degrees:
            return degrees[name]
        if name not in _VAR_INDEX or not self._t:
            return 0
        s = _SHIFTS[_VAR_INDEX[name]]
        d = degrees[name] = max((k >> s) & _MASK for k in self._t)
        return d

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Graded-lex leading (exponents, coefficient); exponents over self.vars."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[0]

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        decode = self._decoder()
        return [(decode(k), Fraction(self._t[k])) for k in sorted(self._t, reverse=True)]

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        t = _raw(other)
        return NotImplemented if t is None else self._t == t

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(frozenset(self._t.items()))
            _set(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        t = _raw(other)
        return NotImplemented if t is None else MultiPoly._of(_accumulate(dict(self._t), t.items()))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of({k: -c for k, c in self._t.items()})

    def __sub__(self, other) -> "MultiPoly":
        t = _raw(other)
        return NotImplemented if t is None else self + MultiPoly._of({k: -c for k, c in t.items()})

    def __rsub__(self, other) -> "MultiPoly":
        return -(self - other)

    def __mul__(self, other) -> "MultiPoly":
        t = _raw(other)
        return NotImplemented if t is None else MultiPoly._of(_mul(self._t, t))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _check_degree(n * self.total_degree())
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = {}
            _set(self, "_powers", powers)
        elif n in powers:
            return powers[n]
        result, base, e = None, self._t, n
        while e:
            if e & 1:
                result = base if result is None else _mul(result, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        p = powers[n] = MultiPoly._of({0: 1} if result is None else result)
        return p

    def derivative(self, name: str) -> "MultiPoly":
        if name not in _VAR_INDEX:
            return MultiPoly.zero()
        s, unit = _SHIFTS[_VAR_INDEX[name]], _VAR_KEY[_VAR_INDEX[name]]
        return MultiPoly._of({
            k - unit: _norm(c * ((k >> s) & _MASK)) for k, c in self._t.items() if (k >> s) & _MASK
        })

    # ------------------------------------------------------------------
    # substitution and evaluation
    # ------------------------------------------------------------------

    def __call__(self, **values):
        """Numeric evaluation; every variable of the polynomial must be bound.

        When every bound value is an int or a Fraction the sum is taken in
        integers (see :func:`_exact_value`) and returned as a Fraction.  Any
        other input gives a complex/float following Python numeric
        promotion: each term multiplies its factors in universe order, and
        the terms are summed in term order.
        """
        names = self.vars
        try:
            fields = [(_SHIFTS[_VAR_INDEX[v]], values[v], {}) for v in names]  # powers cached per variable
        except KeyError:
            raise ValueError(f"unbound variables {[v for v in names if v not in values]}") from None
        if not self._t:
            return Fraction(0)
        for _, x, _ in fields:
            if type(x) is not int and type(x) is not Fraction:
                break
        else:
            return _exact_value(self._t, fields)
        total = None
        for key, coef in self._t.items():
            term = coef
            for s, x, cache in fields:
                e = (key >> s) & _MASK
                if e:
                    if e not in cache:
                        cache[e] = x ** e
                    term = term * cache[e]
            total = term if total is None else total + term
        return Fraction(total) if type(total) is int else total

    def substitute(self, maps: Mapping[str, tuple[MultiPoly | Scalar, MultiPoly | Scalar]]) -> MultiPoly:
        """The numerator of self after name -> num/den for each ``maps[name] = (num, den)``.

        A mapped name of degree d in self contributes num^e * den^(d-e) to a
        term with exponent e, and no content is stripped.  num and den are
        polynomials or exact scalars; a zero den raises ZeroDivisionError and
        anything else TypeError, before any work.

        When every num and den is a single term, each term c*m goes to one
        term: its key moves by e*(k_num - unit) + (d-e)*k_den for each mapped
        name, its coefficient is c * c_num^e * c_den^(d-e), and the terms are
        accumulated in input order once every total degree is checked.  Any
        other map runs the chain: every term c*m becomes c times m without the
        mapped variables times the factors, multiplied left to right in
        universe order, each power built once per call.  Both give the terms
        in the same order.
        """
        for name in maps:
            _check_vars((name,))
        fields = []
        for name in sorted(maps, key=_VAR_INDEX.__getitem__):
            num, den = (_as_poly(f, name) for f in maps[name])
            if not den._t:
                raise ZeroDivisionError(f"zero denominator in the substitution for {name!r}")
            fields.append((_SHIFTS[_VAR_INDEX[name]], _VAR_KEY[_VAR_INDEX[name]], num, den,
                           self.degree_in(name), {}))
        if all(len(num._t) == 1 == len(den._t) for _, _, num, den, _, _ in fields):
            return MultiPoly._of(_substitute_monomials(self._t, fields))
        acc: Terms = {}
        for key, coef in self._t.items():
            rest, prod = key, None
            for s, unit, num, den, d, cache in fields:
                e = (key >> s) & _MASK
                rest -= e * unit
                if e not in cache:
                    cache[e] = [f._t for f in (num ** e, den ** (d - e)) if f._t != {0: 1}]
                for f in cache[e]:
                    prod = f if prod is None else _mul(prod, f)
            if prod is None:
                _accumulate(acc, [(rest, coef)])
            elif prod:
                _check_degree((max(prod) >> _DEGREE_SHIFT) + (rest >> _DEGREE_SHIFT))
                _accumulate(acc, ((k + rest, coef * c) for k, c in prod.items()))
        return MultiPoly._of(acc)

    def subs(self, **mapping: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact substitution for some variables: the den = 1 case of :meth:`substitute`."""
        return self.substitute({n: (r, _ONE) for n, r in mapping.items()})

    # ------------------------------------------------------------------
    # division and square root
    # ------------------------------------------------------------------

    def try_divide(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self / divisor, or None when division is not exact.

        Single-divisor reduction in graded-lex order; for an exact division
        the leading term of the running remainder is always reducible, so a
        non-divisible leading term proves inexactness.
        """
        if not isinstance(divisor, MultiPoly) or divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        div = divisor._t
        lead = max(div)
        lc = div[lead]
        need = [(s, (lead >> s) & _MASK) for s in _SHIFTS if (lead >> s) & _MASK]
        rem = dict(self._t)
        quot: Terms = {}
        while rem:
            key = max(rem)
            if any((key >> s) & _MASK < e for s, e in need):
                return None
            delta = key - lead
            rc = rem[key]
            if type(rc) is int and type(lc) is int and not rc % lc:
                c = quot[delta] = rc // lc
            else:
                c = quot[delta] = _norm(Fraction(rc) / lc)
            _accumulate(rem, ((delta + dk, -c * dc) for dk, dc in div.items()))
        return MultiPoly._of(quot)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        q = self.try_divide(divisor)
        if q is None:
            raise ExactDivisionError(f"{divisor} does not divide exactly")
        return q

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        """Coefficients of powers of one variable, as polynomials in the rest."""
        if name not in self.vars:
            return {0: self} if self._t else {}
        s, unit = _SHIFTS[_VAR_INDEX[name]], _VAR_KEY[_VAR_INDEX[name]]
        buckets: dict[int, Terms] = {}
        for k, c in self._t.items():
            e = (k >> s) & _MASK
            buckets.setdefault(e, {})[k - e * unit] = c
        return {d: MultiPoly._of(t) for d, t in buckets.items()}

    def content_in(self, name: str) -> "MultiPoly":
        """Monic gcd over Q of the coefficient polynomials of powers of
        ``name``, terms in ascending degree: 1 for a unit content, 0 for 0.

        Exact when the coefficients involve at most one other variable, as
        the :func:`grid_content` of :func:`integer_grid`; an unknown name
        raises ValueError.
        """
        _check_vars((name,))
        if not self._t:
            return MultiPoly.zero()
        others = [v for v in self.vars if v != name]
        if len(others) > 1:
            raise ValueError("content computation supports at most one coefficient variable")
        if not others:
            return _ONE
        (other,) = others
        return grid_content(integer_grid(self, name, other)[1], other)

    def square_root(self) -> "MultiPoly":
        """Exact Q with Q*Q == self, sign-normalized to a positive leading coefficient.

        Coefficient matching in the leading variable, recursing on the
        remaining variables for the top coefficient; the candidate is
        verified by squaring, so a wrong intermediate guess cannot survive.
        """
        if self.is_zero():
            return self
        if self.is_constant():
            return MultiPoly.constant(_fraction_sqrt(self.constant_value()))
        name = self.vars[0]
        coeffs = self.coefficients_in(name)
        deg = max(coeffs)
        if deg % 2:
            raise NotAPerfectSquareError(f"odd degree {deg} in {name}")
        half = deg // 2
        top = coeffs[deg].square_root()
        q: dict[int, MultiPoly] = {half: top}
        two_top = top * 2
        for j in range(1, half + 1):
            acc = coeffs.get(deg - j, MultiPoly.zero())
            for i in range(1, j):
                if half - i in q and half - j + i in q:
                    acc = acc - q[half - i] * q[half - j + i]
            quotient = acc.try_divide(two_top)
            if quotient is None:
                raise NotAPerfectSquareError("coefficient matching failed")
            if quotient:
                q[half - j] = quotient
        # the parts have no variable in common with name^d, so no keys collide
        unit = _VAR_KEY[_VAR_INDEX[name]]
        candidate = MultiPoly._of({k + d * unit: c for d, part in q.items() for k, c in part._t.items()})
        if candidate * candidate != self:
            raise NotAPerfectSquareError(f"{self} is not a perfect square")
        return candidate.sign_normalized()

    def sign_normalized(self) -> "MultiPoly":
        """self or -self, whichever has a positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        return self if self._t[max(self._t)] > 0 else -self

    def monomial_content(self) -> Exponents:
        """Componentwise minimum exponent vector over all terms (over self.vars)."""
        shifts = [_SHIFTS[_VAR_INDEX[v]] for v in self.vars]
        return tuple([min([k >> s & _MASK for k in self._t]) for s in shifts])

    def strip_monomial_content(self) -> "MultiPoly":
        """Divide out the largest monomial dividing every term: each key less
        the key of the field minima, read from the keys; self when that is 1."""
        mono = sum(e * _VAR_KEY[_VAR_INDEX[v]] for v, e in zip(self.vars, self.monomial_content()))
        if not mono:
            return self
        return MultiPoly._of({k - mono: c for k, c in self._t.items()})

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._t:
            return "0"
        fields = [(v, _SHIFTS[_VAR_INDEX[v]]) for v in self.vars]
        t = self._t
        parts = []
        for key in sorted(t, reverse=True):
            coef = t[key]
            # sign and magnitude from the integers, as str(abs(coef)) prints them
            n, d = (coef, 1) if type(coef) is int else (coef.numerator, coef.denominator)
            sign = ("- " if n < 0 else "+ ") if parts else ("-" if n < 0 else "")
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            mono = "*".join([v if e == 1 else f"{v}^{e}" for v, s in fields if (e := key >> s & _MASK)])
            parts.append(sign + (mag if not mono else mono if mag == "1" else f"{mag}*{mono}"))
        return " ".join(parts)

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exps": list(exps), "coef": str(coef)} for exps, coef in self.sorted_terms()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultiPoly":
        return cls({tuple(t["exps"]): Fraction(t["coef"]) for t in data["terms"]}, data["vars"])

    @classmethod
    def parse(cls, text: str) -> "MultiPoly":
        """Parse the canonical text form (sums of 'c*x^a*y^b' terms)."""
        return _parse_poly(text)


_ONE = MultiPoly._of({0: 1})


def _as_poly(x, name: str) -> MultiPoly:
    """x as a polynomial when it is one or an exact scalar; TypeError otherwise."""
    if isinstance(x, MultiPoly):
        return x
    t = _raw(x)
    if t is None:
        raise TypeError(f"cannot substitute {type(x).__name__} into {name!r}: "
                        "expected a MultiPoly, int or Fraction")
    return MultiPoly._of(t)


def _substitute_monomials(t: Terms, fields: list) -> Terms:
    """The monomial-map case of :meth:`MultiPoly.substitute`, by key arithmetic.

    With name -> c_num*k_num / (c_den*k_den) of degree d in t, a term of
    exponent e in name moves by e*(k_num - k_den - unit) + d*k_den.  Integer
    addition is linear in the fields and every field is nonnegative, so the
    degree field of a moved key is its total degree whenever that total is in
    range, and exceeds the limit whenever the total does.
    """
    base, columns = 0, []
    for s, unit, num, den, d, cache in fields:
        ((kn, cn),), ((kd, cd),) = num._t.items(), den._t.items()
        base += d * kd
        columns.append((s, kn - kd - unit, cn, cd, d, cache))
    items = []
    for key, coef in t.items():
        k = key + base
        for s, delta, cn, cd, d, cache in columns:
            e = key >> s & _MASK
            f = cache.get(e)
            if f is None:
                f = cache[e] = (e * delta, _norm(cn ** e * cd ** (d - e)))
            k += f[0]
            coef *= f[1]
        items.append((k, coef))
    if items:
        _check_degree(max([k for k, _ in items]) >> _DEGREE_SHIFT)
    return _accumulate({}, items)


def _fraction_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise NotAPerfectSquareError(f"{x} is negative")
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise NotAPerfectSquareError(f"{x} is not a square in Q")
    return Fraction(pn, pd)


def _exact_value(t: Terms, fields: list) -> Fraction:
    """The value of the terms t at exact points, summed in integers.

    Over the lcm L of the coefficient denominators, and with each variable
    x = n/d of degree E in t contributing n^e * d^(E-e) for its exponent e,
    every term is an integer; the value is their sum over L * prod d^E.
    Each power is built once per call, in the field's cache.
    """
    scale = den = _den(t)
    columns = []
    for s, x, cache in fields:
        if type(x) is int:
            columns.append((s, x, 1, 0, cache))
        elif x.denominator == 1:
            columns.append((s, x.numerator, 1, 0, cache))
        else:
            top = max([k >> s & _MASK for k in t])
            scale *= x.denominator ** top
            columns.append((s, x.numerator, x.denominator, top, cache))
    total = 0
    for k, c in t.items():
        term = c * den if type(c) is int else c.numerator * (den // c.denominator)
        for s, n, d, top, cache in columns:
            e = k >> s & _MASK
            f = cache.get(e)
            if f is None:
                f = cache[e] = n ** e if d == 1 else n ** e * d ** (top - e)
            term *= f
        total += term
    return Fraction(total) if scale == 1 else Fraction(total, scale)


def integer_grid(p: MultiPoly, outer: str, inner: str) -> tuple[int, list[list[int]]]:
    """(L, rows) with L the lcm of p's coefficient denominators and rows[i][j]
    the integer L times p's coefficient of outer^i * inner^j, for i up to the
    degree in outer and j up to the degree in inner; two equal or unknown
    names, or a p that involves any other variable, raise ValueError."""
    names = {outer, inner}
    if len(names & _VAR_INDEX.keys()) < 2 or not set(p.vars) <= names:
        raise ValueError(f"integer grid in ({outer}, {inner}) of a polynomial in {p.vars}")
    t = p._t
    so, si = _SHIFTS[_VAR_INDEX[outer]], _SHIFTS[_VAR_INDEX[inner]]
    den = _den(t)
    width = p.degree_in(inner) + 1
    rows = [[0] * width for _ in range(p.degree_in(outer) + 1)]
    for k, c in t.items():
        c = c * den if type(c) is int else c.numerator * (den // c.denominator)
        rows[k >> so & _MASK][k >> si & _MASK] = c
    return den, rows


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A gcd over Q of two nonzero integer polynomials (ascending, no zero
    leading coefficient) by the primitive remainder sequence: each
    pseudo-remainder is divided by its content, so the integers stay small.
    The result is determined up to a nonzero rational factor."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lb, top = a[:], b[-1], len(b) - 1
        while len(r) > top:
            c, shift = r[-1], len(r) - len(b)
            g = gcd(c, lb)
            # (lb/g) * r - (c/g) * x^shift * b cancels the leading term
            f, c = lb // g, c // g
            r = [f * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        g = gcd(*r)
        a, b = b, [x // g for x in r]
    return b


def grid_content(rows: Sequence[Sequence[int]], name: str) -> MultiPoly:
    """The monic gcd over Q of the polynomials in ``name`` with the rows, not
    all zero, as ascending integer coefficients.  The rows are read from the
    last down, so a nonzero constant one ends the work; a unit gcd is the
    shared constant 1."""
    g = None
    for row in reversed(rows):
        n = len(row)
        while n and not row[n - 1]:
            n -= 1
        if n:
            g = row[:n] if g is None else _primitive_gcd(g, row[:n])
            if len(g) == 1:
                return _ONE
    lc, unit = g[-1], _VAR_KEY[_VAR_INDEX[name]]
    return MultiPoly._of({e * unit: _norm(Fraction(c, lc)) for e, c in enumerate(g) if c})


_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<body>[^+-]+)")
_FACTOR_RE = re.compile(r"^(?:(?P<num>-?\d+(?:/\d+)?)|(?P<var>[a-zA-Z]\w*)(?:\^(?P<exp>\d+))?)$")


def _parse_poly(text: str) -> MultiPoly:
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    acc: Terms = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or not m.group("body").strip():
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        if pos and m.group("sign") is None:
            raise ValueError(f"missing +/- separator near {s[pos:]!r}")
        num, den = (-1 if m.group("sign") == "-" else 1), 1
        key = degree = 0
        for factor in m.group("body").split("*"):
            factor = factor.strip()
            index = _VAR_INDEX.get(factor)
            if index is not None:  # a bare variable
                degree += 1
                _check_degree(degree)
                key += _VAR_KEY[index]
                continue
            fm = _FACTOR_RE.match(factor)
            if not fm:
                raise ValueError(f"bad factor {factor!r}")
            number, name, exp = fm.groups()
            if number is not None:
                n, _, d = number.partition("/")
                n, d = int(n), int(d or 1)
                if not d:
                    raise ZeroDivisionError(f"Fraction({n}, 0)")
                num, den = num * n, den * d
            else:
                index = _VAR_INDEX.get(name)
                if index is None:
                    _check_vars((name,))  # raises
                e = int(exp or 1)
                degree += e
                _check_degree(degree)
                key += e * _VAR_KEY[index]
        _accumulate(acc, [(key, num if den == 1 else Fraction(num, den))])
        pos = m.end()
    return MultiPoly._of(acc)
