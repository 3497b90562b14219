"""Polynomial engine tests, cross-checked against sympy as an independent oracle."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
import sympy as sp

from pvi.multipoly import (
    ExactDivisionError,
    MultiPoly,
    NotAPerfectSquareError,
    integer_grid,
)

F = Fraction
Y = MultiPoly.variable("y")
T = MultiPoly.variable("t")
Z = MultiPoly.variable("z")

_SYMS = {name: sp.Symbol(name) for name in ("y", "t", "z")}


def to_sympy(p: MultiPoly):
    expr = sp.Integer(0)
    for exps, coef in p.terms.items():
        term = sp.Rational(coef.numerator, coef.denominator)
        for var, e in zip(p.vars, exps):
            term *= _SYMS[var] ** e
        expr += term
    return sp.expand(expr)


def random_poly(rng, nterms=4, deg=3):
    terms = {}
    for _ in range(nterms):
        exps = (rng.randint(0, deg), rng.randint(0, deg), rng.randint(0, deg))
        terms[exps] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiPoly(terms, ("y", "t", "z"))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly({(1, 0): 1, (0, 1): 0}, ("y", "t"))
        assert p == Y
        assert p.vars == ("y",)

    def test_unused_variables_dropped(self):
        p = MultiPoly({(2, 0): 1}, ("y", "z"))
        assert p.vars == ("y",)
        assert p == Y ** 2

    def test_variable_order_enforced(self):
        with pytest.raises(ValueError):
            MultiPoly({(1, 1): 1}, ("t", "y"))
        with pytest.raises(ValueError):
            MultiPoly({(1,): 1}, ("w",))

    def test_equality_against_scalars(self):
        assert MultiPoly.constant(F(3, 2)) == F(3, 2)
        assert MultiPoly.zero() == 0
        assert Y != 0


class TestArithmeticOracle:
    def test_against_sympy(self):
        rng = random.Random(99)
        for _ in range(60):
            p, q = random_poly(rng), random_poly(rng)
            assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
            assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)
            assert to_sympy(p * q) == sp.expand(to_sympy(p) * to_sympy(q))
            assert to_sympy(p.derivative("t")) == sp.diff(to_sympy(p), _SYMS["t"])

    def test_power(self):
        rng = random.Random(100)
        for _ in range(10):
            p = random_poly(rng, nterms=3, deg=2)
            assert to_sympy(p ** 3) == sp.expand(to_sympy(p) ** 3)
        assert (Y + T) ** 0 == 1

    def test_linearity_scalar_mixing(self):
        p = 2 * Y - T * 3 + F(1, 2)
        assert p(y=F(1), t=F(0)) == F(5, 2)

    def test_evaluation_matches_sympy(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_poly(rng)
            vals = {n: F(rng.randint(-5, 5), rng.randint(1, 3)) for n in ("y", "t", "z")}
            expected = to_sympy(p).subs({_SYMS[n]: sp.Rational(v) for n, v in vals.items()})
            assert p(**vals) == F(str(expected))

    def test_complex_evaluation(self):
        p = Y ** 2 - T
        assert p(y=1j, t=2.0) == -3 + 0j

    def test_unbound_variable_rejected(self):
        with pytest.raises(ValueError):
            (Y + T)(y=1)


class TestSubstitution:
    def test_polynomial_subs(self):
        p = Y ** 2 - T
        assert p.subs(y=T + 1) == T ** 2 + T + 1

    def test_subs_with_scalar(self):
        assert (Y * T).subs(t=F(1, 2)) == Y * F(1, 2)


class TestDivision:
    def test_exact(self):
        p = (Y ** 2 - T) * (Y ** 2 - 2 * Y + T)
        assert p.exact_div(Y ** 2 - T) == Y ** 2 - 2 * Y + T

    def test_inexact_returns_none(self):
        assert (Y ** 2 + T).try_divide(Y - 1) is None
        with pytest.raises(ExactDivisionError):
            (Y ** 2 + T).exact_div(Y - 1)

    def test_random_products(self):
        rng = random.Random(314)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).exact_div(b) == a

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Y.exact_div(MultiPoly.zero())


class TestSquareRoot:
    def test_linear_square(self):
        assert ((Y - 1) ** 2).square_root() == Y - 1

    def test_quartic_square(self):
        q = Y ** 4 - 4 * Y ** 3 + 6 * T * Y ** 2 - 4 * T ** 2 * Y + T ** 2
        assert (q * q).square_root() == q

    def test_sign_normalization(self):
        q = -(Y - T)
        assert (q * q).square_root() == Y - T

    def test_not_square(self):
        with pytest.raises(NotAPerfectSquareError):
            (Y ** 2 + T).square_root()
        with pytest.raises(NotAPerfectSquareError):
            (Y ** 3).square_root()
        with pytest.raises(NotAPerfectSquareError):
            MultiPoly.constant(-4).square_root()

    def test_random_squares(self):
        rng = random.Random(2718)
        for _ in range(25):
            p = random_poly(rng, nterms=3, deg=2)
            if p.is_zero():
                continue
            assert (p * p).square_root() == p.sign_normalized()

    def test_constant(self):
        assert MultiPoly.constant(F(9, 4)).square_root() == F(3, 2)


class TestOrderingAndContent:
    def test_grlex_leading_term(self):
        p = 3 * Y ** 4 - T ** 5
        exps, coef = p.leading_term()
        assert coef == -1  # t^5 has larger total degree
        p2 = Y ** 2 * T - Y * T ** 2
        exps, coef = p2.leading_term()
        # same total degree: y-major tie break
        assert coef == 1 and exps == (2, 1)

    def test_monomial_content(self):
        p = Y ** 3 * T - Y ** 2 * T ** 2
        assert p.strip_monomial_content() == Y - T

    def test_content_in_variable(self):
        p = (T ** 2 - 1) * Y ** 2 + (T ** 2 - 1) * T * Y
        content = p.strip_monomial_content().content_in("y")
        # content of (t^2-1)*y + (t^3-t) in y is monic (t^2 - 1)... after stripping y
        assert content.degree_in("t") >= 1

    def test_trivial_content(self):
        assert (Y ** 2 - T).content_in("y") == 1

    def test_content_over_two_variables_rejected(self):
        with pytest.raises(ValueError, match="at most one coefficient variable"):
            (Y ** 2 * T + Y * Z).content_in("y")


class TestSerialization:
    def test_str_round_trip(self):
        cases = [
            3 * Y ** 4 - 4 * T * Y ** 3 - 4 * Y ** 3 + 6 * T * Y ** 2 - T ** 2,
            MultiPoly.zero(),
            MultiPoly.constant(F(-7, 3)),
            Y - 1,
            F(1, 2) * Y * T * Z - Z ** 5,
        ]
        for p in cases:
            assert MultiPoly.parse(str(p)) == p

    def test_parse_examples(self):
        assert MultiPoly.parse("y^2 - t") == Y ** 2 - T
        assert MultiPoly.parse("-1/2*y + 3") == -F(1, 2) * Y + 3
        with pytest.raises(ValueError):
            MultiPoly.parse("y +")
        with pytest.raises(ValueError):
            MultiPoly.parse("2y")

    def test_json_round_trip(self):
        p = F(1, 3) * Y ** 2 * T - Z + 5
        blob = p.to_json()
        assert MultiPoly.from_json_dict(json.loads(blob)) == p

    def test_json_deterministic(self):
        p = Y ** 2 - T + Z
        assert p.to_json() == p.to_json()


class TestImmutability:
    def test_setattr_blocked(self):
        with pytest.raises(AttributeError):
            Y.terms = {}

    def test_hashable(self):
        assert len({Y, Y, T}) == 2

    def test_hash_and_degrees_are_kept(self):
        p = Y ** 3 * T + T ** 2
        for _ in range(2):  # the second pass reads the kept values
            assert [p.degree_in(v) for v in ("y", "t", "z", "w")] == [3, 2, 0, 0]
        q = T ** 2 + Y ** 3 * T  # the same polynomial, in another term order
        assert hash(p) == hash(p) == hash(q) and p == q
        assert len({p, q, p + 1}) == 2

    def test_pickle_and_copy(self):
        from pvi.curves import master_poly

        p = master_poly((F(3, 2), 2, -1, F(1, 3)))
        p.vars, p ** 2, hash(p), p.degree_in("y")  # fill the memo slots
        memo = [slot for slot in MultiPoly.__slots__ if slot != "_t"]
        assert all(hasattr(p, slot) for slot in memo)
        types = [type(c) for c in p._t.values()]
        assert {int, Fraction} <= set(types)
        copies = [pickle.loads(pickle.dumps(p, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(p), copy.deepcopy(p)]
        for q in copies:
            assert not any(hasattr(q, slot) for slot in memo)
            assert q == p and hash(q) == hash(p)
            assert list(q._t) == list(p._t)
            assert [type(c) for c in q._t.values()] == types


# ----------------------------------------------------------------------
# the packed core over the whole universe, against sympy
# ----------------------------------------------------------------------

from pvi.multipoly import MAX_DEGREE, VARIABLES  # noqa: E402

_ALL_SYMS = {name: sp.Symbol(name) for name in VARIABLES}


def to_sympy_all(p: MultiPoly):
    expr = sp.Integer(0)
    for exps, coef in p.terms.items():
        term = sp.Rational(coef.numerator, coef.denominator)
        for var, e in zip(p.vars, exps):
            term *= _ALL_SYMS[var] ** e
        expr += term
    return sp.expand(expr)


def wide_poly(rng, names=VARIABLES, nterms=4, max_degree=MAX_DEGREE):
    """Random polynomial over ``names`` whose monomials reach total degree ``max_degree``."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(names)
        budget = rng.randint(0, max_degree)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(names))
            take = rng.randint(0, budget)
            exps[i] += take
            budget -= take
        terms[tuple(exps)] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(terms, names)


class TestPackedCoreOracle:
    def test_ring_operations_over_all_variables(self):
        rng = random.Random(4242)
        for _ in range(30):
            p, q = wide_poly(rng, max_degree=MAX_DEGREE // 2), wide_poly(rng, max_degree=MAX_DEGREE // 2)
            sp_p, sp_q = to_sympy_all(p), to_sympy_all(q)
            assert p.vars == tuple(v for v in VARIABLES if _ALL_SYMS[v] in sp_p.free_symbols)
            assert to_sympy_all(p + q) == sp.expand(sp_p + sp_q)
            assert to_sympy_all(p - q) == sp.expand(sp_p - sp_q)
            assert to_sympy_all(p * q) == sp.expand(sp_p * sp_q)
            name = rng.choice(VARIABLES)
            assert to_sympy_all(p.derivative(name)) == sp.diff(sp_p, _ALL_SYMS[name])

    def test_exponents_at_the_field_limit(self):
        rng = random.Random(7)
        for name in VARIABLES:
            x = MultiPoly.variable(name)
            top = x ** MAX_DEGREE
            assert top.total_degree() == top.degree_in(name) == MAX_DEGREE
            assert top.vars == (name,)
            assert to_sympy_all(top) == _ALL_SYMS[name] ** MAX_DEGREE
            p = wide_poly(rng, max_degree=MAX_DEGREE)
            assert MultiPoly.parse(str(p)) == p
            assert to_sympy_all(p.derivative(name)) == sp.diff(to_sympy_all(p), _ALL_SYMS[name])

    def test_disjoint_variable_sets(self):
        rng = random.Random(11)
        for _ in range(20):
            names = list(VARIABLES)
            rng.shuffle(names)
            left = tuple(sorted(names[:5], key=VARIABLES.index))
            right = tuple(sorted(names[5:], key=VARIABLES.index))
            p = wide_poly(rng, left, max_degree=40)
            q = wide_poly(rng, right, max_degree=40)
            sp_p, sp_q = to_sympy_all(p), to_sympy_all(q)
            assert to_sympy_all(p + q) == sp.expand(sp_p + sp_q)
            assert to_sympy_all(q - p) == sp.expand(sp_q - sp_p)
            assert to_sympy_all(p * q) == sp.expand(sp_p * sp_q)
            assert set((p * q).vars) == set(p.vars) | set(q.vars)
            if not q.is_zero():
                assert (p * q).exact_div(q) == p

    def test_try_divide(self):
        rng = random.Random(5)
        gens = [_ALL_SYMS[n] for n in VARIABLES]
        for _ in range(40):
            names = tuple(sorted(rng.sample(VARIABLES, 3), key=VARIABLES.index))
            a = wide_poly(rng, names, nterms=3, max_degree=6)
            b = wide_poly(rng, names, nterms=3, max_degree=4)
            if b.is_zero():
                continue
            for num in (a * b, a * b + wide_poly(rng, names, nterms=2, max_degree=5)):
                quo, rem = sp.div(sp.Poly(to_sympy_all(num), *gens), sp.Poly(to_sympy_all(b), *gens))
                got = num.try_divide(b)
                if rem.is_zero:
                    assert got is not None and to_sympy_all(got) == quo.as_expr()
                else:
                    assert got is None

    def test_subs(self):
        rng = random.Random(21)
        for _ in range(20):
            p = wide_poly(rng, nterms=4, max_degree=6)
            mapping = {
                name: wide_poly(rng, tuple(sorted(rng.sample(VARIABLES, 2), key=VARIABLES.index)),
                                nterms=2, max_degree=3)
                for name in rng.sample(VARIABLES, 3)
            }
            expected = sp.expand(to_sympy_all(p).subs(
                {_ALL_SYMS[n]: to_sympy_all(r) for n, r in mapping.items()}, simultaneous=True))
            assert to_sympy_all(p.subs(**mapping)) == expected
        assert (Y * T).subs(t=F(2, 3), z=Y) == F(2, 3) * Y

    def test_square_root(self):
        rng = random.Random(33)
        for _ in range(15):
            p = wide_poly(rng, nterms=3, max_degree=20)
            if p.is_zero():
                continue
            root = (p * p).square_root()
            assert root == p.sign_normalized()
            assert sp.expand(to_sympy_all(root) ** 2) == sp.expand(to_sympy_all(p) ** 2)

    def test_coefficients_in(self):
        rng = random.Random(8)
        for _ in range(20):
            p = wide_poly(rng, nterms=5, max_degree=12)
            name = rng.choice(VARIABLES)
            coeffs = p.coefficients_in(name)
            expected = sp.Poly(to_sympy_all(p), _ALL_SYMS[name]).as_dict()
            assert {d: to_sympy_all(c) for d, c in coeffs.items()} == {
                k[0]: sp.expand(v) for k, v in expected.items()}
            assert all(name not in c.vars for c in coeffs.values())

    def test_content_in(self):
        rng = random.Random(13)
        for _ in range(15):
            content = wide_poly(rng, ("t",), nterms=2, max_degree=3)
            if content.is_constant():
                continue
            cofactor = wide_poly(rng, ("y", "t"), nterms=3, max_degree=4)
            if cofactor.degree_in("y") == 0:
                continue
            p = content * cofactor
            coeffs = sp.Poly(to_sympy_all(p), _ALL_SYMS["y"]).all_coeffs()
            expected = sp.Poly(sp.gcd_list(coeffs), _ALL_SYMS["t"]).monic().as_expr()
            got = to_sympy_all(p.content_in("y"))
            # the content is defined up to a unit of Q
            assert sp.cancel(got / expected).is_number

    def test_str_and_json_round_trips(self):
        rng = random.Random(55)
        for _ in range(30):
            p = wide_poly(rng, nterms=rng.randint(0, 6))
            assert MultiPoly.parse(str(p)) == p
            assert str(MultiPoly.parse(str(p))) == str(p)
            q = MultiPoly.from_json_dict(json.loads(p.to_json()))
            assert q == p and q.to_json() == p.to_json()
            assert to_sympy_all(q) == to_sympy_all(p)


class TestDegreeLimit:
    def test_parse_refuses_high_degree(self):
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            MultiPoly.parse("y^256")
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            MultiPoly.parse("y^200*t^56 - 1")
        assert MultiPoly.parse("y^255").degree_in("y") == MAX_DEGREE

    def test_power_refuses_high_degree(self):
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            Y ** 256
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            (Y * T + 1) ** 128
        assert (Y + 1) ** 255 == ((Y + 1) ** 85) ** 3

    def test_product_refuses_high_degree(self):
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            Y ** 200 * T ** 56
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            (Y ** 128 + 1) * (Y ** 128 - 1)
        assert (Y ** 200 * T ** 55).total_degree() == MAX_DEGREE

    def test_construction_and_substitution_refuse_high_degree(self):
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            MultiPoly({(200, 56): 1}, ("y", "t"))
        with pytest.raises(ValueError, match=str(MAX_DEGREE)):
            (Y ** 100 * T).subs(t=Z ** 156)


class TestCoefficientStorage:
    def test_accessors_return_fractions(self):
        p = 3 * Y ** 2 - F(1, 2) * T + 4
        assert all(type(c) is Fraction for c in p.terms.values())
        assert type(p.leading_term()[1]) is Fraction
        assert type(MultiPoly.constant(5).constant_value()) is Fraction
        assert type(p(y=2, t=4)) is Fraction and p(y=2, t=4) == 14
        assert all(type(c) is Fraction for _, c in p.sorted_terms())

    def test_views_are_read_only(self):
        p = Y + T
        with pytest.raises(TypeError):
            p.terms[(1, 1)] = F(1)
        assert p == Y + T


# ----------------------------------------------------------------------
# term order: evaluation at inexact points sums terms in dict order, so every
# operation must keep the order of the exponent-tuple reference below
# ----------------------------------------------------------------------


def _full(p: MultiPoly) -> list:
    """(exponents over all of VARIABLES, coefficient) pairs in term order."""
    return [(tuple(dict(zip(p.vars, e)).get(v, 0) for v in VARIABLES), c) for e, c in p.terms.items()]


def ref_mul(p: MultiPoly, q: MultiPoly) -> list:
    """Nested-loop product over exponent tuples: each key sits where it first arises."""
    out = {}
    for e1, c1 in _full(p):
        for e2, c2 in _full(q):
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return [(k, c) for k, c in out.items() if c]


def ref_add(p: MultiPoly, q: MultiPoly) -> list:
    out = dict(_full(p))
    for k, c in _full(q):
        out[k] = out.get(k, 0) + c
    return [(k, c) for k, c in out.items() if c]


def ref_subs(p: MultiPoly, mapping: dict) -> MultiPoly:
    """Substitution as one chain of public products and sums per term."""
    result = MultiPoly.zero()
    for exps, coef in p.terms.items():
        term = MultiPoly.constant(coef)
        for var, e in zip(p.vars, exps):
            if e:
                term = term * (mapping[var] ** e if var in mapping else MultiPoly.variable(var) ** e)
        result = result + term
    return result


class TestTermOrder:
    def test_products_and_sums_keep_reference_order(self):
        rng = random.Random(808)
        for _ in range(60):
            names = tuple(sorted(rng.sample(VARIABLES, 3), key=VARIABLES.index))
            p = wide_poly(rng, names, nterms=5, max_degree=4)
            q = wide_poly(rng, names, nterms=5, max_degree=4) + rng.choice([0, 1, F(-1, 3)])
            assert _full(p * q) == ref_mul(p, q)
            assert _full(p + q) == ref_add(p, q)
            assert _full(p - q) == ref_add(p, -q)

    def test_cancelling_product_keeps_reference_order(self):
        u = [MultiPoly.variable(f"u{i}") for i in range(4)]
        out = MultiPoly.constant(1)
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    factor = u[0] + s1 * u[1] + s2 * u[2] + s3 * u[3]
                    assert _full(out * factor) == ref_mul(out, factor)
                    out = out * factor

    def test_substitution_keeps_chain_order(self):
        rng = random.Random(909)
        for _ in range(20):
            p = wide_poly(rng, ("y", "t", "z"), nterms=5, max_degree=5)
            mapping = {"y": wide_poly(rng, ("t", "z"), nterms=3, max_degree=2),
                       "z": wide_poly(rng, ("y", "t"), nterms=2, max_degree=2) + 1}
            got, want = p.subs(**mapping), ref_subs(p, mapping)
            assert got == want and _full(got) == _full(want)

    def test_evaluation_multiplies_and_sums_in_reference_order(self):
        rng = random.Random(1010)

        def reference(p, point):
            total = None
            for exps, coef in p.terms.items():
                term = coef
                for var, e in zip(p.vars, exps):
                    if e:
                        term = term * point[var] ** e
                total = term if total is None else total + term
            return total

        for _ in range(200):
            point = {v: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for v in ("y", "t", "z")}
            point["t"] = point["t"].real
            monomial = wide_poly(rng, ("y", "t", "z"), nterms=1, max_degree=9)
            p = wide_poly(rng, ("y", "t", "z"), nterms=6, max_degree=9)
            for q in (monomial, p):
                if q.vars:
                    assert q(**point) == reference(q, point)


def ref_divide(p: MultiPoly, d: MultiPoly) -> list | None:
    """Graded-lex long division over exponent tuples, every quotient term a
    Fraction; the quotient's terms in the order they arise, or None if inexact."""
    def order(e):
        return sum(e), e

    div = _full(d)
    lead, lc = max(div, key=lambda kc: order(kc[0]))
    rem, quot = dict(_full(p)), []
    while rem:
        key = max(rem, key=order)
        delta = tuple(a - b for a, b in zip(key, lead))
        if min(delta) < 0:
            return None
        c = Fraction(rem[key]) / lc
        quot.append((delta, c))
        for k, dc in div:
            k = tuple(a + b for a, b in zip(delta, k))
            v = rem.get(k, 0) - c * dc
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quot


class TestTryDivideIntPath:
    """try_divide divides ints by ints where the quotient is integral; it must
    give the Fraction reference's quotient, term for term and in order."""

    @staticmethod
    def check(num: MultiPoly, den: MultiPoly):
        got, want = num.try_divide(den), ref_divide(num, den)
        if want is None:
            assert got is None
            return
        assert _full(got) == want
        # stored as ints where integral, Fractions otherwise
        assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in got._t.values())

    def test_non_unit_leading_coefficient(self):
        d = 2 * Y - 1
        for q in (Y ** 2 + 3 * T, 4 * Y ** 3 - 6 * Y * T + 2, Y - F(1, 2), 3 * Y ** 2 * T - 5):
            self.check(q * d, d)
        assert ((Y ** 2 + 3 * T) * d).try_divide(d) == Y ** 2 + 3 * T

    def test_fraction_leading_coefficient(self):
        d = F(1, 3) * Y + T
        for q in (Y ** 2 - 3 * T, 6 * Y + 9, Y * T - F(2, 5)):
            self.check(q * d, d)
        assert ((6 * Y + 9) * d).try_divide(d) == 6 * Y + 9

    def test_inexact_returns_none(self):
        for num, den in ((Y ** 2 + T, 2 * Y - 1), (4 * Y ** 2 + 1, 2 * Y - 1),
                         (Y ** 2 * T + 1, F(1, 3) * Y + T), ((2 * Y - 1) * (Y + T) + 1, 2 * Y - 1)):
            assert ref_divide(num, den) is None
            assert num.try_divide(den) is None

    def test_random_products_keep_reference_order(self):
        rng = random.Random(1111)
        for _ in range(60):
            a = wide_poly(rng, ("y", "t", "z"), nterms=4, max_degree=5)
            b = wide_poly(rng, ("y", "t", "z"), nterms=3, max_degree=3) + rng.choice([1, 2, F(1, 3)])
            for num in (a * b, a * b + rng.choice([1, Y, F(1, 2) * T])):
                self.check(num, b)


# ----------------------------------------------------------------------
# exact evaluation in integers, the int parser, the power memo
# ----------------------------------------------------------------------


def ref_exact_eval(p: MultiPoly, point: dict) -> Fraction:
    """Term by term in Fractions."""
    total = F(0)
    for exps, coef in p.terms.items():
        term = F(coef)
        for var, e in zip(p.vars, exps):
            term *= F(point[var]) ** e
        total += term
    return total


def ref_float_eval(p: MultiPoly, point: dict):
    """The evaluation loop for inexact inputs: factors in universe order, terms in term order."""
    total = None
    for key, coef in p._t.items():
        term = coef
        for var, e in zip(p.vars, p._decoder()(key)):
            if e:
                term = term * point[var] ** e
        total = term if total is None else total + term
    return F(total) if type(total) is int else total


class TestExactEvaluation:
    NAMES = ("y", "t", "z", "a0", "u1")

    def polys(self, rng):
        for _ in range(40):
            yield wide_poly(rng, self.NAMES, nterms=rng.randint(1, 7), max_degree=9)
        yield MultiPoly.parse("3*y^2 - 2*t + 5")  # integer coefficients
        yield Y ** 4 - F(1, 3) * Y * T ** 2

    def test_int_and_fraction_points(self):
        rng = random.Random(1515)
        for p in self.polys(rng):
            points = [
                {v: rng.randint(-9, 9) for v in self.NAMES},
                {v: F(rng.randint(-9, 9), rng.randint(1, 7)) for v in self.NAMES},
                {v: rng.choice([rng.randint(-4, 4), F(rng.randint(-9, 9), rng.randint(2, 7))])
                 for v in self.NAMES},
                {v: F(rng.randint(-9, 9)) for v in self.NAMES},  # Fractions with denominator 1
            ]
            for point in points:
                got = p(**point)
                assert type(got) is Fraction
                assert got == ref_exact_eval(p, point)

    def test_bool_points_take_the_float_loop(self):
        rng = random.Random(1616)
        for p in self.polys(rng):
            point = {v: rng.choice([True, False, 2, F(1, 3)]) for v in self.NAMES}
            got = p(**point)
            assert type(got) is Fraction
            assert got == ref_exact_eval(p, {v: F(int(x)) if type(x) is bool else x
                                             for v, x in point.items()})

    def test_mixed_float_point_is_bit_for_bit(self):
        rng = random.Random(1717)
        for p in self.polys(rng):
            point = {v: rng.choice([rng.uniform(-2, 2), F(rng.randint(-9, 9), rng.randint(1, 7)),
                                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
                     for v in self.NAMES}
            point["y"] = rng.uniform(-2, 2)
            got, want = p(**point), ref_float_eval(p, point)
            assert type(got) is type(want) and repr(got) == repr(want)

    def test_zero_and_constant_polynomials(self):
        for point in ({}, {"y": F(1, 2)}, {"y": 2.5}, {"t": 1j}):
            assert type(MultiPoly.zero()(**point)) is Fraction
            assert MultiPoly.zero()(**point) == 0
            for c in (7, F(-2, 3)):
                got = MultiPoly.constant(c)(**point)
                assert type(got) is Fraction and got == c

    def test_unbound_variables_named_in_order(self):
        p = Y * T + Z
        for point in ({"t": 1}, {"t": 1.0}, {"t": F(1, 2)}):
            with pytest.raises(ValueError, match=r"unbound variables \['y', 'z'\]"):
                p(**point)


def reference_parse(text: str) -> MultiPoly:
    """The parser as it was, multiplying number factors as Fraction(str)."""
    from pvi.multipoly import _FACTOR_RE, _TERM_RE, _VAR_INDEX, _VAR_KEY, _accumulate, _check_degree
    from pvi.multipoly import _check_vars, _norm

    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    acc = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or not m.group("body").strip():
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        if pos and m.group("sign") is None:
            raise ValueError(f"missing +/- separator near {s[pos:]!r}")
        coef = -1 if m.group("sign") == "-" else 1
        key = degree = 0
        for factor in m.group("body").split("*"):
            factor = factor.strip()
            fm = _FACTOR_RE.match(factor)
            if not fm:
                raise ValueError(f"bad factor {factor!r}")
            if fm.group("num") is not None:
                coef *= Fraction(fm.group("num"))
            else:
                name = _check_vars((fm.group("var"),))[0]
                e = int(fm.group("exp") or 1)
                degree += e
                _check_degree(degree)
                key += e * _VAR_KEY[_VAR_INDEX[name]]
        _accumulate(acc, [(key, _norm(coef))])
        pos = m.end()
    return MultiPoly._of(acc)


def random_text(rng) -> str:
    parts = []
    for _ in range(rng.randint(1, 7)):
        factors = []
        for _ in range(rng.randint(0, 3)):
            num = str(rng.randint(0, 40))
            factors.append(num if rng.random() < 0.5 else f"{num}/{rng.randint(1, 12)}")
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(("y", "t", "z", "a0", "u3"))
            factors.append(v if rng.random() < 0.4 else f"{v}^{rng.randint(0, 6)}")
        rng.shuffle(factors)
        body = " * ".join(factors) or "1"
        parts.append(f"{rng.choice('+-')} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") and rng.random() < 0.5 else text


class TestParserAgainstReference:
    def test_random_texts_keep_order_and_types(self):
        rng = random.Random(1818)
        for _ in range(400):
            text = random_text(rng)
            got, want = MultiPoly.parse(text), reference_parse(text)
            assert list(got._t.items()) == list(want._t.items()), text
            assert [type(c) for c in got._t.values()] == [type(c) for c in want._t.values()]

    @pytest.mark.parametrize("text", [
        "", "   ", "y +", "y t", "2*x", "y^", "y^-1", "3/", "/3", "1/0", "2*y*0/0", "y*007/00",
        "y**2", "y^200*t^56", "y^256", "y^99999999999", "1/0*y^300", "y^300*1/0", "w*1/0",
        "y - - t", "+", "2 3", "a9", "1.5*y", "y*", "*y",
    ])
    def test_bad_input_raises_the_same(self, text):
        def outcome(parse):
            try:
                return "ok", list(parse(text)._t.items())
            except Exception as exc:  # noqa: BLE001 - the type and message are compared
                return type(exc), str(exc)

        got = outcome(MultiPoly.parse)
        assert got[0] != "ok"
        assert got == outcome(reference_parse)


def ref_pow(p: MultiPoly, n: int) -> MultiPoly:
    """Square-and-multiply through public products, from a fresh copy of p."""
    result, base = None, MultiPoly._of(dict(p._t))
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return MultiPoly.constant(1) if result is None else result


class TestPowerMemo:
    def test_repeated_power_is_the_same_object(self):
        rng = random.Random(1919)
        for _ in range(30):
            p = wide_poly(rng, ("y", "t", "z"), nterms=4, max_degree=4)
            for n in (0, 1, 2, 3, 5, 2):
                q = p ** n
                assert p ** n is q
                assert _full(q) == _full(ref_pow(p, n))
                assert all((type(c) is int) == (F(c).denominator == 1) for c in q._t.values())

    def test_errors_come_before_the_memo(self):
        p = Y ** 100 + T
        for bad, error in ((-1, "nonnegative"), (1.5, "nonnegative"), (F(2), "nonnegative"),
                           (3, "exceeds the limit")):
            with pytest.raises(ValueError, match=error):
                p ** bad
            assert getattr(p, "_powers", None) is None
        q = p ** 2
        with pytest.raises(ValueError, match="exceeds the limit"):
            p ** 3
        assert p._powers == {2: q}

    def test_memo_is_not_shared_between_equal_polynomials(self):
        p, q = Y + T, Y + T
        assert p ** 2 == q ** 2 and p ** 2 is not q ** 2


class TestContentOverZ:
    """content_in takes the gcd over Z; it must be sympy's monic gcd over Q."""

    @staticmethod
    def univariate(rng, name, max_degree, fractions=True):
        """A random polynomial in one variable, of degree 1 to max_degree when
        max_degree >= 1 and a nonzero constant otherwise."""
        var = MultiPoly.variable(name)
        while True:
            p = sum((F(rng.randint(-6, 6), rng.randint(1, 4) if fractions else 1) * var ** e
                     for e in range(max_degree + 1)), MultiPoly.zero())
            if p.degree_in(name) >= min(1, max_degree) and p:
                return p

    @pytest.mark.parametrize("main,other", [("y", "t"), ("t", "y")])
    def test_against_sympy_gcd(self, main, other):
        rng = random.Random(2121)
        x, var = _SYMS[other], MultiPoly.variable(main)
        units = 0
        for trial in range(120):
            if trial % 4 == 0:
                content = MultiPoly.constant(1)
            else:
                content = self.univariate(rng, other, rng.randint(1, 3), fractions=trial % 2 == 1)
            p = MultiPoly.zero()
            for e in range(rng.randint(2, 4)):
                p = p + content * self.univariate(rng, other, rng.randint(0, 4)) * var ** e
            coeffs = [to_sympy(c) for c in p.coefficients_in(main).values()]
            expected = sp.Poly(sp.gcd_list(coeffs), x, domain="QQ").monic()
            got = p.content_in(main)
            assert sp.Poly(to_sympy(got), x, domain="QQ") == expected
            assert list(got._t) == sorted(got._t)
            assert all((type(c) is int) == (F(c).denominator == 1) for c in got._t.values())
            units += got == 1
        assert 20 < units < 100

    def test_unit_and_shared_contents(self):
        p0 = (Y - 1) ** 2 * Y ** 2 - Y ** 2 - T * ((Y - 1) ** 2 - Y ** 2)
        assert p0.content_in("t") == 1
        assert ((2 * T - 1) * Y ** 2 + (4 * T - 2) * Y).content_in("y") == T - F(1, 2)
        assert ((F(1, 3) * T ** 2 - F(1, 3)) * Y + (T + 1) * Y ** 3).content_in("y") == T + 1
        # zero rows between nonzero ones, and rows with trailing zeros
        assert ((T ** 2 + 1) * Y ** 4 + (T ** 2 + 1) * (T - 3)).content_in("y") == T ** 2 + 1
        assert ((Y ** 3 - Y) * T ** 2 + (Y ** 2 - 1)).content_in("t") == Y ** 2 - 1
        # a single coefficient is made monic too
        assert (3 * T * Y ** 2).content_in("y") == T
        assert (2 * T + 4).content_in("y") == T + 2
        assert (F(1, 3) * Y ** 2 + Y).content_in("t") == Y ** 2 + 3 * Y

    def test_unknown_name_is_refused(self):
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            (T + 1).content_in("w")


class TestIntegerGrid:
    def test_another_variable_is_refused(self):
        p = F(1, 2) * Y ** 2 * T - F(2, 3) * T ** 2 + 5
        assert integer_grid(p, "y", "t") == (6, [[30, 0, -4], [0, 0, 0], [0, 3, 0]])
        assert integer_grid(p, "t", "y") == (6, [[30, 0, 0], [0, 0, 3], [-4, 0, 0]])
        assert integer_grid(MultiPoly.constant(F(2, 5)), "y", "t") == (5, [[2]])
        # read as grids in (y, t), z would be dropped: y + 1, y + t, 2y - 1, 1
        for p in (Y + Z + 1, Y * Z + T, 2 * Y - Z, Z):
            with pytest.raises(ValueError, match=r"\(y, t\) of a polynomial in \(.*'z'"):
                integer_grid(p, "y", "t")
        # an unknown name, or one name twice
        for p, outer, inner in ((Y, "y", "w"), (Y, "w", "y"), (Y ** 2 + 1, "y", "y")):
            with pytest.raises(ValueError, match=rf"integer grid in \({outer}, {inner}\)"):
                integer_grid(p, outer, inner)


# ----------------------------------------------------------------------
# monomial substitutions by key arithmetic, scalar and zero denominators
# ----------------------------------------------------------------------


def ref_substitute(p: MultiPoly, maps: dict) -> MultiPoly:
    """Substitution with denominators as one chain of public products and sums
    per term: a mapped name of degree d contributes num^e * den^(d-e)."""
    result = MultiPoly.zero()
    for exps, coef in p.terms.items():
        term = MultiPoly.constant(coef)
        for var, e in zip(p.vars, exps):
            if var in maps:
                num, den = maps[var]
                term = term * num ** e * den ** (p.degree_in(var) - e)
            elif e:
                term = term * MultiPoly.variable(var) ** e
        result = result + term
    return result


def random_monomial(rng, names=("y", "t", "z", "a0", "u3")) -> MultiPoly:
    """c times a monomial of degree 0 to 3; c a nonzero int or Fraction."""
    mono = MultiPoly.constant(rng.choice([rng.choice([-3, -1, 1, 2, 5]),
                                          F(rng.choice([-5, -1, 1, 3]), rng.randint(2, 7))]))
    for _ in range(rng.randint(0, 3)):
        mono = mono * MultiPoly.variable(rng.choice(names))
    return mono


class TestMonomialMaps:
    """A map whose every num and den is one term sends each term to one term
    by key arithmetic; it must give the chain's result, term for term and in
    order, stored as ints where integral."""

    NAMES = ("y", "t", "z", "a0", "u3")

    @staticmethod
    def same(got: MultiPoly, want: MultiPoly):
        assert got == want and _full(got) == _full(want)
        assert [type(c) for c in got._t.values()] == [type(c) for c in want._t.values()]

    def test_subs_against_ref_subs(self):
        rng = random.Random(2525)
        for _ in range(150):
            p = wide_poly(rng, ("y", "t", "z"), nterms=rng.randint(1, 7), max_degree=5)
            # some of the mapped names are absent from p (a0 always is)
            mapping = {v: rng.choice([random_monomial(rng, self.NAMES), rng.randint(-4, 4),
                                      F(rng.randint(-4, 4), rng.randint(2, 5))])
                       for v in rng.sample(("y", "t", "z", "a0"), rng.randint(1, 3))}
            got = p.subs(**mapping)
            self.same(got, ref_subs(p, {v: r if isinstance(r, MultiPoly) else MultiPoly.constant(r)
                                        for v, r in mapping.items()}))

    def test_substitute_against_ref_substitute(self):
        rng = random.Random(2626)
        for _ in range(150):
            p = wide_poly(rng, ("y", "t", "z"), nterms=rng.randint(1, 7), max_degree=5)
            maps = {v: (random_monomial(rng, self.NAMES), random_monomial(rng, self.NAMES))
                    for v in rng.sample(("y", "t", "z", "a0"), rng.randint(1, 3))}
            self.same(p.substitute(maps), ref_substitute(p, maps))

    def test_merges_cancellations_and_re_entry(self):
        cases = [
            # two terms sent to one key: y*t and t^2 both go to t^2
            (Y * T + T ** 2 + Z, {"y": T}),
            # a cancellation: y*t - t^2 -> 0
            (Y * T - T ** 2, {"y": T}),
            # t^2 cancels, then y^2 sends t^2 back in at the end
            (Y * T - T ** 2 + Z + Y ** 2, {"y": T}),
            # Fraction coefficients that meet as an integer
            (F(1, 2) * Y * T + F(3, 2) * T ** 2 - Z, {"y": T}),
            (F(1, 3) * Y ** 2 + F(2, 3) * T, {"y": 1}),
            # constants, zero included, and a name absent from p
            (Y ** 3 - 2 * Y * T + 5, {"y": F(-2, 3), "a0": 7}),
            (Y ** 3 - 2 * Y * T + 5, {"y": 0}),
        ]
        for p, mapping in cases:
            self.same(p.subs(**mapping), ref_subs(p, {v: r if isinstance(r, MultiPoly) else MultiPoly.constant(r)
                                                      for v, r in mapping.items()}))
        assert (Y * T - T ** 2).subs(y=T).is_zero()
        assert _full((Y * T - T ** 2 + Z + Y ** 2).subs(y=T))[-1][0] == (0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        merged = (F(1, 2) * Y * T + F(3, 2) * T ** 2).subs(y=T)
        assert merged == 2 * T ** 2 and [type(c) for c in merged._t.values()] == [int]

    def test_paper_monomial_maps(self):
        from pvi.curves import CURVES, SYMMETRY_GENERATORS, kummer_defect_poly

        for p in CURVES.values():
            for gen in ("s2", "s3"):
                self.same(p.substitute(SYMMETRY_GENERATORS[gen]), ref_substitute(p, SYMMETRY_GENERATORS[gen]))
        squares = {f"a{i}": MultiPoly.variable(f"u{i}") ** 2 for i in range(4)}
        self.same(kummer_defect_poly().subs(**squares), ref_subs(kummer_defect_poly(), squares))

    def test_degree_refusal(self):
        for p, maps in (
            (Y ** 200 + T, {"y": (T ** 2, 1)}),
            (Y ** 130 + T, {"y": (Y ** 2, 1)}),  # one term over the limit
            (Y ** 100 + T, {"y": (1, Z ** 3)}),  # den^d over the limit
            (Y ** 100 * T, {"t": (Z ** 156, 1)}),
        ):
            with pytest.raises(ValueError, match="exceeds the limit"):
                p.substitute(maps)
        assert (Y ** 100 * T).subs(t=Z ** 155).total_degree() == MAX_DEGREE
        assert (Y ** 85).substitute({"y": (T ** 3, 1)}) == T ** 255


class TestSubstitutionInputs:
    def test_zero_denominator_is_refused(self):
        cases = [
            (Y ** 2 + Y, {"y": (1, 0)}),
            (Y, {"y": (0, 0)}),
            (Y ** 2 + Y, {"y": (Y + 1, MultiPoly.zero())}),  # the chain's map
            (T + 1, {"y": (1, F(0))}),  # y does not occur
            (Y ** 200, {"y": (T ** 2, 1), "t": (1, 0)}),  # before the degree check
        ]
        for p, maps in cases:
            with pytest.raises(ZeroDivisionError, match="'[yt]'"):
                p.substitute(maps)
        with pytest.raises(ZeroDivisionError, match="'t'"):
            (Y + T).substitute({"y": (Y, 1), "t": (T + 1, 0)})

    def test_exact_scalars(self):
        assert (Y ** 2).substitute({"y": (1, 2)}) == 1
        assert (Y ** 2 + Y).substitute({"y": (1, 2)}) == 3
        assert (Y ** 2 - T).substitute({"y": (F(1, 3), T)}) == F(1, 9) - T ** 3
        assert (Y ** 2 - T).substitute({"t": (F(2, 3), F(1, 2))}) == F(1, 2) * Y ** 2 - F(2, 3)
        for p in (Y ** 3 - 2 * Y * T + F(1, 2), Y * T ** 2 - 1):
            for num, den in ((2, 3), (F(-1, 2), 1), (0, 5), (T, F(3, 4)), (3, Y + T)):
                wrapped = {"y": tuple(x if isinstance(x, MultiPoly) else MultiPoly.constant(x)
                                      for x in (num, den))}
                got, want = p.substitute({"y": (num, den)}), p.substitute(wrapped)
                assert list(got._t.items()) == list(want._t.items())
        assert (Y * T).subs(y=3, t=F(1, 2)) == F(3, 2)

    def test_other_values_are_refused(self):
        for bad in ((1.5, 1), (Y, "t"), (None, 1), (Y, 2.0), (1j, 1)):
            with pytest.raises(TypeError, match="cannot substitute"):
                (Y + T).substitute({"y": bad})
        with pytest.raises(TypeError, match="cannot substitute"):
            (Y + T).subs(t=0.5)


# ----------------------------------------------------------------------
# the printer and the monomial content, read from ints and keys
# ----------------------------------------------------------------------


def reference_str(p: MultiPoly) -> str:
    """The printer as it was, comparing Fractions and printing abs(coef)."""
    from pvi.multipoly import _MASK, _SHIFTS, _VAR_INDEX

    if not p._t:
        return "0"
    fields = [(v, _SHIFTS[_VAR_INDEX[v]]) for v in p.vars]
    parts = []
    for key in sorted(p._t, reverse=True):
        coef = p._t[key]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, s in fields if (e := key >> s & _MASK))
        mag = abs(coef)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = ("+ " if coef > 0 else "- ") if parts else ("" if coef > 0 else "-")
        parts.append(sign + body)
    return " ".join(parts)


def printer_polys(rng):
    yield MultiPoly.zero()
    for c in (1, -1, 7, -12, F(1, 2), F(-3, 7), F(22, 5)):
        yield MultiPoly.constant(c)
        yield c * Y
        yield c * Y ** 3 * T - 1
        yield -Y ** 2 + c  # negative leading coefficient, constant last
    for _ in range(200):
        p = wide_poly(rng, ("y", "t", "z", "a0", "u3"), nterms=rng.randint(1, 6), max_degree=7)
        yield p
        yield -p
        yield p + rng.choice([1, -1, F(-5, 2), 3])
        yield p * rng.choice([2, F(1, 3), -6])  # integral and Fraction magnitudes


class TestPrinterAndContent:
    def test_str_against_reference(self):
        rng = random.Random(2727)
        seen = set()
        for p in printer_polys(rng):
            assert str(p) == repr(p) == reference_str(p)
            seen.update(type(c) for c in p._t.values())
        assert seen == {int, Fraction}

    def test_monomial_content_against_decoded_terms(self):
        rng = random.Random(2828)
        for p in printer_polys(rng):
            mins = tuple(map(min, zip(*p.terms)))  # the decoded-terms formula
            assert p.monomial_content() == mins
            stripped = p.strip_monomial_content()
            if not any(mins):
                assert stripped is p
                continue
            want = MultiPoly({tuple(e - m for e, m in zip(exps, mins)): c for exps, c in p.terms.items()}, p.vars)
            assert list(stripped._t.items()) == list(want._t.items())
            assert [type(c) for c in stripped._t.values()] == [type(c) for c in p._t.values()]
        for p in (MultiPoly.zero(), MultiPoly.constant(F(-2, 3)), MultiPoly.constant(4)):
            assert p.monomial_content() == ()
            assert p.strip_monomial_content() is p
        p = Y ** 3 * T ** 2 * Z - F(1, 2) * Y ** 2 * T ** 5
        assert p.monomial_content() == (2, 2, 0)
        assert p.strip_monomial_content() == Y * Z - F(1, 2) * T ** 3
