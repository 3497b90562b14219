"""Identity layer: master sextic, reducibility surface, quartics, symmetries."""

import copy
import hashlib
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy

from pvi.curves import (
    CURVE_TABLE,
    CURVES,
    QUARTIC_CURVES,
    SYMMETRY_GENERATORS,
    UNIFORMIZATIONS,
    CurveId,
    apply_symmetry,
    derive_quartics,
    identify_curve,
    is_irreducible,
    kummer_condition,
    kummer_defect_poly,
    line_membership,
    master_poly,
    p0_poly,
    pattern_curves,
    signed_sum_product,
    verify_kummer_equivalence,
    verify_uniformization,
)
from pvi.curves import _SQUARE_POINT, _TRIAL_FACTORS, _fp_is_irreducible, _fp_mod, _nonzero_at, _square_at
from pvi.multipoly import MultiPoly, integer_grid, linear_combination

F = Fraction
Y = MultiPoly.variable("y")
T = MultiPoly.variable("t")


def rand_frac(rng, den=8):
    return F(rng.randint(-9, 9), rng.randint(1, den))


class TestMasterPoly:
    def test_three_factor_identity(self):
        assert master_poly((1, 1, 1, 1)) == (
            CURVES[CurveId.A] * CURVES[CurveId.B] * CURVES[CurveId.C]
        )

    def test_zero(self):
        assert master_poly((0, 0, 0, 0)).is_zero()

    def test_vanishing_last_parameter(self):
        assert master_poly((1, 1, 1, 0)) == (Y - T) ** 2 * p0_poly((1, 1, 1))

    def test_cofactor_random(self):
        rng = random.Random(5)
        for _ in range(20):
            a = (rand_frac(rng), rand_frac(rng), rand_frac(rng))
            assert master_poly((*a, 0)) == (Y - T) ** 2 * p0_poly(a)

    def test_linear_in_parameters(self):
        rng = random.Random(6)
        for _ in range(20):
            a = [rand_frac(rng) for _ in range(4)]
            b = [rand_frac(rng) for _ in range(4)]
            s = [x + y for x, y in zip(a, b)]
            assert master_poly(a) + master_poly(b) == master_poly(s)

    def test_divisible_by_matched_curve(self):
        from pvi.selftest import CANONICAL_ALPHA

        for cid, alpha in CANONICAL_ALPHA.items():
            assert master_poly(list(alpha)).try_divide(CURVES[cid]) is not None


def product_master(alpha):
    """The sextic multiplied out term by term, as it was built before the basis."""
    a0, a1, a2, a3 = (F(a) for a in alpha)
    y2, ym1, ymt = Y ** 2, (Y - 1) ** 2, (Y - T) ** 2
    return (a0 * y2 * ym1 * ymt - a1 * T * ym1 * ymt
            - a2 * (1 - T) * y2 * ymt - a3 * T * (T - 1) * y2 * ym1)


def product_p0(alpha):
    a0, a1, a2 = (F(a) for a in alpha[:3])
    return a0 * (Y - 1) ** 2 * Y ** 2 - a2 * Y ** 2 - T * (a1 * (Y - 1) ** 2 - a2 * Y ** 2)


def same_terms(p, q):
    """Same keys in the same order, with the same coefficients and coefficient types."""
    return (list(p._t.items()) == list(q._t.items())
            and [type(c) for c in p._t.values()] == [type(c) for c in q._t.values()])


class TestLinearBasis:
    """master_poly and p0_poly are combinations of constant basis polynomials;
    eval-picard sums the sextic's terms in dict order, so the combination must
    keep the product formula's term order, not only its value."""

    GRID = (0, 1, F(-3, 2), 2, -1, F(1, 3))

    def test_master_matches_product_formula(self):
        for alpha in product(self.GRID, repeat=4):
            assert same_terms(master_poly(alpha), product_master(alpha)), alpha

    def test_p0_matches_product_formula(self):
        for alpha in product(self.GRID, repeat=3):
            assert same_terms(p0_poly(alpha), product_p0(alpha)), alpha
            assert same_terms(p0_poly((*alpha, 5)), product_p0(alpha))

    def test_random_parameters(self):
        rng = random.Random(44)
        for _ in range(100):
            alpha = [rng.choice([0, rand_frac(rng), rng.randint(-9, 9)]) for _ in range(4)]
            assert same_terms(master_poly(alpha), product_master(alpha)), alpha
            assert same_terms(p0_poly(alpha), product_p0(alpha)), alpha

    def test_parameters_as_text_and_floats(self):
        for alpha in (("1/2", "3", "-2/7", "0"), (0.5, 1.25, -2.0, 3.0)):
            assert same_terms(master_poly(alpha), product_master(alpha))
            assert same_terms(p0_poly(alpha), product_p0(alpha))

    def test_constant_basis_is_not_changed_by_use(self):
        before = [str(master_poly(a)) for a in product((0, 1), repeat=4)]
        for alpha in product(self.GRID, repeat=2):
            master_poly((*alpha, *alpha))
        assert [str(master_poly(a)) for a in product((0, 1), repeat=4)] == before


def fraction_kummer_defect(alpha):
    a = [F(x) for x in alpha]
    sym2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    return (sum(x * x for x in a) - 2 * sym2) ** 2 - 64 * a[0] * a[1] * a[2] * a[3]


def reference_signed_sum_product():
    """The sign product as it was built: the eight linear factors multiplied in turn."""
    u = [MultiPoly.variable(f"u{i}") for i in range(4)]
    out = MultiPoly.constant(1)
    for signs in product((1, -1), repeat=3):
        out = out * linear_combination((1, *signs), u)
    return out


class TestKummer:
    def test_defect_matches_fraction_formula(self):
        rng = random.Random(45)
        for _ in range(300):
            alpha = [rng.choice([0, rand_frac(rng, 30), rng.randint(-99, 99), F(rng.randint(1, 9), 10 ** 9)])
                     for _ in range(4)]
            holds, defect = kummer_condition(alpha)
            assert type(defect) is F and defect == fraction_kummer_defect(alpha)
            assert holds == (defect == 0)
        assert kummer_condition(("1/2", 0.25, 1, F(3, 4)))[1] == fraction_kummer_defect(("1/2", 0.25, 1, F(3, 4)))

    @pytest.mark.parametrize(
        "alpha,holds,defect",
        [
            ((1, 1, 2, 2), True, 0),
            ((9, 1, 1, 1), True, 0),
            ((1, 2, 3, 4), False, 64),
        ],
    )
    def test_examples(self, alpha, holds, defect):
        got_holds, got_defect = kummer_condition(alpha)
        assert got_holds == holds
        assert got_defect == defect

    def test_equivalence_identity(self):
        assert verify_kummer_equivalence()

    def test_homogeneous_degree_eight(self):
        prod = signed_sum_product()
        assert all(sum(e) == 8 for e in prod.terms)
        defect = kummer_defect_poly()
        assert all(sum(e) == 4 for e in defect.terms)

    def test_sign_product_keeps_the_sequential_terms(self):
        assert same_terms(signed_sum_product(), reference_signed_sum_product())

    def test_sign_product_against_sympy(self):
        u = sympy.symbols("u0:4")
        want = sympy.expand(sympy.Mul(*(u[0] + s1 * u[1] + s2 * u[2] + s3 * u[3]
                                        for s1, s2, s3 in product((1, -1), repeat=3))))
        got = sympy.sympify(str(signed_sum_product()).replace("^", "**"),
                            locals={str(x): x for x in u})
        assert sympy.expand(got - want) == 0

    def test_specialization_3111(self):
        prod = signed_sum_product()
        assert prod(u0=F(3), u1=F(1), u2=F(1), u3=F(1)) == 0
        assert kummer_condition((9, 1, 1, 1))[0]

    def test_lines_satisfy_condition(self):
        rng = random.Random(7)
        patterns = [
            lambda c, d: (c, c, d, d),
            lambda c, d: (c, d, c, d),
            lambda c, d: (c, d, d, c),
        ]
        for make in patterns:
            for _ in range(50):
                a = make(rand_frac(rng), rand_frac(rng))
                assert kummer_condition(a)[0]

    def test_line_membership(self):
        assert line_membership((1, 1, 2, 2)) == {"L1"}
        assert line_membership((1, 1, 1, 1)) == {"L1", "L2", "L3"}
        assert line_membership((1, 2, 3, 4)) == set()
        assert line_membership((1, 2, 1, 2)) == {"L2"}
        assert line_membership((1, 2, 2, 1)) == {"L3"}

    def test_pattern_curves_reads_lines_off_the_projective_point(self):
        # pattern_curves takes line membership from the primitive integer
        # point; it agrees with line_membership on the Fractions themselves
        from pvi import curves

        def by_fractions(alpha):
            a = [Fraction(x) for x in alpha]
            lines, point = line_membership(a), curves._projective_point(a)
            return [cid for cid, row in CURVE_TABLE.items()
                    if (row.line in lines if row.line else curves._QUARTIC_POINTS[cid] == point)]

        rng = random.Random(18)
        scales = (F(-7, 3), F(-1), F(1, 2), F(5), F(10 ** 20, 3))
        grid = [(0, 0, 0, 0), (0, 0, 2, 2), (0, 1, 0, 1), (1, 0, 0, 1), (F(1, 2), F(1, 2), 0, 0)]
        grid += [tuple(k * a for a in row.alpha) for row in CURVE_TABLE.values() for k in scales]
        grid += [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
                 for _ in range(300)]
        grid += [tuple(rng.choice((c, d)) for _ in range(4))
                 for c, d in [(F(rng.randint(-4, 4), rng.randint(1, 5)),
                               F(rng.randint(-4, 4), rng.randint(1, 5))) for _ in range(300)]]
        for alpha in grid:
            assert pattern_curves(alpha) == by_fractions(alpha), alpha


class TestQuarticDerivation:
    def test_matches_canonical(self):
        derived = derive_quartics()
        for cid in QUARTIC_CURVES:
            assert derived[cid] == CURVES[cid]

    def test_negated_denominator_is_first_quartic(self):
        from pvi.curves import TRIPLING_G

        assert (-TRIPLING_G) == CURVES[CurveId.D]

    def test_numerator_is_second_quartic(self):
        from pvi.curves import TRIPLING_F

        assert TRIPLING_F == CURVES[CurveId.E]

    def test_value_loci_factor_as_squares(self):
        from pvi.curves import TRIPLING_F as f, TRIPLING_G as g

        one_locus = (Y * f * f - g * g).exact_div(Y - 1)
        t_locus = (Y * f * f - T * g * g).exact_div(Y - T)
        assert one_locus.square_root() == CURVES[CurveId.F]
        assert t_locus.square_root() == CURVES[CurveId.G]


class TestUniformizations:
    @pytest.mark.parametrize("cid", QUARTIC_CURVES)
    def test_annihilate(self, cid):
        assert verify_uniformization(cid)

    def test_rational_spot_check(self):
        # z = 3 on the first quartic's parametrization: exact rational point
        m = UNIFORMIZATIONS[CurveId.D]
        z = F(3)
        y = m["y"][0](z=z) / m["y"][1](z=z)
        t = m["t"][0](z=z) / m["t"][1](z=z)
        assert (y, t) == (F(-1, 8), F(5, 32))
        assert CURVES[CurveId.D](y=y, t=t) == 0

    def test_no_uniformization_for_conics(self):
        with pytest.raises(ValueError):
            verify_uniformization(CurveId.A)


# action of the three substitution generators on the curves, frozen from
# exact computation (s1: (t,y)->(1-t,1-y); s2: (t,y)->(1/t,y/t);
# s3: (t,y)->(1/t,1/y))
SYMMETRY_TABLE = {
    "s1": {"A": "B", "B": "A", "C": "C", "D": "D", "E": "F", "F": "E", "G": "G"},
    "s2": {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "G", "G": "F"},
    "s3": {"A": "A", "B": "C", "C": "B", "D": "E", "E": "D", "F": "F", "G": "G"},
}


class TestSymmetries:
    @pytest.mark.parametrize("gen", ["s1", "s2", "s3"])
    def test_action_table(self, gen):
        for src, dst in SYMMETRY_TABLE[gen].items():
            img = apply_symmetry(CURVES[CurveId(src)], gen)
            assert img == CURVES[CurveId(dst)], f"{src} --{gen}--> expected {dst}"

    def test_identity_word(self):
        for cid, poly in CURVES.items():
            assert apply_symmetry(poly, "") == poly
            assert apply_symmetry(poly, []) == poly

    def test_involutions(self):
        for gen in ("s1", "s2", "s3"):
            for poly in CURVES.values():
                assert apply_symmetry(poly, [gen, gen]) == poly

    def test_three_cycle(self):
        # s1*s2 has order 3 on {A, B, C}
        word = ["s1", "s2"] * 3
        for cid in (CurveId.A, CurveId.B, CurveId.C):
            assert apply_symmetry(CURVES[cid], word) == CURVES[cid]

    def test_word_composition(self):
        p = CURVES[CurveId.E]
        chained = apply_symmetry(apply_symmetry(p, "s1"), "s3")
        assert apply_symmetry(p, "s1 s3") == chained

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            apply_symmetry(Y, "s4")

    def test_identify_curve(self):
        assert identify_curve(-CURVES[CurveId.D]) == CurveId.D
        assert identify_curve(Y ** 5) is None


class TestSubstituteRational:
    def test_simple(self):
        # y -> 1/y on y^2 - t: numerator 1 - t*y^2
        out = (Y ** 2 - T).substitute({"y": (MultiPoly.constant(1), Y)})
        assert out == 1 - T * Y ** 2

    SYMS = {name: sympy.Symbol(name) for name in ("y", "t", "z")}

    def expr(self, q):
        return sympy.sympify(str(q).replace("^", "**"), locals=self.SYMS)

    def check(self, p, mapping):
        """p.substitute(mapping) against sympy's p at v = num/den, times den_v^d_v
        for d_v the degree of p in v.  Each den is a fresh symbol while the
        denominators are cleared, so sympy cancels its powers term by term."""
        dens = {v: sympy.Symbol(f"den_{v}") for v in mapping}
        image = self.expr(p).subs({self.SYMS[v]: self.expr(num) / dens[v] for v, (num, _) in mapping.items()},
                                  simultaneous=True)
        for v in mapping:
            image *= dens[v] ** p.degree_in(v)
        image = sympy.expand(image).subs({dens[v]: self.expr(den) for v, (_, den) in mapping.items()})
        assert sympy.expand(self.expr(p.substitute(mapping)) - image) == 0, (p, mapping)

    def test_paper_maps_against_sympy(self):
        maps = list(UNIFORMIZATIONS.values()) + list(SYMMETRY_GENERATORS.values())
        for p in CURVES.values():
            for mapping in maps:
                self.check(p, mapping)

    def test_random_maps_against_sympy(self):
        rng = random.Random(2323)
        Z = MultiPoly.variable("z")

        def poly(names, terms, degree):
            out = MultiPoly.constant(rand_frac(rng))
            for _ in range(terms):
                mono = MultiPoly.constant(rand_frac(rng))
                for v in names:
                    mono = mono * MultiPoly.variable(v) ** rng.randint(0, degree)
                out = out + mono
            return out

        for trial in range(30):
            # every third p leaves y out, so y is mapped at degree 0
            p = poly(("t",) if trial % 3 == 0 else ("y", "t"), 4, 3)
            mapping = {}
            for v in ("y", "t"):
                num = poly(("y", "t", "z"), 1, 2)
                den = MultiPoly.constant(1) if (trial + len(mapping)) % 4 == 0 else poly(("t", "z"), 1, 2)
                mapping[v] = (num, den if den else T + Z)
            self.check(p, mapping)
            reps = {v: num for v, (num, _) in mapping.items()}
            assert p.subs(**reps) == p.substitute({v: (r, MultiPoly.constant(1)) for v, r in reps.items()})


class TestIrreducibility:
    def test_conic_certificate(self):
        res = is_irreducible(CURVES[CurveId.A])
        assert res.status == "irreducible"
        assert res.certificate is not None

    def test_all_canonical_curves_irreducible(self):
        for cid, poly in CURVES.items():
            assert is_irreducible(poly).status == "irreducible", cid

    def test_product_reducible_with_witness(self):
        p = CURVES[CurveId.A] * CURVES[CurveId.B]
        res = is_irreducible(p)
        assert res.status == "reducible"
        assert p.try_divide(res.witness) is not None

    def test_p0_irreducible(self):
        res = is_irreducible(p0_poly((1, 1, 1)))
        assert res.status == "irreducible"

    def test_master_on_line_reducible(self):
        res = is_irreducible(master_poly((1, 1, 2, 2)))
        assert res.status == "reducible"

    def test_perfect_square_reducible(self):
        res = is_irreducible((Y ** 2 - T) ** 2)
        assert res.status == "reducible"

    def test_monomial_content_reducible(self):
        res = is_irreducible(Y * (Y ** 2 - T) + Y)
        assert res.status == "reducible"
        assert res.witness == Y

    def test_bare_monomials(self):
        # a single variable is irreducible; its powers and products are not
        assert is_irreducible(Y).status == "irreducible"
        assert is_irreducible(2 * Y).status == "irreducible"
        assert is_irreducible(Y ** 2).status == "reducible"
        assert is_irreducible(Y * T).status == "reducible"
        assert is_irreducible(Y + T).status == "irreducible"

    def test_t_content_reducible(self):
        res = is_irreducible((T - 1) * Y ** 2 + (T - 1) * T)
        assert res.status == "reducible"
        assert res.witness.degree_in("t") >= 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(MultiPoly.zero())

    def test_no_y_is_unknown(self):
        res = is_irreducible(T ** 2 + 1)
        assert res.status == "unknown"
        assert res.witness is None and res.certificate is None

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError, match=r"\(y, t\) only"):
            is_irreducible(Y ** 2 - MultiPoly.variable("z"))

    def test_truth_value_is_irreducible_only(self):
        assert bool(is_irreducible(CURVES[CurveId.A])) is True
        assert bool(is_irreducible(CURVES[CurveId.A] * CURVES[CurveId.B])) is False
        assert bool(is_irreducible(T ** 2 + 1)) is False

    def test_pickle_and_copy(self):
        res = is_irreducible(CURVES[CurveId.A] * CURVES[CurveId.B])
        assert res.witness is not None
        for value in (CURVE_TABLE[CurveId.D], res):
            copies = [pickle.loads(pickle.dumps(value, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for other in copies + [copy.copy(value), copy.deepcopy(value)]:
                assert other == value

    def test_high_degree_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(Y ** 7)

    def test_prime_in_a_denominator_is_skipped(self):
        # at t0 = 2 every value has 5 in its denominator, so p = 5 is skipped
        # although y^2 + y + 2 is irreducible mod 5; it splits mod 7 and 11
        res = is_irreducible(MultiPoly.parse("1/5*y^2 + 1/5*y + 1/5*t"))
        assert res.certificate == (2, 13)

    @pytest.mark.parametrize("text,factor", [
        ("-y^4 + 2*y^3 + 3*y^2*t - 8*y*t + 4*t", "y - 2"),
        ("4*y^4 - 8*y^3 + 3*y^2 + 2*y*t - t", "y - 1/2"),
    ])
    def test_t_free_factor_reducible(self, text, factor):
        # P0s with a factor free of t: reducible at every (t0, p), so no
        # certificate exists; the witness is the content in t
        p = MultiPoly.parse(text)
        res = is_irreducible(p)
        assert res.status == "reducible"
        assert res.witness == MultiPoly.parse(factor)
        assert p.try_divide(res.witness).total_degree() >= 1

    @pytest.mark.parametrize("p,witness", [
        ((T ** 2 + 1) * (1 + T) * (Y ** 3 + T * Y + 1), T ** 3 + T ** 2 + T + 1),  # content in y
        ((Y ** 2 + 1) * (Y - T ** 2 - 3), Y ** 2 + 1),  # content in t
    ])
    def test_one_grid_per_call(self, monkeypatch, p, witness):
        # both contents are read from the grid the certifier builds, so no
        # step builds p's grid, or its transpose, again
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return integer_grid(*args)

        monkeypatch.setattr("pvi.multipoly.integer_grid", counting)
        monkeypatch.setattr("pvi.curves.integer_grid", counting)
        res = is_irreducible(p)
        assert res.status == "reducible" and res.witness == witness
        assert calls == [("y", "t")]


class TestReadmeCurveTable:
    def test_readme_polynomials_match_curves(self):
        from sympy.parsing.sympy_parser import (
            convert_xor,
            implicit_multiplication_application,
            parse_expr,
            standard_transformations,
        )

        transformations = standard_transformations + (
            implicit_multiplication_application, convert_xor)
        names = {"y": sympy.Symbol("y"), "t": sympy.Symbol("t")}

        def expr(text):
            return sympy.expand(parse_expr(text, local_dict=names,
                                           transformations=transformations))

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| ([A-G]) \| `([^`]+)` \|", readme, re.M))
        assert sorted(rows) == [c.value for c in CurveId]
        for cid, poly in CURVES.items():
            assert expr(rows[cid.value]) == expr(str(poly)), cid


# ----------------------------------------------------------------------
# irreducibility over F_p: the distinct-degree test against trial division
# ----------------------------------------------------------------------


def _trial_division_irreducible(coeffs: list[int], prime: int) -> bool:
    """Reference: trial division by every monic polynomial of degree <= d/2 over F_p."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in product(range(prime), repeat=d):
            divisor = list(lower) + [1]
            if not _fp_mod(coeffs, divisor, prime):
                return False
    return True


_PRIMES_TO_97 = [q for q in range(2, 98) if all(q % r for r in range(2, q))]


class TestFpIrreducible:
    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_every_polynomial_to_degree_four(self, prime):
        for deg in range(1, 5):
            for lower in product(range(prime), repeat=deg):
                for lead in range(1, prime):
                    coeffs = [*lower, lead]
                    assert _fp_is_irreducible(coeffs, prime) == \
                        _trial_division_irreducible(coeffs, prime), (coeffs, prime)

    def test_random_to_degree_six(self):
        # trial division is p^(d/2) work, so the reference keeps to
        # p^(d/2) <= 50000 (sextics up to p = 31)
        rng = random.Random(97)
        seen = {True: 0, False: 0}
        for prime in _PRIMES_TO_97:
            for deg in range(1, 7):
                if prime ** (deg // 2) > 50000:
                    continue
                for _ in range(3):
                    coeffs = [rng.randrange(prime) for _ in range(deg)] + [rng.randrange(1, prime)]
                    want = _trial_division_irreducible(coeffs, prime)
                    assert _fp_is_irreducible(coeffs, prime) == want, (coeffs, prime)
                    seen[want] += 1
        assert min(seen.values()) >= 50

    def test_random_sextics_to_97_against_sympy(self):
        # past the bound, an independent oracle: sympy over GF(p)
        rng = random.Random(98)
        s = sympy.Symbol("y")
        for prime in _PRIMES_TO_97[-8:]:
            for deg in (5, 6):
                for _ in range(3):
                    coeffs = [rng.randrange(prime) for _ in range(deg)] + [rng.randrange(1, prime)]
                    poly = sympy.Poly(list(reversed(coeffs)), s, modulus=prime)
                    assert _fp_is_irreducible(coeffs, prime) == poly.is_irreducible, (coeffs, prime)

    @pytest.mark.parametrize("prime", [2, 3])
    def test_every_polynomial_of_degree_five_and_six(self, prime):
        # what the root sweep leaves is decided by the table-reduced
        # Frobenius from degree 4 on: 1944 polynomials at p = 3
        seen = rootless_reducible = 0
        for deg in (5, 6):
            for lower in product(range(prime), repeat=deg):
                for lead in range(1, prime):
                    coeffs = [*lower, lead]
                    want = _trial_division_irreducible(coeffs, prime)
                    assert _fp_is_irreducible(coeffs, prime) == want, (coeffs, prime)
                    seen += 1
                    rootless_reducible += not want and all(
                        sum(c * x ** i for i, c in enumerate(coeffs)) % prime for x in range(prime))
        assert seen == {2: 96, 3: 1944}[prime]
        assert rootless_reducible > 0

    def test_degenerate_inputs(self):
        assert not _fp_is_irreducible([3], 5)
        assert _fp_is_irreducible([0, 2], 5)
        assert not _fp_is_irreducible([0, 0, 1], 5)  # y^2
        assert not _fp_is_irreducible([0, 1, 0, 1], 2)  # y (y + 1)^2 over F_2
        assert _fp_is_irreducible([1, 1, 1], 2)


# ----------------------------------------------------------------------
# the exact filters before trial division and the square root
# ----------------------------------------------------------------------


class TestExactFilters:
    """A candidate is skipped only when its division or root cannot succeed."""

    def test_zero_points(self):
        for f, *_, point in _TRIAL_FACTORS:
            if f.degree_in("y") == 1 or f.degree_in("t") == 1:
                y, t = point
                assert f(y=y, t=t) == 0, f
            else:
                assert point is None, f

    def test_multiples_of_a_trial_divisor_are_never_skipped(self):
        rng = random.Random(19)
        with_point = [(f, point) for f, *_, point in _TRIAL_FACTORS if point is not None]
        assert len(with_point) == 8
        for f, point in with_point:
            for _ in range(50):
                r = _random_yt(rng, rng.randint(0, 6 - f.degree_in("y")))
                _, rows = integer_grid(r * f, "y", "t")
                assert not _nonzero_at(rows, point, {}), (f, r)

    def test_skipped_divisions_fail_on_the_pin_corpus(self, pin_corpus):
        skipped = 0
        for p in pin_corpus:
            _, rows = integer_grid(p, "y", "t")
            in_t = {}
            for f, *_, point in _TRIAL_FACTORS:
                if point is not None and _nonzero_at(rows, point, in_t):
                    assert p.try_divide(f) is None, (p, f)
                    skipped += 1
        assert skipped > 7 * len(pin_corpus)

    def test_squares_are_never_skipped(self):
        rng = random.Random(20)
        for degy in (0, 1, 2, 3):
            for _ in range(50):
                r = _random_yt(rng, degy)
                den, rows = integer_grid(r * r, "y", "t")
                assert _square_at(den, rows, _SQUARE_POINT), r

    def test_skipped_square_roots_fail_on_the_pin_corpus(self, pin_corpus):
        skipped = 0
        for p in pin_corpus:
            den, rows = integer_grid(p, "y", "t")
            if not _square_at(den, rows, _SQUARE_POINT):
                with pytest.raises(ArithmeticError):
                    p.square_root()
                skipped += 1
        assert skipped > 0.9 * len(pin_corpus)


# ----------------------------------------------------------------------
# pinned certifier results
# ----------------------------------------------------------------------


def _random_yt(rng: random.Random, degy: int, degt: int = 2, nterms: int = 3) -> MultiPoly:
    """A random polynomial of y-degree exactly degy with a nonzero constant term."""
    def coef():
        return F(rng.choice([x for x in range(-4, 5) if x]), rng.choice((1, 1, 1, 2, 3)))

    terms = {(0, 0): coef(), (degy, rng.randint(0, degt)): coef()}
    for _ in range(nterms):
        terms[(rng.randint(0, degy), rng.randint(0, degt))] = coef()
    return MultiPoly(terms, ("y", "t"))


def _pin_corpus() -> list[MultiPoly]:
    """A-G, P0(1,1,1), every P0 the exact-algebra workload draws from,
    products with every trial factor, squares, random polynomials of y-degree
    1..6 and products of two random polynomials."""
    rng = random.Random(2016)
    corpus = [*CURVES.values(), p0_poly((1, 1, 1))]
    for a1 in (x for x in range(-6, 7) if x):
        for a2 in range(-6, 7):
            for a3 in range(-6, 7):
                corpus.append(p0_poly((a1, a2, a3)))
    for factor in (Y - 1, T - 1, Y + T, Y - T, Y + 1, *CURVES.values()):
        for _ in range(6):
            corpus.append(_random_yt(rng, rng.randint(1, 6 - factor.degree_in("y"))) * factor)
    for degy in (1, 2, 3):
        for _ in range(6):
            r = _random_yt(rng, degy)
            corpus.append(r * r)
    for degy in range(1, 7):
        for _ in range(10):
            corpus.append(_random_yt(rng, degy))
    for dy1, dy2 in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4), (1, 5)):
        for _ in range(3):
            corpus.append(_random_yt(rng, dy1) * _random_yt(rng, dy2))
    corpus.append(MultiPoly.parse("y^6 + t*y^3 + t^4 - 1"))
    return corpus


def _result_line(i: int, res) -> str:
    return f"{i} {res.status} {res.witness} {res.certificate}"


# Results on _pin_corpus() of the trial-division certifier that preceded the
# distinct-degree test: the sha256 of the result lines of every input it
# decided, and the inputs it left 'unknown'.  The digest was taken again when
# sextics were first certified at primes above 31: one line moved, index
# 2178, from the certificate (3, 5) to (2, 37).
_PINNED_SHA256 = "3b39632ad41fdb68b873a2df83f186259eda1aabb7e01a3bfa99e6cf1c5749e6"
_PINNED_UNKNOWN = (416, 884, 1159, 1627, *range(2186, 2210))


@pytest.fixture(scope="module")
def pin_corpus():
    return _pin_corpus()


class TestPinnedResults:
    def test_decided_results_unchanged(self, pin_corpus):
        lines = [_result_line(i, is_irreducible(p)) for i, p in enumerate(pin_corpus)
                 if i not in _PINNED_UNKNOWN]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _PINNED_SHA256

    def test_a_sextic_certified_above_31(self, pin_corpus):
        p = pin_corpus[2178]
        assert str(p) == "y^6*t - 3*y^5*t - 2*y^4*t + 4*y*t + 1/3"
        res = is_irreducible(p)
        assert res.status == "irreducible" and res.certificate == (2, 37)
        # sympy over F_37: the image at t = 2 keeps degree 6 and is irreducible
        y, t = sympy.symbols("y t")
        _, image = sympy.Poly(sympy.sympify(str(p).replace("^", "**")).subs(t, 2), y).clear_denoms()
        image = sympy.Poly(image.as_expr(), y, modulus=37)
        assert image.degree() == 6 and image.is_irreducible

    def test_undecided_stay_unknown_or_get_a_witness(self, pin_corpus):
        moved = 0
        for i in _PINNED_UNKNOWN:
            p = pin_corpus[i]
            res = is_irreducible(p)
            assert res.status in ("unknown", "reducible"), (i, res)
            if res.status == "reducible":
                q = p.try_divide(res.witness)
                assert q is not None and q.total_degree() >= 1 and res.witness.total_degree() >= 1
                assert q * res.witness == p
                moved += 1
        # the four P0s with a factor free of t
        assert moved == 4


# ----------------------------------------------------------------------
# pinned substitution results
# ----------------------------------------------------------------------

# sha256 over repr(list(p._t.items())), one line per polynomial, of: every
# apply_symmetry word of length <= 4 on A-G, the Kummer defect at a_i = u_i^2,
# and master_poly at _SUBSTITUTION_ALPHAS under s1, s2 and s3.  It pins the
# terms, their order and the type of each coefficient.
_SUBSTITUTION_SHA256 = "f25b80372de04649d8dbdc42f893c568606081652c258c733391b1df4737240a"
_SUBSTITUTION_ALPHAS = ((1, 1, 1, 1), (F(1, 2), -3, F(2, 7), 5), (9, 0, F(-4, 3), 1))


class TestSubstitutionDigest:
    def test_substitution_results_unchanged(self):
        polys = [apply_symmetry(p, word) for p in CURVES.values() for n in range(5)
                 for word in product(("s1", "s2", "s3"), repeat=n)]
        polys.append(kummer_defect_poly().subs(**{f"a{i}": MultiPoly.variable(f"u{i}") ** 2 for i in range(4)}))
        for alpha in _SUBSTITUTION_ALPHAS:
            p = master_poly(alpha)
            polys += [p.substitute(SYMMETRY_GENERATORS[gen]) for gen in ("s1", "s2", "s3")]
        assert len(polys) == 7 * 121 + 1 + 9
        text = "\n".join(repr(list(p._t.items())) for p in polys)
        assert hashlib.sha256(text.encode()).hexdigest() == _SUBSTITUTION_SHA256
