"""Identity layer: master sextic, reducibility surface, quartics, symmetries."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from pvi.curves import (
    CURVES,
    QUARTIC_CURVES,
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
    signed_sum_product,
    substitute_rational,
    verify_kummer_equivalence,
    verify_uniformization,
)
from pvi.multipoly import MultiPoly

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


class TestKummer:
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
        out = substitute_rational(Y ** 2 - T, {"y": (MultiPoly.constant(1), Y)})
        assert out == 1 - T * Y ** 2


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

    def test_high_degree_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(Y ** 7)


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
