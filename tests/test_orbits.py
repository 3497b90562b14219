"""Orbit lattice: canonical forms, standard-form reduction, group action, counts."""

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from pvi.curves import CURVE_TABLE
from pvi.elliptic import picard_eval, reduction_residual
from pvi.orbits import (
    GENERATORS,
    MAX_ORBIT_DENOMINATOR,
    MAX_PARTITION_DENOMINATOR,
    Gamma2Matrix,
    RationalPair,
    StandardForm,
    act,
    canonicalize,
    eligible_classes,
    enumerate_orbit,
    format_rational,
    level_numerators,
    standard_form,
    merging_matrix,
    orbit_key,
    orbit_numerators,
    orbit_partition,
    parse_rational,
    same_orbit,
)
from pvi.selftest import _fraction_bfs
from pvi.verifier import orbit_to_curve

F = Fraction


def pair(mu, nu):
    return canonicalize((F(mu), F(nu)))


class TestCanonicalize:
    def test_mod_reduction_and_sign(self):
        v = canonicalize((F(5, 4), F(-1, 4)))
        assert (v.mu, v.nu) == (F(1, 4), F(3, 4))

    def test_zero(self):
        assert pair(0, 0).is_zero()

    def test_half_half_fixed_by_negation(self):
        v = pair(F(1, 2), F(1, 2))
        assert (v.mu, v.nu) == (F(1, 2), F(1, 2))
        assert v.is_half_integer()

    def test_idempotent_negation_translation(self):
        rng = random.Random(101)
        for _ in range(200):
            mu = F(rng.randint(-30, 30), rng.randint(1, 12))
            nu = F(rng.randint(-30, 30), rng.randint(1, 12))
            v = canonicalize((mu, nu))
            assert canonicalize((v.mu, v.nu)) == v
            assert canonicalize((-mu, -nu)) == v
            assert canonicalize((mu + rng.randint(-5, 5), nu + rng.randint(-5, 5))) == v
            assert 0 <= v.mu < 1 and 0 <= v.nu < 1

    def test_rational_strings(self):
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("2") == F(2)
        assert format_rational(F(6, 8)) == "3/4"
        assert format_rational(F(-2, 1)) == "-2"
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("x")


class TestGamma2Matrix:
    def test_generators_valid(self):
        for g in GENERATORS:
            assert g.a * g.d - g.b * g.c == 1

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            Gamma2Matrix(1, 2, 2, 1)

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            Gamma2Matrix(1, 1, 0, 1)
        with pytest.raises(ValueError):
            Gamma2Matrix(2, 1, 1, 1)

    def test_inverse_and_product(self):
        rng = random.Random(7)
        word = Gamma2Matrix.identity()
        for _ in range(12):
            g = rng.choice(GENERATORS)
            word = word @ g
        assert word @ word.inverse() == Gamma2Matrix.identity()


class TestAction:
    def test_shear_example(self):
        assert act(Gamma2Matrix(1, 0, 2, 1), pair(F(1, 4), 0)) == pair(F(1, 4), F(1, 2))

    def test_merge_matrix_example(self):
        m = merging_matrix(3)
        assert (m.a, m.b, m.c, m.d) == (-3, 4, -10, 13)
        assert act(m, pair(F(1, 3), 0)) == pair(0, F(1, 3))

    def test_identity(self):
        for v in [pair(F(1, 4), 0), pair(F(2, 7), F(3, 5))]:
            assert act(Gamma2Matrix.identity(), v) == v

    def test_group_action_law_random_words(self):
        rng = random.Random(4242)
        vectors = [pair(F(1, 4), 0), pair(F(1, 3), F(1, 3)), pair(F(2, 7), F(3, 7)),
                   pair(F(1, 6), F(5, 6)), pair(F(3, 8), F(1, 8))]
        gens = list(GENERATORS) + [g.inverse() for g in GENERATORS]
        for _ in range(100):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
            product = Gamma2Matrix.identity()
            for g in word:
                product = product @ g
            v = rng.choice(vectors)
            stepwise = v
            for g in reversed(word):
                stepwise = act(g, stepwise)
            assert act(product, v) == stepwise

    def test_denominator_preserved(self):
        for N in range(2, 13):
            for v in eligible_classes(N):
                for g in GENERATORS:
                    assert act(g, v).denominator == v.denominator


class TestStandardForm:
    def test_mixed_denominators(self):
        data = standard_form(pair(F(1, 4), F(1, 6)))
        assert (data.N, data.M, data.m, data.n) == (12, 1, 3, 2)
        assert data.standard == pair(F(1, 12), 0)

    def test_diagonal(self):
        data = standard_form(pair(F(1, 3), F(1, 3)))
        assert (data.N, data.M, data.m, data.n) == (3, 1, 1, 1)
        assert data.standard == pair(F(1, 3), F(1, 3))

    def test_already_standard(self):
        data = standard_form(pair(0, F(1, 4)))
        assert (data.N, data.M, data.m, data.n) == (4, 1, 0, 1)
        assert data.standard == pair(0, F(1, 4))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            standard_form(pair(0, 0))

    def test_reconstruction_and_coprimality(self):
        rng = random.Random(2024)
        for _ in range(300):
            v = pair(F(rng.randint(0, 11), rng.randint(1, 12)),
                     F(rng.randint(0, 11), rng.randint(1, 12)))
            if v.is_zero():
                continue
            d = standard_form(v)
            assert gcd(d.M, d.N) == 1
            assert gcd(d.m, d.n) == 1
            assert v.mu == F(d.m * d.M, d.N) % 1 or v.mu == (-F(d.m * d.M, d.N)) % 1
            # the standard vector must lie in the orbit (both checked below too)
            assert (d.m % 2, d.n % 2) != (0, 0)

    def test_standard_in_orbit_small_denominators(self):
        for N in range(2, 11):
            for v in eligible_classes(N):
                if v.is_zero():
                    continue
                assert standard_form(v).standard in enumerate_orbit(v)


class TestOrbits:
    def test_quarter_orbit(self):
        orbit = enumerate_orbit(pair(F(1, 4), 0))
        assert orbit == {pair(F(1, 4), 0), pair(F(1, 4), F(1, 2))}

    def test_third_orbit_size(self):
        assert len(enumerate_orbit(pair(F(1, 3), F(1, 3)))) == 4

    def test_fifth_orbit_size(self):
        # all 12 eligible classes at N = 5 form one orbit (odd level)
        orbit = enumerate_orbit(pair(F(1, 5), 0))
        assert len(orbit) == 12
        assert orbit == set(eligible_classes(5))

    def test_same_orbit_examples(self):
        assert same_orbit(pair(F(1, 3), 0), pair(0, F(1, 3)))
        assert not same_orbit(pair(F(1, 4), 0), pair(0, F(1, 4)))
        assert same_orbit(pair(F(1, 4), 0), pair(F(1, 4), 0))

    def test_merging_criterion_both_directions(self):
        for N in range(2, 13):
            for M in range(1, N):
                if gcd(M, N) != 1:
                    continue
                f = F(M, N)
                merged = N % 2 == 1
                assert same_orbit(pair(f, 0), pair(0, f)) == merged
                assert same_orbit(pair(f, 0), pair(f, f)) == merged

    def test_denominator_cap(self):
        with pytest.raises(ValueError):
            enumerate_orbit(pair(F(1, 2048), 0))

    def test_deciding_calls_answer_above_the_listing_cap(self):
        N = 2 * MAX_ORBIT_DENOMINATOR + 1
        assert same_orbit(pair(F(1, N), 0), pair(0, F(1, N)))
        assert not same_orbit(pair(F(1, N + 1), 0), pair(0, F(1, N + 1)))
        assert orbit_to_curve(pair(F(1, N), 0)) is None


class TestOrbitPartition:
    @pytest.mark.parametrize(
        "N,expected", [(3, [4]), (4, [2, 2, 2]), (5, [12]), (6, [4, 4, 4])]
    )
    def test_counts(self, N, expected):
        assert orbit_partition(N) == expected

    @pytest.mark.parametrize("N,count", [(4, 6), (5, 12), (6, 12)])
    def test_class_counts(self, N, count):
        assert len(eligible_classes(N)) == count
        assert sum(orbit_partition(N)) == count

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            orbit_partition(1)

    def test_jordan_totient_sizes(self):
        # one orbit of J_2(N)/2 at odd N, three of J_2(N)/6 at even N
        assert orbit_partition(999) == [443232]
        assert orbit_partition(999983) == [(999983 ** 2 - 1) // 2]
        assert orbit_partition(2 ** 20) == [2 ** 40 // 8] * 3

    def test_rejects_N_above_cap(self):
        assert len(orbit_partition(MAX_PARTITION_DENOMINATOR)) == 3
        with pytest.raises(ValueError):
            orbit_partition(MAX_PARTITION_DENOMINATOR + 1)


class TestClosedFormAgainstBFS:
    @pytest.mark.parametrize("N", range(2, 17))
    def test_enumeration_matches_fraction_bfs(self, N):
        remaining = set(eligible_classes(N))
        while remaining:
            orbit = _fraction_bfs(min(remaining))
            # an orbit is the orbit of each of its members
            assert all(enumerate_orbit(w) == orbit for w in orbit)
            remaining -= orbit

    @pytest.mark.parametrize("N", [24, 45, 60, 64, 96])
    def test_listing_matches_fraction_bfs_at_higher_levels(self, N):
        # one start class per orbit, each orbit against its listing
        remaining = set(eligible_classes(N))
        while remaining:
            start = min(remaining)
            orbit = _fraction_bfs(start)
            assert enumerate_orbit(start) == orbit
            remaining -= orbit

    @pytest.mark.parametrize("N", range(2, 25))
    def test_deciding_calls_match_enumeration(self, N):
        classes = eligible_classes(N)
        orbit_of = {}
        for v in classes:
            if v not in orbit_of:
                orbit = enumerate_orbit(v)
                orbit_of.update((w, orbit) for w in orbit)
        orbits = set(orbit_of.values())
        assert orbit_partition(N) == sorted(len(o) for o in orbits)
        # every class against the first and last few members of every orbit
        probes = [w for o in orbits for w in sorted(o)[:3] + sorted(o)[-3:]]
        for v in classes:
            for w in probes:
                assert same_orbit(v, w) == same_orbit(w, v) == (w in orbit_of[v])
            if not v.is_half_integer():
                assert (orbit_to_curve(v) is None) == (len(orbit_of[v]) > 6)


def grid_classes(N):
    """{parity: canonical classes} from the full grid: every (a/N, b/N) with a, b in
    [0, N) and gcd(a, b, N) = 1, keyed by (a % 2, b % 2) at even N and by None at odd N."""
    out = {}
    for a in range(N):
        for b in range(N):
            if gcd(gcd(a, b), N) == 1:
                key = (a % 2, b % 2) if N % 2 == 0 else None
                out.setdefault(key, set()).add(canonicalize((F(a, N), F(b, N))))
    return out


class TestListingAgainstGrid:
    """The listing readers against a reference built from the full level-N grid."""

    @pytest.mark.parametrize("N", range(2, 65))
    def test_readers_match_the_grid(self, N):
        by_parity = grid_classes(N)
        assert len(by_parity) == (3 if N % 2 == 0 else 1)
        everything = set().union(*by_parity.values())
        assert eligible_classes(N) == sorted(everything)
        for expected in by_parity.values():
            for v in (min(expected), max(expected)):
                orbit = enumerate_orbit(v)
                assert orbit == expected
                ascending = sorted(orbit)
                assert orbit_numerators(v) == (
                    N, [(int(w.mu * N), int(w.nu * N)) for w in ascending])
                assert all(w._hash == hash(tuple_key(w)) for w in orbit)
                # built by inserting in ascending order, so it iterates as such a set does
                assert list(orbit) == list(frozenset(ascending))


class TestPlainPairInput:
    """Every orbit entry point takes a plain pair as well as a RationalPair."""

    CLASSES = [(F(1, 3), 0), (F(-1, 4), F(5, 2)), (F(2, 45), F(7, 45)), (F(5, 6), F(1, 6))]

    @staticmethod
    def forms(v):
        mu, nu = v
        return [(F(mu), nu), (str(mu), str(nu)), canonicalize((mu, nu))]

    @pytest.mark.parametrize("v", CLASSES)
    def test_tuple_string_and_pair_agree(self, v):
        other = canonicalize((F(1, 3), F(1, 3)))
        for f in (enumerate_orbit, standard_form, orbit_key, orbit_to_curve,
                  lambda x: same_orbit(x, other), lambda x: same_orbit(other, x)):
            answers = [f(x) for x in self.forms(v)]
            assert answers[0] == answers[1] == answers[2]

    def test_plain_zero_is_still_refused(self):
        for f in (standard_form, orbit_key, lambda x: same_orbit(x, (F(1, 3), 0))):
            with pytest.raises(ValueError):
                f(("0", "1"))

    def test_orbit_key_of_any_representative(self):
        # negation and integer shifts keep the key; a zero class has none
        rng = random.Random(27)
        for v in classes_up_to(30)[1:]:
            assert orbit_key(shifted(v, rng)) == orbit_key(v)
        with pytest.raises(ValueError, match="zero vector"):
            orbit_key(RationalPair(F(1), F(-2)))


class TestNonIntegerLevel:
    @pytest.mark.parametrize("N", [2.5, F(9, 2), 4.0, True, False, "5"])
    def test_orbit_partition_refuses(self, N):
        with pytest.raises(ValueError, match=re.escape(repr(N))):
            orbit_partition(N)

    @pytest.mark.parametrize("N", [3.0, True, F(3), 2.5])
    def test_merging_matrix_refuses(self, N):
        with pytest.raises(ValueError, match=re.escape(repr(N))):
            merging_matrix(N)


class TestMergingMatrix:
    @pytest.mark.parametrize(
        "N,expected",
        [(1, (-1, 2, -2, 3)), (3, (-3, 4, -10, 13)), (5, (-5, 6, -26, 31))],
    )
    def test_values(self, N, expected):
        m = merging_matrix(N)
        assert (m.a, m.b, m.c, m.d) == expected
        assert m.a * m.d - m.b * m.c == 1

    def test_even_rejected(self):
        for N in (2, 4, 6):
            with pytest.raises(ValueError):
                merging_matrix(N)

    def test_maps_standard_classes(self):
        for N in (3, 5, 7, 9, 11):
            m = merging_matrix(N)
            for M in range(1, N):
                if gcd(M, N) == 1:
                    assert act(m, pair(F(M, N), 0)) == pair(0, F(M, N))


# The Fraction formulas canonicalize and standard_form used before they worked
# on level numerators, kept as the reference for the integer versions.
def reference_canonicalize(v):
    mu, nu = (parse_rational(x) if isinstance(x, str) else F(x) for x in v)
    plus = (mu % 1, nu % 1)
    minus = ((-mu) % 1, (-nu) % 1)
    return RationalPair(*min(plus, minus))


def reference_standard_form(v, canonical=reference_canonicalize):
    if v.is_zero():
        raise ValueError("zero vector has no standard form")
    N, a, b = level_numerators(v)
    M = gcd(a, b)
    m, n = a // M, b // M
    f = F(M, N)
    standard = canonical((0, f) if m % 2 == 0 else (f, 0) if n % 2 == 0 else (f, f))
    return StandardForm(M=M, N=N, m=m, n=n, standard=standard)


def reference_same_orbit(v1, v2, canonical=reference_canonicalize):
    if v1.is_zero() or v2.is_zero():
        raise ValueError("orbit membership is defined for nonzero classes")
    return orbit_key(canonical(v1)) == orbit_key(canonical(v2))


def reference_act(matrix, v):
    return reference_canonicalize((matrix.a * v.mu + matrix.b * v.nu,
                                   matrix.c * v.mu + matrix.d * v.nu))


def classes_up_to(level):
    return [v for N in range(1, level + 1) for v in eligible_classes(N)]


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def tuple_key(v):
    return (v.mu.numerator, v.mu.denominator, v.nu.numerator, v.nu.denominator)


def shifted(v, rng):
    """A non-canonical pair of v's class: -v or v, moved by an integer vector."""
    s = rng.choice((1, -1))
    return RationalPair(s * v.mu + rng.randint(-3, 3), s * v.nu + rng.randint(-3, 3))


class TestLevelNumerators:
    """canonicalize, act and standard_form reduce on integers at the level N, and
    a pair hashes by its numerators and denominators."""

    def test_canonicalize_matches_the_fraction_formula(self):
        rng = random.Random(7)
        for k in range(20000):
            big = k % 4 == 0
            den = (lambda: rng.randint(1, 10 ** 9)) if big else (lambda: rng.randint(1, 60))
            num = (lambda: rng.randint(-10 ** 12, 10 ** 12)) if big else (lambda: rng.randint(-200, 200))
            v = (F(num(), den()), F(num(), den()))
            got = canonicalize(v)
            assert got == reference_canonicalize(v)
            assert type(got.mu) is F and type(got.nu) is F
            if k % 10 == 0:
                strings = (str(v[0]), str(v[1]))
                assert canonicalize(strings) == reference_canonicalize(strings)

    def test_canonicalize_mixed_input_types(self):
        for v in [(1, 0), (-1, F(1, 2)), ("3/2", 7), ("-5/6", "13/4"), (F(9, 4), "-1/4"),
                  (0, 0), (2, -3), (0.5, 0.25)]:
            got = canonicalize(v)
            assert got == reference_canonicalize(v)
            assert type(got.mu) is F and type(got.nu) is F

    def test_equal_pairs_hash_equal_from_every_route(self):
        rng = random.Random(11)
        for N in (2, 3, 4, 6, 9, 12, 35, 60):
            orbit_sets, by_value = {}, set(eligible_classes(N))
            for v in eligible_classes(N):
                _, a, b = level_numerators(v)
                routes = [
                    canonicalize((f"{a + 3 * N}/{N}", f"{b - N}/{N}")),
                    canonicalize((f"-{a}/{N}", -v.nu)),
                    canonicalize((v.mu - 2, v.nu + 5)),
                    canonicalize(shifted(v, rng)),
                    act(Gamma2Matrix.identity(), v),
                    act(merging_matrix(1), act(merging_matrix(1).inverse(), v)),
                ]
                if v.nu == 0:
                    routes.append(canonicalize((-v.mu, -4)))
                if v not in orbit_sets:
                    orbit = enumerate_orbit(v)
                    orbit_sets.update((w, orbit) for w in orbit)
                for w in routes:
                    assert w == v and hash(w) == hash(v)
                    assert w in orbit_sets[v] and w in by_value
                for g in GENERATORS:
                    image = act(g, v)
                    assert image in orbit_sets[v]
                    assert hash(image) == hash(reference_act(g, v))

    def test_hash_is_the_tuple_of_numerators_and_denominators(self):
        for v in classes_up_to(12):
            key = (v.mu.numerator, v.mu.denominator, v.nu.numerator, v.nu.denominator)
            assert hash(v) == hash(key)

    def test_hash_never_calls_fraction_hash(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Fraction.__hash__ called")

        monkeypatch.setattr(F, "__hash__", refuse)
        v = canonicalize(("1/160", 0))
        orbit = enumerate_orbit(v)
        assert v in orbit and len(orbit) == orbit_partition(160)[0]
        assert len(set(eligible_classes(24))) == sum(orbit_partition(24))
        # the kept hash: built in, or filled on the first hash of a public pair
        built = [canonicalize(("-1/160", "3")), act(GENERATORS[1], v), standard_form(v).standard]
        public = [RationalPair(w.mu, w.nu) for w in built]
        assert not any(hasattr(w, "_hash") for w in public)
        assert {*built, *public, *orbit} == set(orbit)
        for w in built + public:
            assert w._hash == hash(w) == hash(tuple_key(w))

    def test_hash_separates_classes(self):
        # tuple hashes of small ints do not depend on the hash seed; distinct
        # classes colliding would mean a numerator or denominator is ignored
        classes = classes_up_to(60)
        assert len({hash(v) for v in classes}) == len(classes)

    def test_act_matches_the_fraction_formula(self):
        rng = random.Random(12)
        gens = list(GENERATORS) + [g.inverse() for g in GENERATORS] + [merging_matrix(5)]
        classes = classes_up_to(40)
        for v in rng.sample(classes, 3000):
            for g in gens:
                assert act(g, v) == reference_act(g, v)
            u = shifted(v, rng)
            g = rng.choice(gens)
            assert act(g, u) == reference_act(g, u)

    def test_deciding_calls_as_before_at_every_class_up_to_level_60(self):
        rng = random.Random(13)
        classes = classes_up_to(60)
        known = {v: reference_canonicalize(v) for v in classes}

        def canonical(v):
            return known[v] if type(v) is RationalPair and v in known else reference_canonicalize(v)

        curve_orbits = [(cid, enumerate_orbit(canonicalize(row.picard_class)))
                        for cid, row in CURVE_TABLE.items()]
        by_level = {}
        for v in classes:
            by_level.setdefault(v.denominator, []).append(v)

        def curve_of(x):
            try:
                return orbit_to_curve(x)
            except ValueError as exc:
                assert "trivial solution" in str(exc)
                return "trivial"

        for k, v in enumerate(classes):
            w = rng.choice(by_level[v.denominator])
            assert outcome(same_orbit, v, w) == outcome(reference_same_orbit, v, w, canonical)
            assert outcome(standard_form, v) == outcome(reference_standard_form, v, canonical)
            want = "trivial" if v.is_half_integer() else next(
                (cid for cid, orbit in curve_orbits if v in orbit), None)
            assert curve_of(v) == want
            if k % 4:
                continue
            # every fourth class also as a non-canonical pair of its class
            u, w = shifted(v, rng), rng.choice(classes)
            assert outcome(same_orbit, w, u) == outcome(reference_same_orbit, w, u, canonical)
            assert outcome(standard_form, u) == outcome(reference_standard_form, u, canonical)
            assert curve_of(u) == curve_of((str(u.mu), str(u.nu))) == want

    @pytest.mark.parametrize("zero", [(1, 0), (0, -2), (3, 5), (-1, 1)])
    def test_non_canonical_zero_classes_as_before(self, zero):
        v = RationalPair(F(zero[0]), F(zero[1]))
        assert not v.is_zero()
        w = pair(F(1, 3), 0)
        for args in ((v, w), (w, v), (v, v)):
            assert outcome(same_orbit, *args) == (ValueError, "zero vector has no standard form")
        got = standard_form(v)
        assert got == reference_standard_form(v)
        assert got.standard.is_zero() and got.N == 1
        for arg in (v, zero, tuple(map(str, zero))):
            with pytest.raises(ValueError, match="trivial solution"):
                orbit_to_curve(arg)
        assert canonicalize(zero) == canonicalize(v) == pair(0, 0)
        assert hash(canonicalize(zero)) == hash(pair(0, 0))


def public_twin(v):
    """The pair of v's values through the public constructor, on fresh Fractions."""
    return RationalPair(F(v.mu.numerator, v.mu.denominator), F(v.nu.numerator, v.nu.denominator))


def internal_routes():
    """(route, pair) for pairs built inside the module by every route."""
    out = []
    for N in (2, 3, 4, 7, 12, 20):
        for v in eligible_classes(N):
            out.append(("eligible_classes", v))
            u = RationalPair(-v.mu + 2, v.nu - 1)
            out += [("canonicalize", canonicalize((v.mu, v.nu))),
                    ("canonicalize", canonicalize((str(u.mu), str(u.nu)))),
                    ("act", act(Gamma2Matrix.identity(), v))]
            if not v.is_zero():
                out.append(("standard_form", standard_form(v).standard))
        out += [("enumerate_orbit", w) for w in enumerate_orbit(eligible_classes(N)[-1])]
    return out


class TestPairSemantics:
    """A pair built inside the module (slots, kept hash, no public constructor)
    is the same value as the one the public constructor builds."""

    def test_compare_hash_and_text(self):
        routes = internal_routes()
        assert {route for route, _ in routes} == {
            "canonicalize", "act", "standard_form", "enumerate_orbit", "eligible_classes"}
        rng = random.Random(3)
        for route, w in routes:
            p = public_twin(w)
            assert type(w) is RationalPair
            assert w._hash == hash(tuple_key(w)), route  # kept from the start
            assert w == p and p == w and not (w != p)
            assert not (w < p) and not (p < w) and w <= p and w >= p
            assert hash(w) == hash(p) == hash(tuple_key(w)), route
            assert repr(w) == repr(p) and str(w) == str(p)
            x = rng.choice(routes)[1]
            assert (w < x) == (p < public_twin(x)) == (p < x) == (tuple(w) < tuple(x))

    def test_dataclass_protocol(self):
        for route, w in internal_routes()[::7]:
            p = public_twin(w)
            assert [f.name for f in dataclasses.fields(w)] == ["mu", "nu"]
            assert dataclasses.asdict(w) == dataclasses.asdict(p) == {"mu": w.mu, "nu": w.nu}
            assert dataclasses.astuple(w) == (w.mu, w.nu)
            assert dataclasses.replace(w) == p
            moved = dataclasses.replace(w, nu=w.nu + 1)
            assert moved == RationalPair(w.mu, w.nu + 1)
            assert hash(moved) == hash(tuple_key(moved))

    def test_pickle_and_copy(self):
        for route, w in internal_routes()[::5]:
            p = public_twin(w)
            copies = [pickle.loads(pickle.dumps(x, protocol))
                      for x in (w, p) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(w), copy.deepcopy(w), copy.copy(p), copy.deepcopy(p)]
            for c in copies:
                assert type(c) is RationalPair
                assert c == w == p and hash(c) == hash(tuple_key(w)), route
                assert repr(c) == repr(p)
            assert pickle.loads(pickle.dumps({w: route}))[p] == route

    @pytest.mark.parametrize("name", ["mu", "nu", "_hash"])
    def test_frozen(self, name):
        v = canonicalize((F(1, 5), F(2, 5)))
        for w in (v, public_twin(v)):
            hash(w)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, F(1, 7))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(w, name)
            assert w == v and hash(w) == hash(tuple_key(v))

    def test_slots_and_no_instance_dict(self):
        v = canonicalize((F(1, 5), F(2, 5)))
        assert RationalPair.__slots__ == ("mu", "nu", "_hash")
        for w in (v, public_twin(v)):
            assert not hasattr(w, "__dict__")
            with pytest.raises(TypeError):
                vars(w)

    def test_canonicalize_returns_a_canonical_pair_itself(self):
        v = canonicalize((F(1, 5), F(2, 5)))
        assert canonicalize(v) is v
        p = public_twin(v)
        assert canonicalize(p) is p
        # components that are not Fractions are rebuilt as Fractions
        w = canonicalize(RationalPair(F(1, 3), 0))
        assert w == pair(F(1, 3), 0) and type(w.nu) is F


class TestFastConstructor:
    """Pairs the module builds for itself skip the public constructor."""

    def test_internal_routes_make_no_constructor_call(self, monkeypatch):
        calls = []
        public_init = RationalPair.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            public_init(self, *args, **kwargs)

        monkeypatch.setattr(RationalPair, "__init__", counting)
        RationalPair(F(1, 2), F(0))
        assert len(calls) == 1
        calls.clear()
        v = canonicalize(("1/160", "0"))
        assert len(enumerate_orbit(v)) == orbit_partition(160)[0]
        assert len(eligible_classes(24)) == sum(orbit_partition(24))
        for g in GENERATORS:
            act(g, v)
            act(g.inverse(), v)
        canonicalize(("-1/160", "7/2"))
        canonicalize((F(-3, 8), F(5, 8)))
        canonicalize(v)
        standard_form(v)
        same_orbit(v, canonicalize(("3/160", "1/2")))
        _fraction_bfs(canonicalize((F(1, 5), 0)))
        assert calls == []


class TestPublicConstructorFields:
    """RationalPair(mu, nu) takes each field as canonicalize does and stores a Fraction."""

    FIELDS = [(("1/3", "0"), (F(1, 3), F(0))), (("2/5", 1), (F(2, 5), F(1))),
              ((F(1, 4), "3/4"), (F(1, 4), F(3, 4))), ((0, F(1, 6)), (F(0), F(1, 6))),
              ((" -1/6 ", 0.5), (F(-1, 6), F(1, 2)))]

    @pytest.mark.parametrize("given,want", FIELDS)
    def test_fields_are_fractions(self, given, want):
        v = RationalPair(*given)
        assert (v.mu, v.nu) == want and type(v.mu) is type(v.nu) is F
        assert v == RationalPair(*want) and hash(v) == hash(tuple_key(RationalPair(*want)))

    @pytest.mark.parametrize("given,want", FIELDS)
    def test_every_call_as_with_fractions(self, given, want):
        v, w = RationalPair(*given), RationalPair(*want)
        other = ("1/3", "1/3")
        assert outcome(same_orbit, v, other) == outcome(same_orbit, w, other)
        assert outcome(standard_form, v) == outcome(standard_form, w)
        assert outcome(orbit_key, v) == outcome(orbit_key, w)
        assert outcome(enumerate_orbit, v) == outcome(enumerate_orbit, w)
        assert outcome(picard_eval, v, 0.3 + 1.1j) == outcome(picard_eval, w, 0.3 + 1.1j)
        alpha = (1, 2, 3, 4)
        assert (outcome(reduction_residual, alpha, v, 0.3 + 1.1j)
                == outcome(reduction_residual, alpha, w, 0.3 + 1.1j))

    @pytest.mark.parametrize("bad", ["x", "1/0", "", None, 1j, float("nan"), float("inf"), [1]])
    def test_invalid_field_raises_value_error(self, bad):
        for args in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="invalid rational"):
                RationalPair(*args)
        with pytest.raises(ValueError, match="invalid rational"):
            canonicalize((bad, 0))


def standard_routes():
    """(standard form built by standard_form, the same values through the public constructor)."""
    out = []
    for N in (2, 3, 4, 7, 12, 20):
        for v in eligible_classes(N):
            if not v.is_zero():
                sf = standard_form(v)
                out.append((sf, StandardForm(M=sf.M, N=sf.N, m=sf.m, n=sf.n, standard=sf.standard)))
    return out


class TestStandardFormSemantics:
    """A standard form built by standard_form (slots set directly) is the same
    value as the one the public constructor builds."""

    def test_compare_hash_and_text(self):
        for sf, pub in standard_routes():
            assert type(sf) is StandardForm
            assert sf == pub and pub == sf and not (sf != pub)
            assert hash(sf) == hash(pub)
            assert repr(sf) == repr(pub) and str(sf) == str(pub)

    def test_dataclass_protocol(self):
        for sf, pub in standard_routes()[::5]:
            names = ["M", "N", "m", "n", "standard"]
            assert [f.name for f in dataclasses.fields(sf)] == names
            assert dataclasses.fields(sf) == dataclasses.fields(pub)
            assert dataclasses.asdict(sf) == dataclasses.asdict(pub)
            assert dataclasses.replace(sf) == pub
            assert dataclasses.replace(sf, M=sf.M + 2) == dataclasses.replace(pub, M=sf.M + 2)

    def test_pickle(self):
        for sf, pub in standard_routes()[::5]:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(sf, protocol)
                assert data == pickle.dumps(pub, protocol)
                back = pickle.loads(data)
                assert type(back) is StandardForm and back == sf and hash(back) == hash(sf)
            assert copy.copy(sf) == copy.deepcopy(sf) == pub

    @pytest.mark.parametrize("name", ["M", "N", "m", "n", "standard"])
    def test_frozen(self, name):
        sf, pub = standard_routes()[3]
        for x in (sf, pub):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert sf == pub

    def test_slots_and_no_instance_dict(self):
        assert StandardForm.__slots__ == ("M", "N", "m", "n", "standard")
        for x in standard_routes()[0]:
            assert not hasattr(x, "__dict__")

    def test_standard_form_makes_no_constructor_call(self, monkeypatch):
        calls = []
        public_init = StandardForm.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            public_init(self, *args, **kwargs)

        monkeypatch.setattr(StandardForm, "__init__", counting)
        for v in eligible_classes(12)[1:]:
            standard_form(v)
        assert calls == []
