"""Orbit lattice: canonical forms, standard-form reduction, group action, counts."""

import random
from fractions import Fraction
from math import gcd

import pytest

from pvi.orbits import (
    GENERATORS,
    MAX_ORBIT_DENOMINATOR,
    MAX_PARTITION_DENOMINATOR,
    Gamma2Matrix,
    act,
    canonicalize,
    eligible_classes,
    enumerate_orbit,
    format_rational,
    standard_form,
    merging_matrix,
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
