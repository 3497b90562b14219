"""Elliptic engine tests; mpmath theta functions serve as the independent oracle."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from pvi.curves import CURVES, TRIPLING_F, TRIPLING_G, CurveId
from pvi import elliptic
from pvi.elliptic import (
    AlphaTuple,
    EllipticError,
    PoleProximityError,
    PrecisionError,
    half_periods,
    invariants_at,
    lattice_distance,
    picard_eval,
    reduction_residual,
    triple_check,
    wp,
    wp_prime,
)
from pvi.orbits import GENERATORS, canonicalize

F = Fraction
mp.mp.dps = 30


def wp_oracle_mp(z, tau):
    """Independent route: theta-quotient representation at 30 digits."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    t2 = mp.jtheta(2, 0, q)
    t3 = mp.jtheta(3, 0, q)
    ratio = mp.jtheta(4, mp.pi * mp.mpc(z), q) / mp.jtheta(1, mp.pi * mp.mpc(z), q)
    return mp.pi ** 2 * ((t2 * t3 * ratio) ** 2 - (t2 ** 4 + t3 ** 4) / 3)


def wp_oracle(z, tau):
    return complex(wp_oracle_mp(z, tau))


def t_oracle(tau):
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex((mp.jtheta(4, 0, q) / mp.jtheta(3, 0, q)) ** 4)


def random_tau(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(0.5, 3.0))


def safe_z(rng, tau, margin=0.15):
    while True:
        z = (rng.uniform(0.08, 0.42) * rng.choice((1, -1))
             + rng.uniform(0.08, 0.42) * rng.choice((1, -1)) * tau)
        if lattice_distance(z, tau) >= margin and lattice_distance(2 * z, tau) >= 0.1:
            return z


class TestInvariants:
    def test_sum_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            inv = invariants_at(random_tau(rng))
            assert abs(inv.e1 + inv.e2 + inv.e3) < 1e-12

    def test_cubic_root(self):
        inv = invariants_at(1j)
        for e in (inv.e1, inv.e2, inv.e3):
            assert abs(4 * e ** 3 - inv.g2 * e - inv.g3) < 1e-10

    def test_t_shift_invariance_oracle(self):
        # the invariant repeats with period 2; both values checked against
        # the independent theta-constant route
        tau = 2j
        inv_a = invariants_at(tau)
        inv_b = invariants_at(tau + 2)
        assert abs(inv_a.t - inv_b.t) < 1e-10
        assert abs(inv_a.t - t_oracle(tau)) < 1e-10
        assert abs(inv_b.t - t_oracle(tau + 2)) < 1e-10

    def test_half_period_values(self):
        rng = random.Random(2)
        for _ in range(10):
            tau = random_tau(rng)
            inv = invariants_at(tau)
            _, w1, w2, w3 = half_periods(tau)
            assert abs(wp(w1, tau) - inv.e1) < 1e-9
            assert abs(wp(w2, tau) - inv.e2) < 1e-9
            assert abs(wp(w3, tau) - inv.e3) < 1e-9

    def test_t_avoids_zero_one(self):
        rng = random.Random(3)
        for _ in range(20):
            inv = invariants_at(random_tau(rng))
            assert abs(inv.t) > 1e-10 and abs(inv.t - 1) > 1e-10

    def test_moebius_invariance(self, monkeypatch):
        rng = random.Random(4)
        monkeypatch.setattr(elliptic, "IM_TAU_FLOOR", 0.02)
        for _ in range(20):
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.2))
            ref = invariants_at(tau).t
            for g in GENERATORS:
                assert abs(invariants_at(g.moebius(tau)).t - ref) < 1e-8

    def test_rejects_lower_half_plane(self):
        with pytest.raises(EllipticError):
            invariants_at(-1j)

    @pytest.mark.parametrize("tau", [complex(float("inf"), 1), complex(1, float("inf")),
                                     complex(float("nan"), 1)])
    def test_rejects_non_finite(self, tau):
        with pytest.raises(EllipticError, match="finite"):
            invariants_at(tau)

    def test_precision_floor(self):
        with pytest.raises(PrecisionError):
            invariants_at(0.5 + 0.05j)


class TestWeierstrass:
    def test_matches_independent_oracle(self):
        for tau in (1j, 0.3 + 0.8j, -0.2 + 1.3j, 2j):
            for z in (0.31 + 0.21j, 0.11 - 0.05j, 0.47 + 0.33j):
                assert abs(wp(z, tau) - wp_oracle(z, tau)) < 1e-11
                d = mp.diff(lambda w: wp_oracle_mp(w, tau), mp.mpc(z))
                assert abs(wp_prime(z, tau) - complex(d)) < 1e-8

    def test_even_odd(self):
        rng = random.Random(5)
        for _ in range(20):
            tau = random_tau(rng)
            z = safe_z(rng, tau)
            assert abs(wp(-z, tau) - wp(z, tau)) < 1e-12 * max(1, abs(wp(z, tau)))
            assert abs(wp_prime(-z, tau) + wp_prime(z, tau)) < 1e-9

    def test_differential_equation(self):
        rng = random.Random(6)
        for _ in range(50):
            tau = random_tau(rng)
            z = safe_z(rng, tau)
            inv = invariants_at(tau)
            p = wp(z, tau)
            pp = wp_prime(z, tau)
            defect = pp * pp - 4 * (p - inv.e1) * (p - inv.e2) * (p - inv.e3)
            assert abs(defect) < 1e-9

    def test_periodicity(self):
        rng = random.Random(7)
        for _ in range(50):
            tau = random_tau(rng)
            z = safe_z(rng, tau)
            p = wp(z, tau)
            assert abs(wp(z + 1, tau) - p) < 1e-9
            assert abs(wp(z + tau, tau) - p) < 1e-9

    def test_half_period_translation_identity(self):
        rng = random.Random(8)
        for _ in range(50):
            tau = random_tau(rng)
            z = safe_z(rng, tau)
            inv = invariants_at(tau)
            es = (inv.e1, inv.e2, inv.e3)
            p = wp(z, tau)
            for k, om in enumerate(half_periods(tau)[1:]):
                ek = es[k]
                ei, ej = (es[m] for m in range(3) if m != k)
                rhs = ek + (ek - ei) * (ek - ej) / (p - ek)
                assert abs(wp(z + om, tau) - rhs) < 1e-9

    def test_derivative_vs_finite_differences(self):
        rng = random.Random(9)
        h = 1e-5
        for _ in range(20):
            tau = random_tau(rng)
            z = safe_z(rng, tau)
            fd = (wp(z + h, tau) - wp(z - h, tau)) / (2 * h)
            assert abs(fd - wp_prime(z, tau)) < 1e-6

    def test_pole_proximity(self):
        with pytest.raises(PoleProximityError):
            wp(1e-8, 1j)
        with pytest.raises(PoleProximityError):
            wp(1 + 1j + 1e-9, 1j)  # lattice point 1 + tau

    def test_precision_floor(self):
        with pytest.raises(PrecisionError):
            wp(0.3, 0.3 + 0.05j)

    def test_accurate_down_to_default_floor(self):
        # slowest convergence the default configuration admits
        rng = random.Random(12)
        for _ in range(20):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.1, 0.2))
            inv = invariants_at(tau)
            z = 0.27 + 0.18 * tau
            p, pp = wp(z, tau), wp_prime(z, tau)
            defect = abs(pp * pp - 4 * (p - inv.e1) * (p - inv.e2) * (p - inv.e3))
            assert defect < 1e-9 * max(1.0, abs(pp) ** 2)


class TestPicardEval:
    def test_quarter_class_on_square_root_curve(self):
        t, y = picard_eval((F(1, 4), 0), 2j)
        assert abs(y * y - t) < 1e-8

    def test_half_integer_rejected(self):
        for v in [(F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2)), (0, 0)]:
            with pytest.raises(ValueError):
                picard_eval(v, 1j)

    def test_third_class_on_first_quartic(self):
        t, y = picard_eval((F(1, 3), F(1, 3)), 1j)
        assert abs(complex(CURVES[CurveId.D](y=y, t=t))) < 1e-7

    def test_level_six_classes(self):
        for v, cid in [((F(1, 6), 0), CurveId.E),
                       ((0, F(1, 6)), CurveId.F),
                       ((F(1, 6), F(1, 6)), CurveId.G)]:
            for tau in (1j, 0.2 + 1.1j):
                t, y = picard_eval(v, tau)
                assert abs(complex(CURVES[cid](y=y, t=t))) < 1e-7

    def test_accepts_rational_pair(self):
        v = canonicalize((F(1, 4), 0))
        t, y = picard_eval(v, 1.5j)
        assert abs(y * y - t) < 1e-8


class TestReductionResidual:
    TAUS = (1j, 1 + 2j, 3j)

    def test_zero_alpha(self):
        assert reduction_residual((0, 0, 0, 0), (F(1, 4), 0), 1j) == 0

    def test_matched_pattern(self):
        for c, d in ((1, 2), (F(3, 2), F(-5, 7))):
            alpha = AlphaTuple(c, c, d, d)
            for tau in self.TAUS:
                assert abs(reduction_residual(alpha, (F(1, 4), 0), tau)) < 1e-8

    def test_mismatched_pattern(self):
        for tau in self.TAUS:
            assert abs(reduction_residual((1, 2, 3, 4), (F(1, 4), 0), tau)) > 1e-3

    def test_linear_in_alpha(self):
        rng = random.Random(10)
        v = (F(1, 5), F(2, 5))
        tau = 0.3 + 0.9j
        for _ in range(10):
            a = [rng.uniform(-2, 2) for _ in range(4)]
            b = [rng.uniform(-2, 2) for _ in range(4)]
            s = [x + y for x, y in zip(a, b)]
            lhs = reduction_residual(s, v, tau)
            rhs = reduction_residual(a, v, tau) + reduction_residual(b, v, tau)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_level_six_patterns(self):
        # each level-6 class is annihilated by exactly its own ratio pattern
        cases = {
            (F(1, 6), F(0)): (1, 9, 1, 1),
            (F(0), F(1, 6)): (1, 1, 9, 1),
            (F(1, 6), F(1, 6)): (1, 1, 1, 9),
        }
        for v, alpha in cases.items():
            for tau in (1j, 0.25 + 0.85j):
                assert abs(reduction_residual(alpha, v, tau)) < 1e-8
        assert abs(reduction_residual((1, 9, 1, 1), (F(0), F(1, 6)), 1j)) > 1e-3


class TestRealPartReduction:
    """Re tau far outside [-1, 1] against mpmath at 60 digits, which takes each
    float tau exactly; floats beyond 2^53 are even integers plus i*Im tau."""

    TAUS = (3.7 + 0.6j, -12345.25 + 0.9j, 1e6 + 0.5 + 0.7j, -1e9 - 0.75 + 1.2j,
            1e17 + 0.6j, -2.0 ** 60 + 0.8j)
    CLASSES = ((F(1, 3), F(1, 6)), (F(1, 6), F(1, 6)), (F(2, 5), F(1, 5)), (F(0), F(3, 7)))

    @staticmethod
    def _point(v, tau):
        return v[0].numerator / mp.mpf(v[0].denominator) + v[1].numerator / mp.mpf(
            v[1].denominator) * tau

    @pytest.mark.parametrize("tau", TAUS)
    def test_picard_point_against_oracle(self, tau):
        with mp.workdps(60):
            T = mp.mpc(tau)
            q = mp.exp(1j * mp.pi * T)
            t2, t3, t4 = (mp.jtheta(n, 0, q) for n in (2, 3, 4))
            e1 = mp.pi ** 2 / 3 * (t3 ** 4 + t4 ** 4)
            e2 = -mp.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4)
            assert abs(invariants_at(tau).t - complex((t4 / t3) ** 4)) < 1e-12
            for v in self.CLASSES:
                t, y = picard_eval(v, tau)
                want = complex((wp_oracle_mp(self._point(v, T), T) - e1) / (e2 - e1))
                assert abs(t - complex((t4 / t3) ** 4)) < 1e-12
                assert abs(y - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tau", TAUS)
    def test_reduction_residual_against_oracle(self, tau):
        alpha = (1, 2, 3, 4)
        with mp.workdps(60):
            T = mp.mpc(tau)
            for v in self.CLASSES:
                p = self._point(v, T)
                want = complex(sum(
                    a * mp.diff(lambda w: wp_oracle_mp(w, T), p + om)
                    for a, om in zip(alpha, (0, mp.mpf(1) / 2, T / 2, (1 + T) / 2))))
                got = reduction_residual(alpha, v, tau)
                assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        # the class of the last level-six pattern still annihilates it
        assert abs(reduction_residual((1, 1, 1, 9), (F(1, 6), F(1, 6)), tau)) < 1e-8


class TestTripling:
    def test_random_agreement(self):
        rng = random.Random(11)
        n = 0
        while n < 50:
            tau = random_tau(rng)
            z = safe_z(rng, tau, margin=0.12)
            if lattice_distance(3 * z, tau) < 0.1:
                continue
            try:
                lhs, rhs = triple_check(z, tau)
            except EllipticError:
                continue
            if max(abs(lhs), abs(rhs)) > 1e4:
                continue
            n += 1
            assert abs(lhs - rhs) < 1e-8

    def test_third_order_points_hit_denominator(self):
        for tau in (1j, 0.2 + 0.9j):
            inv = invariants_at(tau)
            z = (1 + tau) / 3
            y = (wp(z, tau) - inv.e1) / (inv.e2 - inv.e1)
            assert abs(complex(TRIPLING_G(y=y, t=inv.t))) < 1e-7

    def test_sixth_order_points_hit_numerator(self):
        # w(3 * 1/6) = w(1/2) = 0, so the numerator f vanishes at y = w(1/6)
        for tau in (1j, 0.2 + 0.9j):
            inv = invariants_at(tau)
            y = (wp(1 / 6, tau) - inv.e1) / (inv.e2 - inv.e1)
            assert abs(complex(TRIPLING_F(y=y, t=inv.t))) < 1e-7

    def test_denominator_guard(self):
        # z near a third-order point makes g(y, t) ~ 0
        tau = 1j
        with pytest.raises(EllipticError):
            triple_check((1 + tau) / 3, tau)

