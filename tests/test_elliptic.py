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
from pvi.orbits import GENERATORS, Gamma2Matrix, act, canonicalize

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
        with pytest.raises(PoleProximityError):
            wp_prime(1e-8, 1j)
        with pytest.raises(PoleProximityError):
            triple_check(1e-8, 1j)
        # z is clear of the lattice and 3z is not; g(y, t) ~ 0 there too, so
        # the check on 3z runs before the tripling-denominator guard
        with pytest.raises(PoleProximityError, match=r"z = \(1\.000000003\+0j\)"):
            triple_check(1 / 3 + 1e-9, 1j)

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

    @pytest.mark.parametrize("tau", [1 + 1e-3j, -1 + 1e-3j, 3 + 2e-3j, 1.0005 + 8e-4j,
                                     1e-3j, 2 + 5e-4j])
    def test_near_an_integer_cusp_is_refused(self, monkeypatch, tau):
        # below the floor q' underflows to 0 near an odd cusp, which made the
        # level-2 quotients divide by zero before the collision check ran
        monkeypatch.setattr(elliptic, "IM_TAU_FLOOR", 1e-6)
        for v in [(F(1, 3), 0), (F(1, 4), F(1, 6))]:
            with pytest.raises(PrecisionError, match="collide"):
                picard_eval(v, tau)
        with pytest.raises(PrecisionError, match="collide"):
            invariants_at(tau)


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



def _theta_context(tau):
    """tau as mpc, the nome and the theta constants at 30 digits, without any reduction."""
    T = mp.mpc(tau)
    q = mp.exp(1j * mp.pi * T)
    return T, q, mp.jtheta(2, 0, q), mp.jtheta(3, 0, q), mp.jtheta(4, 0, q)


def _wp_prime_ref(z, ctx):
    """d/dz of wp_oracle_mp through mpmath's theta derivatives, at the point itself."""
    T, q, c2, c3, c4 = ctx
    Z = mp.pi * mp.mpc(z)
    t1, t4 = mp.jtheta(1, Z, q), mp.jtheta(4, Z, q)
    d1, d4 = mp.jtheta(1, Z, q, 1), mp.jtheta(4, Z, q, 1)
    r = c2 * c3 * t4 / t1
    return 2 * mp.pi ** 3 * r * c2 * c3 * (d4 * t1 - t4 * d1) / t1 ** 2


def _normalized_ref(z, ctx):
    T, q, c2, c3, c4 = ctx
    e1 = mp.pi ** 2 / 3 * (c3 ** 4 + c4 ** 4)
    e2 = -mp.pi ** 2 / 3 * (c2 ** 4 + c3 ** 4)
    return (wp_oracle_mp(z, T) - e1) / (e2 - e1)


def _label_ref(v, T):
    mu, nu = v
    return mp.mpf(mu.numerator) / mu.denominator + mp.mpf(nu.numerator) / nu.denominator * T


def _residual_ref(alpha, v, ctx):
    T = ctx[0]
    p = _label_ref(v, T)
    return sum(a * _wp_prime_ref(p + om, ctx)
               for a, om in zip(alpha, (0, mp.mpf(1) / 2, T / 2, (1 + T) / 2)))


def _rel(got, want, floor=0.0):
    return abs(got - complex(want)) / max(floor, abs(complex(want)))


def _random_class(rng):
    N = rng.choice((3, 4, 5, 6, 8, 12))
    while True:
        v = canonicalize((F(rng.randrange(N), N), F(rng.randrange(N), N)))
        if not v.is_half_integer():
            return v


class TestAgainstMpmathByBand:
    """Every public evaluator against unreduced 30-digit theta functions, Re tau in [-3, 3]:
    t, 1 - t and y within 1e-12 relative, the rest within 1e-9 of max(1, |value|)."""

    BANDS = [(0.1, 0.15), (0.15, 0.25), (0.25, 3.0)]

    @pytest.mark.parametrize("lo,hi", BANDS)
    def test_band(self, lo, hi):
        rng = random.Random(int(lo * 1000))
        for _ in range(25):
            tau = complex(rng.uniform(-3, 3), lo * (hi / lo) ** rng.random())
            ctx = _theta_context(tau)
            _, _, c2, c3, c4 = ctx
            t = invariants_at(tau).t
            assert _rel(t, (c4 / c3) ** 4) < 1e-12
            assert _rel(1 - t, (c2 / c3) ** 4) < 1e-12

            v = _random_class(rng)
            pt, y = picard_eval(v, tau)
            assert _rel(pt, (c4 / c3) ** 4) < 1e-12
            assert _rel(y, _normalized_ref(_label_ref(v, ctx[0]), ctx)) < 1e-12

            alpha = [rng.randint(-5, 9) for _ in range(4)]
            got = reduction_residual(alpha, v, tau)
            assert _rel(got, _residual_ref(alpha, v, ctx), 1.0) < 1e-9

            z = (rng.uniform(0.06, 0.27) * rng.choice((1, -1))
                 + rng.uniform(0.06, 0.27) * rng.choice((1, -1)) * tau)
            assert _rel(wp(z, tau), wp_oracle_mp(z, tau), 1.0) < 1e-9
            assert _rel(wp_prime(z, tau), _wp_prime_ref(z, ctx), 1.0) < 1e-9
            try:
                lhs, rhs = triple_check(z, tau)
            except PoleProximityError as exc:
                assert "tripling denominator" in str(exc)
                continue
            want = _normalized_ref(3 * mp.mpc(z), ctx)
            assert _rel(lhs, want, 1.0) < 1e-9
            assert _rel(rhs, want, 1.0) < 1e-9


class TestModularReduction:
    """The SL2(Z) reduction of tau behind every evaluator."""

    # Near cusps: 0 needs one inversion, the points at +-1/2 and +-1/3 two or more
    # (at 1/3 + 0.12i one is already best).  At 0.1i itself t is within 1e-12 of 0.
    CUSP_TAUS = ([complex(dx, im) for dx, im in ((0.0, 0.11), (0.003, 0.13), (-0.007, 0.17), (0.011, 0.2))]
                 + [complex(x + dx, im) for x in (0.5, -0.5)
                    for dx, im in ((0.0, 0.1), (0.003, 0.13), (-0.007, 0.17), (0.011, 0.2))]
                 + [complex(x + dx, im) for x in (1 / 3, -1 / 3)
                    for dx, im in ((0.0, 0.11), (0.002, 0.1), (-0.003, 0.105), (0.004, 0.115))])

    def test_matrix_and_fundamental_domain(self):
        rng = random.Random(21)
        taus = self.CUSP_TAUS + [complex(rng.uniform(-3, 3), 0.1 * 30 ** rng.random())
                                 for _ in range(300)]
        for tau in taus + [complex(1e17 + 0.3, 0.2), complex(-12345.5, 0.1)]:
            red = elliptic._reduce(tau)
            assert red.a * red.d - red.b * red.c == 1
            assert red.tau0 == complex(tau.real - red.n, tau.imag)
            tau1 = red.tau1
            assert abs(tau1.real) <= 0.5 and abs(tau1) ** 2 >= 1 - 1e-12
            assert abs(tau1 - (red.a * red.tau0 + red.b) / (red.c * red.tau0 + red.d)) < 1e-12
            assert red.lam == red.c * red.tau0 + red.d

    def test_cusp_points_take_two_inversions(self):
        for tau in self.CUSP_TAUS:
            if abs(tau.real) > 0.1:
                assert abs(elliptic._reduce(tau).c) >= 2, tau

    # Convention: tau1 = g tau for g = [[a, b], [c, d]] moves the class (mu, nu)
    # to J g J (mu, nu) = [[a, -b], [-c, d]] (mu, nu), J = diag(1, -1), which is
    # act(Gamma2Matrix(a, -b, -c, d), v) in orbits.  On the shear generators,
    # J g J = g^-1.
    @pytest.mark.parametrize("g", [*GENERATORS, *(h.inverse() for h in GENERATORS),
                                   GENERATORS[0] @ GENERATORS[1],
                                   GENERATORS[1] @ GENERATORS[0].inverse()])
    def test_label_map_is_the_orbit_action(self, g):
        red = elliptic._Reduction(0, g.a, g.b, g.c, g.d, 1j, 1j, 1j)
        rng = random.Random(22)
        for _ in range(50):
            v = _random_class(rng)
            (N, A, B), _ = elliptic._label_point(v, red)
            moved = canonicalize((F(A, N), F(B, N)))
            assert moved == act(Gamma2Matrix(g.a, -g.b, -g.c, g.d), v)
            if g in GENERATORS:
                assert moved == act(g.inverse(), v)

    @pytest.mark.parametrize("g", [*GENERATORS, *(h.inverse() for h in GENERATORS)])
    def test_picard_point_moves_with_its_class(self, g):
        rng = random.Random(23)
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5))
            moved_tau = g.moebius(tau)
            if moved_tau.imag < elliptic.IM_TAU_FLOOR:
                continue
            v = _random_class(rng)
            t, y = picard_eval(v, tau)
            t2, y2 = picard_eval(act(Gamma2Matrix(g.a, -g.b, -g.c, g.d), v), moved_tau)
            assert abs(t2 - t) < 1e-12 * abs(t) and abs(y2 - y) < 1e-12 * abs(y)

    @pytest.mark.parametrize("tau", CUSP_TAUS)
    def test_near_cusps_against_unreduced_oracle(self, tau):
        ctx = _theta_context(tau)
        _, _, c2, c3, c4 = ctx
        assert _rel(invariants_at(tau).t, (c4 / c3) ** 4) < 1e-12
        for v in ((F(1, 3), F(0)), (F(1, 4), F(1, 4)), (F(1, 6), F(1, 3)), (F(2, 5), F(1, 5))):
            v = canonicalize(v)
            assert _rel(picard_eval(v, tau)[1], _normalized_ref(_label_ref(v, ctx[0]), ctx)) < 1e-12
            alpha = (1, 2, 3, 4)
            assert _rel(reduction_residual(alpha, v, tau), _residual_ref(alpha, v, ctx), 1.0) < 1e-9
        z = 0.21 - 0.13 * tau
        assert _rel(wp(z, tau), wp_oracle_mp(z, tau), 1.0) < 1e-9
        assert _rel(wp_prime(z, tau), _wp_prime_ref(z, ctx), 1.0) < 1e-9

    def test_lattice_distance_is_exact(self):
        # against every lattice point of a wide window, skewed lattices near the floor included
        rng = random.Random(24)
        for _ in range(60):
            tau = complex(rng.uniform(-1, 1), 0.1 * 10 ** rng.random())
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            brute = min(abs(z - m - n * tau) for m in range(-40, 41) for n in range(-40, 41))
            assert abs(lattice_distance(z, tau) - brute) < 1e-12

    def test_degenerate_t_is_refused(self):
        # at tau' = 9.75i, 1 - t is about 8e-13: below the 1e-12 floor on t and
        # 1 - t, above the collision test; 1j/9.75 reduces to it by one inversion
        for tau in (9.75j, 1j / 9.75):
            with pytest.raises(PrecisionError, match="degenerates"):
                invariants_at(tau)
            with pytest.raises(PrecisionError, match="degenerates"):
                picard_eval((F(1, 3), F(0)), tau)

    def test_colliding_half_period_values_are_refused(self):
        # next to the cusp 1, t ~ 1e12: e2 - e1 is the vanishing difference
        for tau in (1 + 0.1j, -1 + 0.101j):
            with pytest.raises(PrecisionError, match="collide"):
                invariants_at(tau)

    def test_label_points_near_the_lattice(self):
        # p + omega_k on the lattice, exactly or within the threshold, for a
        # nonzero alpha_k; a zero alpha_k skips that term
        tau = 0.37 + 0.13j
        with pytest.raises(PoleProximityError):
            reduction_residual((0, 1, 0, 0), (F(1, 2), F(0)), tau)
        with pytest.raises(PoleProximityError):
            reduction_residual((0, 0, 0, 1), (F(1, 2), F(1, 2)), tau)
        assert reduction_residual((1, 0, 1, 1), (F(1, 2), F(0)), tau) != 0
        with pytest.raises(PoleProximityError):
            picard_eval((F(1, 10 ** 7), F(0)), tau)
        with pytest.raises(PoleProximityError):
            reduction_residual((1, 1, 1, 1), (F(1, 2), F(1, 2 * 10 ** 7 + 1)), tau)
        picard_eval((F(1, 10 ** 5), F(0)), tau)

    def test_pole_threshold_in_the_callers_lattice(self):
        # tau = 1/2 + 0.1i has lam = 2*tau - 1 = 0.2i, so 1e-6 in the caller's
        # lattice is 5e-6 in the reduced one
        tau = 0.5 + 0.1j
        with pytest.raises(PoleProximityError):
            wp(1 + 0.9e-6j, tau)
        assert abs(wp(1 + 1.1e-6j, tau) - 1 / (1.1e-6j) ** 2) < 1e-6 * 1e12

    def test_large_im_tau_reaches_the_trigonometric_limit(self):
        # q' underflows; wp and wp' tend to their q = 0 forms without overflowing
        for tau in (300j, 1000j, 0.3 + 1e5j):
            for z in (0.3, 0.3 + 0.45 * tau, 0.1 + 0.2 * tau, -0.2 - 0.49 * tau):
                s = mp.sin(mp.pi * mp.mpc(z))
                want = mp.pi ** 2 / s ** 2 - mp.pi ** 2 / 3
                assert _rel(wp(z, tau), want, 1.0) < 1e-12
                assert abs(wp_prime(z, tau) - complex(-2 * mp.pi ** 3 * mp.cos(mp.pi * mp.mpc(z)) / s ** 3)) < 1e-9


_CELL_DISTANCE = elliptic._cell_distance


def _measured_class_thetas(pair, red, shifts):
    """_class_thetas as it was: the lattice distance of every shift measured."""
    (N, A, B), p1 = elliptic._label_point(pair, red)
    for k in shifts:
        u = (2 * A + N * (k & 1)) % (2 * N)
        w = (2 * B + N * (k >> 1)) % (2 * N)
        u, w = (u - 2 * N if u >= N else u), (w - 2 * N if w >= N else w)
        distance = abs(red.lam) * _CELL_DISTANCE(u / (2 * N), w / (2 * N), red.tau1)
        if distance < elliptic.POLE_THRESHOLD:
            elliptic._require_clear(distance, float(pair.mu) + float(pair.nu) * (red.n + red.tau0))
    return elliptic._thetas(red.tau1, p1)


def _thetas_outcome(f, *args):
    try:
        return f(*args)
    except PoleProximityError as exc:
        return PoleProximityError, str(exc)


class TestClassClearance:
    """A class of level N off the lattice is cleared from |lam|/2N without
    measuring; the thetas and every refusal match the measuring loop."""

    SHIFTS = [(0,), (1,), (2,), (3,), (0, 1, 2, 3), (3, 1)]

    # on the lattice or within the threshold of it at one of the four shifts, at every tau
    REFUSED = [canonicalize(v) for v in ((F(1, 10 ** 7), 0), (0, 0), (F(1, 2), 0), (0, F(1, 2)),
                                         (F(1, 2), F(1, 2)))]

    def classes(self, rng):
        out = list(self.REFUSED)
        for N in range(3, 61):
            for _ in range(2):
                out.append(canonicalize((F(rng.randrange(N), N), F(rng.randrange(N), N))))
        for N in (2 * 10 ** 5 + 1, 10 ** 6 + 3, 2 * 10 ** 6, 3 * 10 ** 6 + 17):
            out += [canonicalize(v) for v in ((F(rng.randrange(N), N), F(1, N)), (F(1, N), 0), (0, F(1, N)))]
        return out

    def test_same_thetas_and_refusals_as_measuring(self, monkeypatch):
        rng = random.Random(2802)
        measured = []
        monkeypatch.setattr(elliptic, "_cell_distance", lambda *a: measured.append(a) or _CELL_DISTANCE(*a))
        counts = {"thetas": 0, "refused": 0}
        for v in self.classes(rng):
            for _ in range(4):
                tau = complex(rng.uniform(-3, 3), 0.1 * 30 ** rng.random())
                red = elliptic._reduce(tau)
                for shifts in self.SHIFTS:
                    got = _thetas_outcome(elliptic._class_thetas, v, red, shifts)
                    assert got == _thetas_outcome(_measured_class_thetas, v, red, shifts), (v, tau, shifts)
                    counts["refused" if got[0] is PoleProximityError else "thetas"] += 1
                    if v in self.REFUSED and len(shifts) == 4:
                        assert got[0] is PoleProximityError
        assert counts["thetas"] > 1000 and counts["refused"] > 40
        # shifts onto the lattice and levels past the bound are measured; levels 3-60
        # off the lattice are not, down to the Im tau floor
        assert measured
        measured.clear()
        for N in range(3, 61):
            elliptic._class_thetas(canonicalize((F(1, N), F(1, N))), elliptic._reduce(0.3 + 0.1j), (0, 1, 2, 3))
        assert measured == []


class TestAlphaConversion:
    def test_fraction_alpha_gives_the_bits_of_its_float(self):
        rng = random.Random(281)
        for _ in range(40):
            alpha = [rng.choice([F(rng.randint(-99, 99), rng.randint(1, 97)), F(0), F(-7),
                                 F(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 18))])
                     for _ in range(4)]
            v, tau = _random_class(rng), complex(rng.uniform(-3, 3), 0.1 * 30 ** rng.random())
            got = reduction_residual(alpha, v, tau)
            want = reduction_residual([complex(float(a)) for a in alpha], v, tau)
            assert repr(got) == repr(want), (alpha, v, tau)

    @pytest.mark.parametrize("alpha", [(float("nan"), 0, 0, 0), (float("inf"), 1, 1, 1),
                                       (1, 2, complex(0, float("nan")), 3), (0, 0, 0, -float("inf"))])
    def test_non_finite_alpha_is_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            reduction_residual(alpha, (F(1, 3), 0), 1j)
        with pytest.raises(ValueError, match="alpha must be finite"):
            reduction_residual(alpha, (F(1, 2), 0), 1j)  # before the pole check
