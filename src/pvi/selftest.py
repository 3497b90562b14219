"""Named end-to-end checks covering every identity and classification claim.

Each check is a zero-argument callable returning a human-readable detail
string on success and raising :class:`CheckFailure` on failure; the runner
wraps them with timing so the command-line front end can print one
pass/fail line per check.  These are the only copy of the checks: the
pytest acceptance suite (``tests/test_acceptance.py``) runs the callables
of :data:`CHECKS` themselves.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import curves as cv
from . import elliptic as el
from . import orbits as ob
from . import verifier as vf
from ._record import record
from .curves import CurveId
from .elliptic import AlphaTuple
from .multipoly import MultiPoly
from .verifier import PviParams, SampleSpec


class CheckFailure(AssertionError):
    """A self-test check did not hold."""


@record
class CheckResult:
    """Outcome of one self-test check: its name, verdict, detail and time."""

    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name:<28s} ({self.seconds:7.3f}s) {self.detail}"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


CANONICAL_ALPHA = {cid: AlphaTuple(*row.alpha) for cid, row in cv.CURVE_TABLE.items()}

_FIVE_TAUS = (1j, 1 + 2j, 3j, 0.3 + 0.8j, -0.4 + 1.1j)


def _random_fraction(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _random_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0))


def _random_cell_point(rng: random.Random, tau: complex) -> complex:
    a = rng.uniform(0.08, 0.42) * rng.choice((1, -1))
    b = rng.uniform(0.08, 0.42) * rng.choice((1, -1))
    return a + b * tau


# ----------------------------------------------------------------------
# exact polynomial checks
# ----------------------------------------------------------------------

def check_three_factor_identity() -> str:
    lhs = cv.master_poly((1, 1, 1, 1))
    rhs = cv.CURVES[CurveId.A] * cv.CURVES[CurveId.B] * cv.CURVES[CurveId.C]
    _require(lhs == rhs, "equal-parameter sextic != A*B*C")
    _require(cv.master_poly((0, 0, 0, 0)).is_zero(), "zero parameters != zero polynomial")
    return "sextic at equal parameters factors exactly as A*B*C"


def check_vanishing_a3_cofactor() -> str:
    rng = random.Random(20401)
    ymt2 = (MultiPoly.variable("y") - MultiPoly.variable("t")) ** 2
    for _ in range(20):
        triple = tuple(_random_fraction(rng) for _ in range(3))
        expected = ymt2 * cv.p0_poly(triple)
        _require(
            cv.master_poly((*triple, 0)) == expected,
            f"(y-t)^2 cofactor identity fails at {triple}",
        )
    cert = cv.is_irreducible(cv.p0_poly((1, 1, 1)))
    _require(cert.status == "irreducible", f"P0(1,1,1) certificate missing: {cert.status}")
    return f"20 random triples split exactly; P0(1,1,1) certified at (t0, p) = {cert.certificate}"


def check_kummer_equivalence() -> str:
    _require(cv.verify_kummer_equivalence(), "8-fold sign product != surface defect")
    prod = cv.signed_sum_product()
    _require(
        all(sum(e) == 8 for e in prod.terms), "sign product is not homogeneous of degree 8"
    )
    value = prod(u0=Fraction(3), u1=Fraction(1), u2=Fraction(1), u3=Fraction(1))
    _require(value == 0, "product at u = (3,1,1,1) should vanish")
    holds, _ = cv.kummer_condition((9, 1, 1, 1))
    _require(holds, "surface condition should hold at (9,1,1,1)")
    return "sign-product identity exact in Q[u0..u3], degree 8 homogeneous"


def check_kummer_lines() -> str:
    rng = random.Random(31415)
    patterns = {
        "L1": lambda c, d: (c, c, d, d),
        "L2": lambda c, d: (c, d, c, d),
        "L3": lambda c, d: (c, d, d, c),
    }
    for line, make in patterns.items():
        for _ in range(50):
            a = make(_random_fraction(rng), _random_fraction(rng))
            holds, defect = cv.kummer_condition(a)
            _require(holds, f"line {line} point {a} off the surface (defect {defect})")
            _require(line in cv.line_membership(a), f"{a} not recognized on {line}")
    return "150 random line points satisfy the surface relation exactly"


def check_quartic_derivation() -> str:
    _require(-cv.TRIPLING_G == cv.CURVES[CurveId.D], "tripling denominator g != -D exactly")
    _require(cv.TRIPLING_F == cv.CURVES[CurveId.E], "tripling numerator f != E exactly")
    derived = cv.derive_quartics()
    for cid in cv.QUARTIC_CURVES:
        _require(derived[cid] == cv.CURVES[cid], f"derived quartic {cid} mismatch")
    return "f = E and -g = D exactly; the tripling factorizations reproduce all four quartics"


def check_uniformizations() -> str:
    for cid in cv.QUARTIC_CURVES:
        _require(cv.verify_uniformization(cid), f"uniformization of {cid} does not vanish")
    return "all four rational parametrizations annihilate their curves exactly"


# ----------------------------------------------------------------------
# orbit checks
# ----------------------------------------------------------------------

def _fraction_bfs(v: ob.RationalPair) -> set[ob.RationalPair]:
    """The orbit of v by closure under act() with the generators and their
    inverses: the reference for the closed-form listing."""
    gens = [h for g in ob.GENERATORS for h in (g, g.inverse())]
    seen, frontier = {v}, [v]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                img = ob.act(g, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def check_orbit_partitions() -> str:
    expected = {3: [4], 4: [2, 2, 2], 5: [12], 6: [4, 4, 4]}
    for N, sizes in expected.items():
        got = ob.orbit_partition(N)
        _require(got == sizes, f"partition at N={N}: got {got}, expected {sizes}")
        classes = set(ob.eligible_classes(N))
        _require(
            sum(got) == len(classes),
            f"partition at N={N} does not cover the eligible classes",
        )
        bfs_sizes = []
        while classes:
            start = min(classes)
            orbit = _fraction_bfs(start)
            _require(orbit == ob.enumerate_orbit(start),
                     f"listed orbit of {start} is not its BFS closure")
            bfs_sizes.append(len(orbit))
            classes -= orbit
        _require(
            got == sorted(bfs_sizes),
            f"partition at N={N}: got {got}, BFS orbit sizes {sorted(bfs_sizes)}",
        )
    return "partitions [4], [2,2,2], [12], [4,4,4] for N = 3, 4, 5, 6"


def check_orbit_merging() -> str:
    from math import gcd

    for N in range(2, 13):
        for M in range(1, N):
            if gcd(M, N) != 1:
                continue
            f = Fraction(M, N)
            a = ob.canonicalize((f, 0))
            b = ob.canonicalize((0, f))
            c = ob.canonicalize((f, f))
            merged = N % 2 == 1
            orbit = ob.enumerate_orbit(a)
            _require(
                ob.same_orbit(a, b) == merged and (b in orbit) == merged,
                f"(M/N, 0) vs (0, M/N) merging wrong at M/N = {M}/{N}",
            )
            _require(
                ob.same_orbit(a, c) == merged and (c in orbit) == merged,
                f"(M/N, 0) vs (M/N, M/N) merging wrong at M/N = {M}/{N}",
            )
            if merged:
                mat = ob.merging_matrix(N)
                _require(
                    ob.act(mat, a) == b,
                    f"explicit merging matrix fails at M/N = {M}/{N}",
                )
    return "standard classes merge iff N is odd, for all coprime (M, N) with N <= 12"


# ----------------------------------------------------------------------
# elliptic checks
# ----------------------------------------------------------------------

def check_elliptic_core() -> str:
    rng = random.Random(55501)
    worst = {"sum": 0.0, "ode": 0.0, "per": 0.0, "half": 0.0}
    n = 0
    while n < 50:
        tau = _random_tau(rng)
        z = _random_cell_point(rng, tau)
        if el.lattice_distance(z, tau) < 0.15 or el.lattice_distance(2 * z, tau) < 0.1:
            continue
        n += 1
        inv = el.invariants_at(tau)
        worst["sum"] = max(worst["sum"], abs(inv.e1 + inv.e2 + inv.e3))
        p = el.wp(z, tau)
        pp = el.wp_prime(z, tau)
        ode = abs(pp * pp - 4 * (p - inv.e1) * (p - inv.e2) * (p - inv.e3))
        worst["ode"] = max(worst["ode"], ode)
        worst["per"] = max(
            worst["per"], abs(el.wp(z + 1, tau) - p), abs(el.wp(z + tau, tau) - p)
        )
        es = (inv.e1, inv.e2, inv.e3)
        for k, om in enumerate(el.half_periods(tau)[1:]):
            ek = es[k]
            ei, ej = (es[m] for m in range(3) if m != k)
            rhs = ek + (ek - ei) * (ek - ej) / (p - ek)
            worst["half"] = max(worst["half"], abs(el.wp(z + om, tau) - rhs))
    _require(worst["sum"] < 1e-12, f"sum of half-period values too large: {worst['sum']:.2e}")
    _require(worst["ode"] < 1e-9, f"differential equation defect {worst['ode']:.2e}")
    _require(worst["per"] < 1e-9, f"periodicity defect {worst['per']:.2e}")
    _require(worst["half"] < 1e-9, f"half-period identity defect {worst['half']:.2e}")
    return (
        f"50 samples: |sum e| <= {worst['sum']:.1e}, ODE <= {worst['ode']:.1e}, "
        f"periodicity <= {worst['per']:.1e}, half-period <= {worst['half']:.1e}"
    )


def check_tripling() -> str:
    rng = random.Random(77702)
    worst = 0.0
    n = 0
    while n < 50:
        tau = _random_tau(rng)
        z = _random_cell_point(rng, tau)
        if el.lattice_distance(z, tau) < 0.12 or el.lattice_distance(3 * z, tau) < 0.1:
            continue
        try:
            lhs, rhs = el.triple_check(z, tau)
        except el.EllipticError:
            continue
        if max(abs(lhs), abs(rhs)) > 1e4:
            continue
        n += 1
        worst = max(worst, abs(lhs - rhs))
    _require(worst < 1e-8, f"tripling identity defect {worst:.2e}")
    third = 0.0
    sixth = 0.0
    for tau in (1j, 0.2 + 0.9j, -0.3 + 1.3j):
        t, y3 = el.picard_eval((Fraction(1, 3), Fraction(1, 3)), tau)
        third = max(third, abs(complex(cv.TRIPLING_G(y=y3, t=t))))
        t, y6 = el.picard_eval((Fraction(1, 6), 0), tau)
        sixth = max(sixth, abs(complex(cv.TRIPLING_F(y=y6, t=t))))
    _require(third < 1e-7, f"denominator does not vanish at third-order points: {third:.2e}")
    _require(sixth < 1e-7, f"numerator does not vanish at sixth-order points: {sixth:.2e}")
    return f"50 samples agree to {worst:.1e}; order-3 and order-6 loci vanish as required"


def check_reduction_identity() -> str:
    v = ob.canonicalize((Fraction(1, 4), 0))
    worst = 0.0
    for c, d in ((Fraction(1), Fraction(2)), (Fraction(3, 2), Fraction(-5, 7)),
                 (Fraction(-3, 5), Fraction(7, 2))):
        alpha = AlphaTuple(c, c, d, d)
        for tau in _FIVE_TAUS:
            worst = max(worst, abs(el.reduction_residual(alpha, v, tau)))
    _require(worst < vf.ACCEPT_TOL, f"matched four-term sum too large: {worst:.2e}")
    floor = min(
        abs(el.reduction_residual((1, 2, 3, 4), v, tau)) for tau in _FIVE_TAUS
    )
    _require(floor > vf.REJECT_TOL, f"mismatched four-term sum too small: {floor:.2e}")
    return f"matched sums <= {worst:.1e}, mismatched sums >= {floor:.1e} at 5 tau values"


# ----------------------------------------------------------------------
# ODE residual and classification checks
# ----------------------------------------------------------------------

def check_ode_residuals() -> str:
    spec = SampleSpec()
    equal = AlphaTuple(*map(Fraction, (1, 1, 1, 1)))
    matched = [
        (CurveId.A, vf.params_convert(equal)),
        (CurveId.B, vf.params_convert(equal)),
        (CurveId.C, vf.params_convert(equal)),
        (CurveId.D, PviParams(*map(Fraction, ("9/8", "-1/8", "1/8", "3/8")))),
        (CurveId.E, vf.params_convert(AlphaTuple(*map(Fraction, ("1/8", "9/8", "1/8", "1/8"))))),
        (CurveId.F, vf.params_convert(AlphaTuple(*map(Fraction, ("1/8", "1/8", "9/8", "1/8"))))),
        (CurveId.G, vf.params_convert(AlphaTuple(*map(Fraction, ("1/8", "1/8", "1/8", "9/8"))))),
    ]
    worst_pass = 0.0
    for cid, params in matched:
        rep = vf.verify_curve(cid, params, spec)
        worst_pass = max(worst_pass, rep.max_residual)
        _require(
            rep.max_residual < vf.ACCEPT_TOL,
            f"matched pair ({cid}, {list(params)}) residual {rep.max_residual:.2e}",
        )
    mismatched = [
        (CurveId.A, CANONICAL_ALPHA[CurveId.D]),
        (CurveId.D, equal),
        (CurveId.E, CANONICAL_ALPHA[CurveId.D]),
        (CurveId.B, CANONICAL_ALPHA[CurveId.A]),
        (CurveId.G, AlphaTuple(*map(Fraction, (1, 2, 3, 4)))),
        (CurveId.C, CANONICAL_ALPHA[CurveId.B]),
    ]
    worst_fail = float("inf")
    for cid, alpha in mismatched:
        rep = vf.verify_curve(cid, vf.params_convert(alpha), spec)
        worst_fail = min(worst_fail, rep.max_residual)
        _require(
            rep.max_residual > vf.REJECT_TOL,
            f"control pair ({cid}, {list(alpha)}) residual {rep.max_residual:.2e} too small",
        )
    return f"7 matched pairings <= {worst_pass:.1e}; 6 controls >= {worst_fail:.1e}"


def check_classification() -> str:
    expected = {
        (0, 0, 0, 0): ("picard_family", ()),
        (1, 1, 2, 2): ("finite_list", (CurveId.A,)),
        (1, 2, 1, 2): ("finite_list", (CurveId.B,)),
        (1, 2, 2, 1): ("finite_list", (CurveId.C,)),
        (9, 1, 1, 1): ("finite_list", (CurveId.D,)),
        (1, 9, 1, 1): ("finite_list", (CurveId.E,)),
        (1, 1, 9, 1): ("finite_list", (CurveId.F,)),
        (1, 1, 1, 9): ("finite_list", (CurveId.G,)),
        (1, 2, 3, 4): ("empty", ()),
    }
    for alpha, (kind, curves_) in expected.items():
        result = vf.classify(alpha)
        _require(
            (result.kind, result.curves) == (kind, curves_),
            f"classify{alpha} = ({result.kind}, {result.curves}), expected ({kind}, {curves_})",
        )
        verified = vf.classify(alpha, verify=alpha != (0, 0, 0, 0))
        _require(verified.curves == curves_, f"verified classification changed at {alpha}")
    alleq = vf.classify((1, 1, 1, 1), verify=True)
    _require(
        alleq.curves == (CurveId.A, CurveId.B, CurveId.C),
        f"all-equal parameters should list A, B, C, got {alleq.curves}",
    )
    return "9 canonical inputs plus the all-equal point match, with numeric cross-check"


def check_picard_curve_consistency() -> str:
    v = ob.canonicalize((Fraction(1, 4), 0))
    alpha = CANONICAL_ALPHA[CurveId.A]
    master = cv.master_poly(alpha)
    curve = cv.CURVES[CurveId.A]
    worst_curve = 0.0
    worst_master = 0.0
    worst_residual = 0.0
    for tau in _FIVE_TAUS:
        t, y = el.picard_eval(v, tau)
        worst_curve = max(worst_curve, abs(complex(curve(y=y, t=t))))
        worst_master = max(worst_master, abs(complex(master(y=y, t=t))))
        worst_residual = max(worst_residual, abs(el.reduction_residual(alpha, v, tau)))
    _require(worst_curve < 1e-6, f"points leave the curve: {worst_curve:.2e}")
    _require(worst_master < 1e-6, f"points leave the sextic: {worst_master:.2e}")
    _require(worst_residual < vf.ACCEPT_TOL, f"four-term sum nonzero: {worst_residual:.2e}")
    return (
        f"5 tau values: curve <= {worst_curve:.1e}, sextic <= {worst_master:.1e}, "
        f"derivative sum <= {worst_residual:.1e}"
    )


CHECKS: tuple[tuple[str, object], ...] = (
    ("three-factor-identity", check_three_factor_identity),
    ("vanishing-a3-cofactor", check_vanishing_a3_cofactor),
    ("kummer-equivalence", check_kummer_equivalence),
    ("kummer-lines", check_kummer_lines),
    ("quartic-derivation", check_quartic_derivation),
    ("uniformizations", check_uniformizations),
    ("orbit-partitions", check_orbit_partitions),
    ("orbit-merging", check_orbit_merging),
    ("elliptic-core", check_elliptic_core),
    ("tripling", check_tripling),
    ("reduction-identity", check_reduction_identity),
    ("ode-residuals", check_ode_residuals),
    ("classification", check_classification),
    ("picard-curve-consistency", check_picard_curve_consistency),
)


def run_check(name: str, func) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except Exception as exc:  # a failing check must not abort the whole run
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CheckResult(name=name, passed=passed, detail=detail,
                       seconds=time.perf_counter() - start)


def run_all() -> list[CheckResult]:
    return [run_check(name, func) for name, func in CHECKS]
