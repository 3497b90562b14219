"""The four workloads: seeded inputs, the operation each input drives, and its check.

Every workload is a fixed list of operations (one "pass") built from the
seed.  The timed loop repeats whole passes, so every run has the same mix of
operation kinds and input sizes whatever the seed; the seed picks the
concrete classes, parameters, words and tau values.  Each check compares
against `oracle` (the paper), never against pvi itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle
from spans import band


class Wrong(Exception):
    """The program answered, but not what the paper says."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


@dataclass
class Op:
    """One operation of a pass: `run` is timed, `check` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, Counter], None]
    band: Optional[str] = None  # low_im / high_im for operations that take a tau
    refusable: bool = False  # a named EllipticError is an allowed outcome


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scaled(alpha, k) -> tuple[Fraction, ...]:
    return tuple(Fraction(a) * k for a in alpha)


def _random_scale(rng) -> Fraction:
    return Fraction(rng.randint(1, 7), rng.randint(1, 4))


def _off_pattern(rng) -> tuple[Fraction, ...]:
    while True:
        alpha = tuple(Fraction(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(4))
        if any(alpha) and not oracle.curves_for(alpha):
            return alpha


def _on_pattern(rng) -> tuple[tuple[Fraction, ...], list[str]]:
    """A parameter point on some curve's pattern (the all-equal point lists A, B, C)."""
    name = rng.choice(oracle.CURVE_NAMES + ("ABC",))
    k = _random_scale(rng)
    alpha = (k, k, k, k) if name == "ABC" else _scaled(oracle.CANONICAL_ALPHA[name], k)
    return alpha, oracle.curves_for(alpha)


def _holds(what: str):
    """Check for an operation that returns True when an identity holds."""
    return lambda got, counters: expect(got is True, f"{what} does not hold")


SKIP_REASONS = {
    "degenerate polynomial": "degenerate",
    "root polishing failed": "polish_failed",
    "y in {0, 1, t}": "excluded_point",
    "singular point (dP/dy ~ 0)": "singular",
}


def _count_report(counters: Counter, report: dict) -> None:
    """Sample, skip and margin counts of one residual report (its JSON form)."""
    counters["verifier.samples"] += len(report["samples"])
    counters["verifier.skipped"] += len(report["skipped"])
    for skip in report["skipped"]:
        if skip["reason"] in SKIP_REASONS:
            counters["verifier.skip." + SKIP_REASONS[skip["reason"]]] += 1
    worst = report["max_residual"]
    if report["verdict"] == "pass":
        margin = math.log10(oracle.ACCEPT_TOL / worst) if worst > 0 else 99.0
    else:
        margin = math.log10(worst / oracle.REJECT_TOL)
    counters["verifier.reports"] += 1
    prev = counters.get("verifier.min_margin_decades")
    if prev is None or margin < prev:
        counters["verifier.min_margin_decades"] = margin


# ----------------------------------------------------------------------
# orbit-queries
# ----------------------------------------------------------------------

# Denominators from 3 up to the largest level whose single BFS stays near
# 0.6 s; odd levels stop lower because their one orbit is three times larger.
ORBIT_LEVELS = (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24, 27, 32, 35, 40,
                45, 48, 60, 64, 96, 160)
PARTITION_LEVELS = (5, 6, 8, 10, 12, 16, 20, 24)


def build_orbit_queries(rng: random.Random) -> list[Op]:
    from pvi import orbits as ob
    from pvi import verifier as vf

    def cls(level, par=None):
        m, n = oracle.random_class(rng, level, par)
        return ob.canonicalize((Fraction(m, level), Fraction(n, level))), oracle.parity(m, n)

    ops = []
    for i, level in enumerate(ORBIT_LEVELS):
        v, par = cls(level)

        def check_orbit(orbit, counters, v=v, level=level):
            counters["orbits.classes_returned"] += len(orbit)
            expect(len(orbit) == oracle.orbit_sizes(level)[0],
                   f"orbit of {v} has {len(orbit)} classes, expected {oracle.orbit_sizes(level)[0]}")
            expect(v in orbit, f"orbit of {v} misses its start")
            expect(all(w.denominator == level for w in orbit), f"orbit of {v} leaves level {level}")

        ops.append(Op("enumerate_orbit", lambda v=v: ob.enumerate_orbit(v), check_orbit))

        case = rng.choice(("same", "other-parity", "other-level"))
        level2, par2 = level, par
        if case == "other-level":
            level2 = ORBIT_LEVELS[i + 1 if i + 1 < len(ORBIT_LEVELS) else i - 1]
            par2 = None
        elif case == "other-parity" and level % 2 == 0:
            par2 = rng.choice([p for p in (("odd", "even"), ("even", "odd"), ("odd", "odd"))
                               if p != par])
        w, par2 = cls(level2, par2)
        want = oracle.same_orbit(level, par, level2, par2)

        def check_same(got, counters, v=v, w=w, want=want):
            expect(got is want, f"same_orbit({v}, {w}) = {got}, expected {want}")

        ops.append(Op("same_orbit", lambda v=v, w=w: ob.same_orbit(v, w), check_same))

        want = oracle.orbit_curve(level, par)

        def check_curve(got, counters, v=v, want=want):
            got = got.value if got is not None else None
            expect(got == want, f"orbit_to_curve({v}) = {got}, expected {want}")

        ops.append(Op("orbit_to_curve", lambda v=v: vf.orbit_to_curve(v), check_curve))

        u, upar = cls(level)

        def check_standard(sf, counters, u=u, level=level, upar=upar):
            expect(sf.N == level, f"standard_form({u}).N = {sf.N}, expected {level}")
            expect(math.gcd(sf.M, sf.N) == 1 and math.gcd(sf.m, sf.n) == 1,
                   f"standard_form({u}) is not reduced")
            expect((Fraction(sf.m * sf.M, sf.N), Fraction(sf.n * sf.M, sf.N)) == (u.mu, u.nu),
                   f"standard_form({u}) does not reproduce the class")
            spar = oracle.parity(sf.m, sf.n)
            expect(level % 2 == 1 or spar == upar, f"standard_form({u}) changed the parity class")
            pm, pn = oracle.standard_parity_rep(spar)
            rep = oracle.canonical_pair(Fraction(pm * sf.M, sf.N), Fraction(pn * sf.M, sf.N))
            expect((sf.standard.mu, sf.standard.nu) == rep,
                   f"standard_form({u}).standard = {sf.standard}, expected {rep}")

        ops.append(Op("standard_form", lambda u=u: ob.standard_form(u), check_standard))

    for level in PARTITION_LEVELS:
        def check_partition(got, counters, level=level):
            expect(got == oracle.orbit_sizes(level),
                   f"orbit_partition({level}) = {got}, expected {oracle.orbit_sizes(level)}")

        ops.append(Op("orbit_partition", lambda level=level: ob.orbit_partition(level),
                      check_partition))
    return ops


# ----------------------------------------------------------------------
# exact-algebra
# ----------------------------------------------------------------------

_ROUNDTRIP_VARS = ("y", "t", "z", "a0", "u1")
EXACT_REPEAT = 3  # copies of the operation mix per pass, each with its own inputs


def _random_poly_text(rng, n_terms: int) -> str:
    """A polynomial text of fixed shape: the seed picks names, coefficients and signs only."""
    parts = []
    for j in range(n_terms):
        coef = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        first, second = rng.sample(_ROUNDTRIP_VARS, 2)
        mono = [f"{first}^{1 + j % 4}", f"{second}^{1 + (j + 1) % 4}"]
        sign = rng.choice("+-")
        parts.append(f"{sign} " + "*".join([_frac(coef)] + mono))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def build_exact_algebra(rng: random.Random) -> list[Op]:
    from pvi import curves as cv
    from pvi.curves import CurveId
    from pvi.multipoly import MultiPoly

    Y, T = MultiPoly.variable("y"), MultiPoly.variable("t")
    paper = {name: MultiPoly.parse(text) for name, text in oracle.CURVE_TEXT.items()}
    abc = paper["A"] * paper["B"] * paper["C"]
    ops = []

    for _ in range(3 * EXACT_REPEAT):
        k = _random_scale(rng)
        ops.append(Op("master_abc", lambda k=k: cv.master_poly((k, k, k, k)) == k * abc,
                      _holds(f"master_poly({k},..) == {k}*A*B*C")))
        a = (rng.choice([x for x in range(-5, 8) if x]), rng.randint(-5, 7), rng.randint(-5, 7))
        ops.append(Op("master_p0", lambda a=a: cv.master_poly((*a, 0)) == (Y - T) ** 2 * cv.p0_poly(a),
                      _holds(f"master_poly({a}, 0) == (y-t)^2 p0")))

    for line in ("L1", "L2", "L3") * 2 * EXACT_REPEAT:
        on, off = oracle.line_point(rng, line), _off_pattern(rng)

        def check_kummer(got, counters, on=on, off=off):
            expect(got[0] == (True, 0), f"kummer_condition{on} = {got[0]}, expected (True, 0)")
            want = oracle.kummer_defect(off)
            expect(got[1] == (want == 0, want), f"kummer_condition{off} = {got[1]}, expected defect {want}")

        ops.append(Op("kummer_condition",
                      lambda on=on, off=off: (cv.kummer_condition(on), cv.kummer_condition(off)),
                      check_kummer))

    for _ in range(2 * EXACT_REPEAT):
        u = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))

        def check_product(got, counters, u=u):
            want = oracle.kummer_defect([x * x for x in u])
            expect(got == want, f"signed product at u = {u} is {got}, expected {want}")

        ops.append(Op("signed_sum_product",
                      lambda u=u: cv.signed_sum_product()(**{f"u{i}": x for i, x in enumerate(u)}),
                      check_product))

    def check_quartics(got, counters):
        for name in oracle.QUARTICS:
            expect(oracle.poly_terms(str(got[CurveId(name)])) == oracle.CURVE_TERMS[name],
                   f"derived curve {name} = {got[CurveId(name)]}, expected {oracle.CURVE_TEXT[name]}")

    for _ in range(EXACT_REPEAT):
        ops.append(Op("verify_kummer_equivalence", lambda: cv.verify_kummer_equivalence(),
                      _holds("Kummer equivalence")))
        ops.append(Op("derive_quartics", lambda: cv.derive_quartics(), check_quartics))
        for name in oracle.QUARTICS:
            ops.append(Op("verify_uniformization",
                          lambda name=name: cv.verify_uniformization(CurveId(name)),
                          _holds(f"uniformization of {name}")))

    for length, family in zip((1, 2, 3, 4) * 2 * EXACT_REPEAT,
                              (("ABC",) * 4 + ("DEFG",) * 4) * EXACT_REPEAT):
        # s1 costs about twice s2 or s3, so every word of one length holds as
        # many s1 and the seed does not move the pass's cost.
        name = rng.choice(family)
        word = ["s1"] * ((length + 1) // 2) + [rng.choice(("s2", "s3")) for _ in range(length // 2)]
        rng.shuffle(word)
        want = oracle.symmetry_image(name, word)

        def check_symmetry(got, counters, name=name, word=word, want=want):
            got = got.value if got is not None else None
            expect(got == want, f"{' '.join(word)} applied to {name} gives {got}, expected {want}")

        ops.append(Op(
            "apply_symmetry",
            lambda name=name, word=word: cv.identify_curve(
                cv.apply_symmetry(cv.CURVES[CurveId(name)], " ".join(word))),
            check_symmetry,
        ))

    for _ in range(6 * EXACT_REPEAT):
        a = (rng.choice([x for x in range(-6, 7) if x]), rng.randint(-6, 6), rng.randint(-6, 6))
        poly = cv.p0_poly(a)

        def check_irreducible(res, counters, a=a, poly=poly):
            counters[f"curves.is_irreducible.{res.status}"] += 1
            if res.status == "reducible":
                w = res.witness
                q = poly.try_divide(w)
                expect(q is not None and w.total_degree() >= 1 and q.total_degree() >= 1,
                       f"witness {w} is not a proper factor of p0{a}")
                for point in ({"y": 3, "t": 5}, {"y": Fraction(-2, 7), "t": 11}):
                    lhs = oracle.eval_multipoly_terms(poly.vars, poly.terms, point)
                    rhs = (oracle.eval_multipoly_terms(w.vars, w.terms, point)
                           * oracle.eval_multipoly_terms(q.vars, q.terms, point))
                    expect(lhs == rhs, f"witness {w} times cofactor is not p0{a}")
            elif res.status == "irreducible":
                t0, prime = res.certificate
                coeffs = [oracle.mod_p(c, prime) for c in oracle.p0_y_coefficients(*a, t0)]
                expect(None not in coeffs and coeffs[-1] != 0,
                       f"certificate {res.certificate} for p0{a} drops the y-degree")
                expect(oracle.fp_irreducible(coeffs, prime),
                       f"certificate {res.certificate} for p0{a} is reducible mod {prime}")

        ops.append(Op("is_irreducible", lambda poly=poly: cv.is_irreducible(poly), check_irreducible))

    for i in range(8 * EXACT_REPEAT):
        text = _random_poly_text(rng, 3 + i % 5)
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in _ROUNDTRIP_VARS}

        def roundtrip(text=text, point=point):
            p = MultiPoly.parse(text)
            s = str(p)
            q = MultiPoly.parse(s)
            return p == q, s, str(q), q(**point)

        def check_roundtrip(got, counters, text=text, point=point):
            same, s1, s2, value = got
            expect(same and s1 == s2, f"parse/str round trip of {text!r} is not stable")
            want = oracle.eval_terms(oracle.poly_terms(text), **point)
            expect(value == want, f"{text!r} at {point} = {value}, expected {want}")

        ops.append(Op("parse_str", roundtrip, check_roundtrip))
    return ops


# ----------------------------------------------------------------------
# numeric-certify
# ----------------------------------------------------------------------

IM_TAU_FLOOR = 0.1  # the elliptic layer's documented precision floor
# Between the floor and NEAR_FLOOR_TOP pvi sometimes answers wrongly without
# raising, near a cusp (Re tau close to an integer): a Picard point off its
# curve, a matched residual above ACCEPT_TOL (seen up to Im tau = 0.2044), a
# mismatched one below REJECT_TOL, unequal tripling sides.  Of 200 000 seeded
# operations with Im tau in [0.25, 0.35), none was wrong or refused.  A timed
# run must pass every check at each commit it compares, so the loop serves tau
# from NEAR_FLOOR_TOP up, and the near-floor probe checks the band once per run
# and reports each wrong answer.  ROADMAP item 5 (modular reduction) is the fix.
NEAR_FLOOR_TOP = 0.25
ELLIPTIC_KINDS = ("picard_curve", "residual_matched", "residual_mismatched", "triple_check")
SERVED_PER_KIND = 22  # log-spread over [NEAR_FLOOR_TOP, 3)
BELOW_FLOOR_PER_KIND = 2  # log-spread over [0.03, IM_TAU_FLOOR): a fixed 1/12 share
PROBES_PER_KIND = 25  # log-spread over [IM_TAU_FLOOR, NEAR_FLOOR_TOP), untimed


def _log_strata(rng, n: int, lo: float, hi: float) -> list[float]:
    """One log-uniform value in each of n equal log-width strata of [lo, hi)."""
    return [math.exp(math.log(lo) + (k + rng.random()) / n * math.log(hi / lo)) for k in range(n)]


def _taus(rng, ims) -> list[complex]:
    """Re tau over three periods around 0."""
    return [complex(rng.uniform(-3.0, 3.0), im) for im in ims]


def _cell_point(rng, tau: complex) -> complex:
    """A point a + b*tau whose triple 3z stays clear of the lattice."""
    a = rng.uniform(0.06, 0.27) * rng.choice((1, -1))
    b = rng.uniform(0.06, 0.27) * rng.choice((1, -1))
    return a + b * tau


def _picard_class(rng):
    from pvi import orbits as ob

    level = rng.choice((3, 4, 6))
    m, n = oracle.random_class(rng, level)
    v = ob.canonicalize((Fraction(m, level), Fraction(n, level)))
    return v, oracle.orbit_curve(level, oracle.parity(m, n))


def _matched_alpha(rng, curve):
    if curve in ("A", "B", "C"):  # the pattern leaves two free values
        c, d = (Fraction(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(2))
        return {"A": (c, c, d, d), "B": (c, d, c, d), "C": (c, d, d, c)}[curve]
    return _scaled(oracle.CANONICAL_ALPHA[curve], _random_scale(rng))


def _mismatched_alpha(rng, curve):
    other = rng.choice([c for c in oracle.CURVE_NAMES if c != curve and not
                        (curve in "ABC" and c in "ABC")])
    return _scaled(oracle.CANONICAL_ALPHA[other], _random_scale(rng))


def _elliptic_ops(rng, bands) -> list[Op]:
    """Every elliptic operation kind at its own log-spread tau in each band.

    `bands` lists (count, lo, hi): each kind gets `count` values of Im tau,
    one in each equal log-width stratum of [lo, hi).
    """
    from pvi import curves as cv
    from pvi import elliptic as el
    from pvi.curves import CurveId
    from pvi.elliptic import AlphaTuple

    ops = []
    for kind in ELLIPTIC_KINDS:
        ims = [im for count, lo, hi in bands for im in _log_strata(rng, count, lo, hi)]
        for tau in _taus(rng, ims):
            v, curve = _picard_class(rng)
            # Only below the floor is a named EllipticError an allowed outcome.
            common = dict(band=band(tau), refusable=tau.imag < IM_TAU_FLOOR)
            if kind == "picard_curve":
                def run(v=v, tau=tau, curve=curve):
                    t, y = el.picard_eval(v, tau)
                    return t, y, complex(cv.CURVES[CurveId(curve)](y=y, t=t))

                def check(got, counters, v=v, tau=tau, curve=curve):
                    # |t| reaches 1e5 near Im tau = 0.19, so the bound is relative
                    # to the size of P's terms there, and 1e-6 absolute for O(1) points.
                    t, y, value = got
                    own = oracle.curve_value(curve, y, t)
                    tol = 1e-6 * max(1.0, oracle.curve_scale(curve, y, t))
                    expect(abs(value) < tol and abs(own) < tol,
                           f"Picard point of {v} at tau={tau} is off curve {curve}: "
                           f"|P| = {abs(own):.2e}")

                ops.append(Op(kind, run, check, **common))
            elif kind in ("residual_matched", "residual_mismatched"):
                matched = kind == "residual_matched"
                alpha = AlphaTuple(*(_matched_alpha(rng, curve) if matched
                                     else _mismatched_alpha(rng, curve)))

                def check(got, counters, v=v, tau=tau, alpha=alpha, matched=matched):
                    if matched:
                        expect(abs(got) < oracle.ACCEPT_TOL,
                               f"matched residual {abs(got):.2e} at {v}, {list(alpha)}, tau={tau}")
                    else:
                        expect(abs(got) > oracle.REJECT_TOL,
                               f"mismatched residual {abs(got):.2e} at {v}, {list(alpha)}, tau={tau}")

                ops.append(Op(kind, lambda v=v, tau=tau, alpha=alpha:
                              el.reduction_residual(alpha, v, tau), check, **common))
            else:
                z = _cell_point(rng, tau)

                def check(got, counters, z=z, tau=tau):
                    lhs, rhs = got
                    expect(abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs)),
                           f"tripling sides differ by {abs(lhs - rhs):.2e} at z={z}, tau={tau}")

                ops.append(Op(kind, lambda z=z, tau=tau: el.triple_check(z, tau), check, **common))
    return ops


def build_numeric_certify(rng: random.Random) -> list[Op]:
    from pvi import verifier as vf
    from pvi.curves import CurveId
    from pvi.elliptic import AlphaTuple

    ops = _elliptic_ops(rng, [(BELOW_FLOOR_PER_KIND, 0.03, IM_TAU_FLOOR),
                              (SERVED_PER_KIND, NEAR_FLOOR_TOP, 3.0)])

    for i, curve in enumerate(oracle.CURVE_NAMES * 4):  # each curve matched and mismatched, twice
        matched = i % 2 == 0
        alpha = AlphaTuple(*(_matched_alpha(rng, curve) if matched
                             else _mismatched_alpha(rng, curve)))
        params = vf.params_convert(alpha)

        def check_verify(rep, counters, curve=curve, alpha=alpha, matched=matched):
            _count_report(counters, rep.to_json_dict())
            want = "pass" if matched else "fail"
            expect(rep.verdict() == want,
                   f"verify_curve({curve}, {list(alpha)}) = {rep.verdict()} "
                   f"(max {rep.max_residual:.2e}), expected {want}")

        ops.append(Op("verify_curve", lambda curve=curve, params=params:
                      vf.verify_curve(CurveId(curve), params), check_verify))

    for i in range(8):
        alpha, want = _on_pattern(rng) if i % 2 == 0 else (_off_pattern(rng), [])

        def check_classify(res, counters, alpha=alpha, want=want):
            for rep in res.reports.values():
                _count_report(counters, rep.to_json_dict())
            got = [c.value for c in res.curves]
            expect(got == want, f"classify({list(alpha)}) = {got}, expected {want}")
            expect(res.kind == ("finite_list" if want else "empty"),
                   f"classify({list(alpha)}) kind {res.kind}")

        ops.append(Op("classify", lambda alpha=alpha: vf.classify(alpha, verify=True),
                      check_classify))
    return ops


def build_near_floor_probe(rng: random.Random) -> list[Op]:
    """Elliptic operations with Im tau in [IM_TAU_FLOOR, NEAR_FLOOR_TOP), run once each, untimed."""
    return _elliptic_ops(rng, [(PROBES_PER_KIND, IM_TAU_FLOOR, NEAR_FLOOR_TOP)])


# ----------------------------------------------------------------------
# cli-session
# ----------------------------------------------------------------------

def _alpha_arg(alpha) -> str:
    return ",".join(_frac(Fraction(a)) for a in alpha)


def _json_payload(out, command: str) -> dict:
    expect(out.returncode in (0, 1), f"{command}: exit {out.returncode}: {out.stderr.strip()[:200]}")
    body = json.loads(out.stdout)
    expect(body.get("schema_version") == "1", f"{command}: schema_version {body.get('schema_version')!r}")
    expect(body.get("command") == command, f"{command}: command field {body.get('command')!r}")
    return body


def _exit(out, code: int, what: str) -> None:
    expect(out.returncode == code,
           f"{what}: exit {out.returncode}, expected {code}: {out.stderr.strip()[:200]}")


CLI_BLOCKS = 3  # blocks of twelve commands per pass, each with its own inputs
CLI_REPEATS = 3  # runs of each block per pass: 108 commands, ten beyond p90


def build_cli_session(rng: random.Random, runner) -> list[Op]:
    """One pass: every block of commands, each run CLI_REPEATS times."""
    seen: dict[tuple, str] = {}  # first stdout of each command line
    blocks = [_cli_block(rng, runner, seen) for _ in range(CLI_BLOCKS)]
    return [op for block in blocks for op in block] * CLI_REPEATS


def _cli_block(rng: random.Random, runner, seen: dict) -> list[Op]:
    """Twelve commands covering every subcommand except selftest."""

    def op(kind, argv, check):
        argv = tuple(argv)

        def checked(out, counters):
            first = seen.setdefault(argv, out.stdout)
            expect(out.stdout == first, f"pvi {' '.join(argv)}: stdout differs from its first run")
            check(out, counters)

        return Op(kind, lambda: runner(argv), checked)

    ops = []
    ops.append(op("version", ["--version"], lambda out, c: (
        _exit(out, 0, "--version"),
        expect(out.stdout.startswith("pvi ") and out.stdout.count(".") == 2, f"version {out.stdout!r}"))))

    alpha, want = _on_pattern(rng)

    def check_classify_verify(out, counters, want=want):
        _exit(out, 0, "classify --verify")
        body = _json_payload(out, "classify")
        expect(body["curves"] == want, f"classify --verify curves {body['curves']}, expected {want}")
        for name, rep in body["reports"].items():
            _count_report(counters, rep)
            expect(rep["verdict"] == ("pass" if name in want else "fail"),
                   f"classify --verify report {name}: {rep['verdict']}")

    ops.append(op("classify", ["classify", "--alpha=" + _alpha_arg(alpha), "--verify"],
                  check_classify_verify))

    alpha = _off_pattern(rng) if rng.random() < 0.5 else _on_pattern(rng)[0]
    want = oracle.curves_for(alpha)

    def check_classify(out, counters, want=want):
        _exit(out, 0, "classify")
        body = _json_payload(out, "classify")
        expect(body["curves"] == want and body["kind"] == ("finite_list" if want else "empty"),
               f"classify curves {body['curves']}, expected {want}")

    ops.append(op("classify", ["classify", "--alpha=" + _alpha_arg(alpha)], check_classify))

    curve = rng.choice(oracle.CURVE_NAMES)
    alpha = _scaled(oracle.CANONICAL_ALPHA[curve], _random_scale(rng))

    def check_verify_json(out, counters):
        _exit(out, 0, "verify")
        rep = _json_payload(out, "verify")
        _count_report(counters, rep)
        expect(rep["verdict"] == "pass", f"verify verdict {rep['verdict']}")

    ops.append(op("verify", ["verify", "--curve", curve, "--alpha=" + _alpha_arg(alpha)],
                  check_verify_json))

    other = rng.choice([c for c in "DEFG" if c != curve])

    def check_verify_csv(out, counters):
        _exit(out, 1, "verify --format csv (mismatched)")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        expect(rows and rows[0] == ["t_re", "t_im", "y_re", "y_im", "residual"] and len(rows) > 1,
               "verify csv header or rows missing")
        expect(max(float(r[4]) for r in rows[1:]) > oracle.REJECT_TOL, "mismatched csv residuals too small")

    ops.append(op("verify", ["verify", "--curve", other, "--alpha=" + _alpha_arg(alpha), "--format", "csv"],
                  check_verify_csv))

    def check_verify_poly(out, counters):
        _exit(out, 0, "verify --poly")
        rep = _json_payload(out, "verify")
        expect(rep["curve"] is None and rep["verdict"] == "pass", f"verify --poly verdict {rep['verdict']}")

    ops.append(op("verify", ["verify", "--poly", oracle.CURVE_TEXT[curve], "--alpha=" + _alpha_arg(alpha)],
                  check_verify_poly))

    level = rng.choice((3, 4, 6))
    m, n = oracle.random_class(rng, level)
    want_curve = oracle.orbit_curve(level, oracle.parity(m, n))
    tau = (round(rng.uniform(-1, 1), 3), round(rng.uniform(0.5, 2.0), 3))

    def check_picard(out, counters, want_curve=want_curve):
        _exit(out, 0, "eval-picard")
        body = _json_payload(out, "eval-picard")
        expect(body["curve"] == want_curve, f"eval-picard curve {body['curve']}, expected {want_curve}")
        expect(body["curve_residual"] < 1e-6 and body["master_residual"] < 1e-6,
               f"eval-picard residuals {body['curve_residual']}, {body['master_residual']}")

    ops.append(op("eval-picard", ["eval-picard", "--mu", f"{m}/{level}", "--nu", f"{n}/{level}",
                                  "--tau-re", str(tau[0]), "--tau-im", str(tau[1])], check_picard))

    level = rng.randint(3, 12)
    m, n = oracle.random_class(rng, level)
    want_curve = oracle.orbit_curve(level, oracle.parity(m, n))

    def check_orbit(out, counters, level=level, want_curve=want_curve):
        _exit(out, 0, "orbit --mu/--nu")
        body = _json_payload(out, "orbit")
        expect(body["size"] == oracle.orbit_sizes(level)[0] == len(body["orbit"]),
               f"orbit size {body['size']} at level {level}")
        expect(body["standard_form"]["N"] == level and body["curve"] == want_curve,
               f"orbit level {body['standard_form']['N']} curve {body['curve']}")

    ops.append(op("orbit", ["orbit", "--mu", f"{m}/{level}", "--nu", f"{n}/{level}"], check_orbit))

    # One small and one large level, so the seed barely moves the pass's cost.
    for level in (rng.randint(3, 12), rng.randint(20, 24)):
        def check_partition(out, counters, level=level):
            _exit(out, 0, "orbit --denominator")
            body = _json_payload(out, "orbit")
            expect(body["partition"] == oracle.orbit_sizes(level),
                   f"partition {body['partition']} at {level}")
            expect(body["class_count"] == oracle.class_count(level),
                   f"class count {body['class_count']}")

        ops.append(op("orbit", ["orbit", "--denominator", str(level)], check_partition))

    def check_derive(out, counters):
        _exit(out, 0, "derive-quartics")
        body = _json_payload(out, "derive-quartics")
        expect(body["matches_canonical"] is True, "derive-quartics does not match")
        for name in oracle.QUARTICS:
            expect(oracle.poly_terms(body["curves"][name]) == oracle.CURVE_TERMS[name],
                   f"derive-quartics curve {name} = {body['curves'][name]}")

    ops.append(op("derive-quartics", ["derive-quartics"], check_derive))

    half = rng.choice(("1/2", "0"))

    def check_usage(out, counters):
        _exit(out, 2, "orbit of a half-integer class")
        expect(out.stdout == "" and out.stderr.startswith("usage error"), "usage error message missing")

    ops.append(op("orbit", ["orbit", "--mu", half, "--nu", "1/2"], check_usage))
    return ops


BUILDERS = {
    "orbit-queries": build_orbit_queries,
    "exact-algebra": build_exact_algebra,
    "numeric-certify": build_numeric_certify,
}
PROBES = {"numeric-certify": build_near_floor_probe}
