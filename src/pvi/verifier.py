"""Certification of algebraic candidate curves against the sixth Painleve ODE.

A curve P(y, t) = 0 defines local solution branches wherever dP/dy does not
vanish; implicit differentiation turns a numerical root y of P(., t) into a
2-jet (y, y', y''), and the jet is fed into the ODE.  Matched (curve,
parameter) pairs produce residuals at rounding level, mismatched pairs
produce residuals many orders of magnitude larger, so an accept threshold
of 1e-8 and a reject threshold of 1e-3 separate them with a loud error in
the inconclusive gap.

The rule-based classification (which curves solve the equation for given
parameters) reads the patterns of :data:`pvi.curves.CURVE_TABLE` exactly;
``classify(..., verify=True)`` cross-checks every rule decision numerically.
"""

from __future__ import annotations

import cmath
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .curves import CURVE_TABLE, CURVES, CurveId, pattern_curves
from .elliptic import AlphaTuple
from .multipoly import MultiPoly
from .orbits import RationalPair, canonicalize, format_rational, orbit_key

ACCEPT_TOL = 1e-8
REJECT_TOL = 1e-3


class SingularPointError(ValueError):
    """Implicit differentiation attempted where dP/dy vanishes."""


class ExcludedPointError(ValueError):
    """Jet evaluation at t in {0, 1} or y in {0, 1, t}."""


class NoValidSamplesError(RuntimeError):
    """Every sample of a residual run was skipped."""


class VerificationError(RuntimeError):
    """Numeric cross-check could not confirm the rule-based classification."""


@dataclass(frozen=True)
class PviParams:
    """Parameters (alpha, beta, gamma, delta) of the standard form of the ODE.

    Exact rationals by default; complex values are accepted for purely
    numeric evaluation paths.
    """

    alpha: Union[Fraction, complex]
    beta: Union[Fraction, complex]
    gamma: Union[Fraction, complex]
    delta: Union[Fraction, complex]

    def __iter__(self):
        return iter((self.alpha, self.beta, self.gamma, self.delta))

    @classmethod
    def from_strings(cls, parts: Sequence[str]) -> "PviParams":
        if len(parts) != 4:
            raise ValueError("expected four comma-separated rationals")
        return cls(*(Fraction(p) for p in parts))

    def as_complex(self) -> tuple[complex, complex, complex, complex]:
        return tuple(complex(x) for x in self)


def params_convert(x: Union[PviParams, AlphaTuple]) -> Union[AlphaTuple, PviParams]:
    """Exact bijection (alpha, beta, gamma, delta) <-> (a0, a1, a2, a3).

    a0 = alpha, a1 = -beta, a2 = gamma, a3 = 1/2 - delta; applying the
    conversion twice returns the starting value.
    """
    half = Fraction(1, 2)
    if isinstance(x, PviParams):
        return AlphaTuple(x.alpha, -x.beta, x.gamma, half - x.delta)
    if isinstance(x, AlphaTuple):
        return PviParams(x.a0, -x.a1, x.a2, half - x.a3)
    raise TypeError(f"expected PviParams or AlphaTuple, got {type(x).__name__}")


def coerce_alpha(alpha: Union[AlphaTuple, PviParams, Sequence]) -> AlphaTuple:
    if isinstance(alpha, AlphaTuple):
        return alpha
    if isinstance(alpha, PviParams):
        return params_convert(alpha)
    vals = list(alpha)
    if len(vals) != 4:
        raise ValueError("alpha must have four components")
    return AlphaTuple(*(Fraction(v) for v in vals))


# ----------------------------------------------------------------------
# jets and the ODE residual
# ----------------------------------------------------------------------

class _Compiled:
    """Numeric form of a polynomial in (y, t): term lists for P and partials."""

    __slots__ = ("terms", "dy", "dt", "dyy", "dyt", "dtt", "ydeg")

    def __init__(self, poly: MultiPoly):
        if not set(poly.vars) <= {"y", "t"}:
            raise ValueError(f"curve polynomial must involve only (y, t), got {poly.vars}")
        self.terms = self._terms(poly)
        self.dy = self._terms(poly.derivative("y"))
        self.dt = self._terms(poly.derivative("t"))
        self.dyy = self._terms(poly.derivative("y").derivative("y"))
        self.dyt = self._terms(poly.derivative("y").derivative("t"))
        self.dtt = self._terms(poly.derivative("t").derivative("t"))
        self.ydeg = poly.degree_in("y")

    @staticmethod
    def _terms(poly: MultiPoly) -> list[tuple[int, int, complex]]:
        iy = poly.vars.index("y") if "y" in poly.vars else None
        it = poly.vars.index("t") if "t" in poly.vars else None
        out = []
        for exps, coef in poly.terms.items():
            out.append(
                (exps[iy] if iy is not None else 0,
                 exps[it] if it is not None else 0,
                 complex(coef))
            )
        return out

    @staticmethod
    def _eval(terms, yv: complex, tv: complex) -> complex:
        total = 0j
        for i, j, c in terms:
            total += c * yv ** i * tv ** j
        return total

    def value(self, yv, tv):
        return self._eval(self.terms, yv, tv)

    def y_coefficients(self, tv: complex) -> np.ndarray:
        """Coefficients of P(., tv) in y, highest degree first (for np.roots)."""
        coeffs = np.zeros(self.ydeg + 1, dtype=complex)
        for i, j, c in self.terms:
            coeffs[self.ydeg - i] += c * tv ** j
        return coeffs


def implicit_derivs(
    poly: MultiPoly, t: complex, y: complex, py_floor: float = 1e-8
) -> tuple[complex, complex]:
    """First and second derivative of the branch of P(y, t) = 0 through (t, y).

    y' = -P_t / P_y and y'' = -(P_tt + 2 P_ty y' + P_yy y'^2) / P_y; requires
    P to (numerically) vanish at the point and raises
    :class:`SingularPointError` when |P_y| < py_floor.
    """
    c = _Compiled(poly)
    return _jet(c, complex(t), complex(y), py_floor)


def _jet(c: _Compiled, tv: complex, yv: complex, py_floor: float) -> tuple[complex, complex]:
    py = c._eval(c.dy, yv, tv)
    if abs(py) < py_floor:
        raise SingularPointError(f"|dP/dy| = {abs(py):.2e} at (t, y) = ({tv}, {yv})")
    pt = c._eval(c.dt, yv, tv)
    y1 = -pt / py
    y2 = -(c._eval(c.dtt, yv, tv) + 2 * c._eval(c.dyt, yv, tv) * y1
           + c._eval(c.dyy, yv, tv) * y1 * y1) / py
    return y1, y2


def pvi_residual(
    params: PviParams, t: complex, y: complex, y1: complex, y2: complex,
    exclusion_tol: float = 1e-10,
) -> float:
    """|y'' - RHS| of the sixth Painleve equation for the given 2-jet."""
    t, y, y1, y2 = complex(t), complex(y), complex(y1), complex(y2)
    if min(abs(t), abs(t - 1)) < exclusion_tol:
        raise ExcludedPointError(f"t = {t} is a fixed singular point")
    if min(abs(y), abs(y - 1), abs(y - t)) < exclusion_tol:
        raise ExcludedPointError(f"y = {y} collides with 0, 1 or t")
    al, be, ga, de = params.as_complex()
    rhs = (
        0.5 * (1 / y + 1 / (y - 1) + 1 / (y - t)) * y1 * y1
        - (1 / t + 1 / (t - 1) + 1 / (y - t)) * y1
        + y * (y - 1) * (y - t) / (t * t * (t - 1) * (t - 1))
        * (al + be * t / (y * y) + ga * (t - 1) / ((y - 1) * (y - 1))
           + de * t * (t - 1) / ((y - t) * (y - t)))
    )
    return abs(y2 - rhs)


# ----------------------------------------------------------------------
# sampling verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    """Sampling strategy: t on a circle around 1/2, clear of 0, 1 and the
    real branch points of the canonical curves."""

    count: int = 25
    center: complex = 0.5 + 0j
    radius: float = 0.25
    py_floor: float = 1e-8
    exclusion_tol: float = 1e-8
    newton_tol: float = 1e-12

    def points(self) -> list[complex]:
        return [
            self.center + self.radius * cmath.exp(2j * cmath.pi * k / (self.count + 1))
            for k in range(1, self.count + 1)
        ]


@dataclass(frozen=True)
class ResidualSample:
    t: complex
    y: complex
    residual: float


@dataclass(frozen=True)
class SkippedSample:
    t: complex
    reason: str


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of per-branch ODE residuals of a curve at fixed parameters."""

    curve: Optional[str]
    params: PviParams
    samples: tuple[ResidualSample, ...]
    skipped: tuple[SkippedSample, ...]
    max_residual: float
    median_residual: float

    def verdict(self, accept: float = ACCEPT_TOL, reject: float = REJECT_TOL) -> str:
        if self.max_residual < accept:
            return "pass"
        if self.max_residual > reject:
            return "fail"
        return "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "curve": self.curve,
            "params": _params_json(self.params),
            "samples": [
                {"t": _cplx(s.t), "y": _cplx(s.y), "residual": s.residual}
                for s in self.samples
            ],
            "skipped": [{"t": _cplx(s.t), "reason": s.reason} for s in self.skipped],
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "verdict": self.verdict(),
        }

    def csv_rows(self) -> list[list]:
        return [
            [s.t.real, s.t.imag, s.y.real, s.y.imag, s.residual] for s in self.samples
        ]


CSV_HEADER = ["t_re", "t_im", "y_re", "y_im", "residual"]


def _cplx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _params_json(params: PviParams) -> dict:
    def fmt(x):
        return format_rational(x) if isinstance(x, (Fraction, int)) else _cplx(complex(x))

    out = {"pvi": [fmt(x) for x in params]}
    if all(isinstance(x, (Fraction, int)) for x in params):
        out["alpha"] = [format_rational(a) for a in params_convert(params)]
    return out


def _resolve_curve(curve: Union[CurveId, str, MultiPoly]) -> tuple[Optional[str], MultiPoly]:
    if isinstance(curve, MultiPoly):
        return None, curve
    cid = CurveId(curve)
    return cid.value, CURVES[cid]


def verify_curve(
    curve: Union[CurveId, str, MultiPoly],
    params: PviParams,
    spec: SampleSpec = SampleSpec(),
) -> ResidualReport:
    """Residual report for every branch of the curve over the sample circle.

    For each sample t the roots y of P(., t) come from companion-matrix
    eigenvalues polished by Newton; roots colliding with {0, 1, t}, branch
    points (|dP/dy| below the floor) and unpolishable roots are skipped with
    a reason rather than polluting the aggregate.
    """
    label, poly = _resolve_curve(curve)
    c = _Compiled(poly)
    samples: list[ResidualSample] = []
    skipped: list[SkippedSample] = []
    for tv in spec.points():
        coeffs = c.y_coefficients(tv)
        lead = np.flatnonzero(np.abs(coeffs) > 0)
        if lead.size == 0 or coeffs.size - lead[0] < 2:
            skipped.append(SkippedSample(tv, "degenerate polynomial"))
            continue
        for y0 in np.roots(coeffs[lead[0]:]):
            yv = _newton(c, complex(y0), tv, spec.newton_tol)
            if yv is None:
                skipped.append(SkippedSample(tv, "root polishing failed"))
                continue
            if min(abs(yv), abs(yv - 1), abs(yv - tv)) < spec.exclusion_tol:
                skipped.append(SkippedSample(tv, "y in {0, 1, t}"))
                continue
            try:
                y1, y2 = _jet(c, tv, yv, spec.py_floor)
                res = pvi_residual(params, tv, yv, y1, y2)
            except SingularPointError:
                skipped.append(SkippedSample(tv, "singular point (dP/dy ~ 0)"))
                continue
            except ExcludedPointError:
                skipped.append(SkippedSample(tv, "y in {0, 1, t}"))
                continue
            samples.append(ResidualSample(tv, yv, res))
    if not samples:
        raise NoValidSamplesError("every sample was skipped; nothing to report")
    residuals = [s.residual for s in samples]
    return ResidualReport(
        curve=label,
        params=params,
        samples=tuple(samples),
        skipped=tuple(skipped),
        max_residual=max(residuals),
        median_residual=statistics.median(residuals),
    )


def _newton(c: _Compiled, yv: complex, tv: complex, tol: float) -> Optional[complex]:
    for _ in range(60):
        pv = c.value(yv, tv)
        if abs(pv) < tol:
            return yv
        dv = c._eval(c.dy, yv, tv)
        if abs(dv) < 1e-14:
            break
        step = pv / dv
        yv -= step
        if abs(step) < 1e-16 * max(1.0, abs(yv)):
            break
    return yv if abs(c.value(yv, tv)) < 1e-9 else None


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    """Which smooth solutions exist at the given parameters."""

    kind: str  # "picard_family" | "finite_list" | "empty"
    curves: tuple[CurveId, ...] = ()
    picard_note: Optional[str] = None
    reports: Optional[dict] = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "curves": [c.value for c in self.curves],
            "picard_note": self.picard_note,
        }
        if self.reports is not None:
            out["reports"] = {
                cid.value: rep.to_json_dict() for cid, rep in sorted(self.reports.items())
            }
        return out


_PICARD_NOTE = (
    "every rational class (mu, nu) outside (Z/2)^2 yields a solution branch; "
    "the branch count equals the class's orbit length"
)


def classify(
    alpha: Union[AlphaTuple, PviParams, Sequence],
    verify: bool = False,
    spec: SampleSpec = SampleSpec(),
    accept_tol: float = ACCEPT_TOL,
    reject_tol: float = REJECT_TOL,
) -> ClassificationResult:
    """Complete list of smooth-solution curves for exact rational parameters.

    Parameter patterns are tested exactly.  With ``verify`` set, every one of
    the seven canonical curves is run through :func:`verify_curve`: listed
    curves must pass at ``accept_tol``, unlisted ones must fail at
    ``reject_tol``, and anything in between raises
    :class:`VerificationError` rather than guessing.
    """
    a = coerce_alpha(alpha)
    if a.is_zero():
        return ClassificationResult(kind="picard_family", picard_note=_PICARD_NOTE)
    listed = pattern_curves(a)
    reports = None
    if verify:
        params = params_convert(a)
        reports = {}
        for cid in CurveId:
            report = verify_curve(cid, params, spec)
            reports[cid] = report
            expected = cid in listed
            if expected and report.max_residual >= accept_tol:
                raise VerificationError(
                    f"curve {cid} is classified as a solution but its residual "
                    f"{report.max_residual:.3e} exceeds {accept_tol:g}"
                )
            if not expected and report.max_residual <= reject_tol:
                raise VerificationError(
                    f"curve {cid} is not classified as a solution but its residual "
                    f"{report.max_residual:.3e} is not above {reject_tol:g}"
                )
    if listed:
        return ClassificationResult(kind="finite_list", curves=tuple(listed), reports=reports)
    return ClassificationResult(kind="empty", reports=reports)


# ----------------------------------------------------------------------
# orbit -> curve dictionary
# ----------------------------------------------------------------------

# Keyed by orbit key; each curve's row names one class of its orbit.
_CURVE_OF_ORBIT = {
    orbit_key(canonicalize(row.picard_class)): cid for cid, row in CURVE_TABLE.items()
}


def orbit_to_curve(v: Union[RationalPair, Sequence]) -> Optional[CurveId]:
    """Canonical curve whose branches the Picard solution of the class traces.

    None when the orbit length exceeds 6 (no algebraic curve of the listed
    families matches); half-integer classes are rejected as trivial.  Only
    levels 3, 4 and 6 have orbits of length at most 6 (J_2(N)/2 for odd N,
    J_2(N)/6 for even N), so the answer is read off the orbit key without
    listing the orbit, at any denominator.
    """
    pair = v if isinstance(v, RationalPair) else canonicalize(v)
    if pair.is_half_integer():
        raise ValueError(f"{pair} lies in (Z/2)^2: trivial solution, no curve")
    return _CURVE_OF_ORBIT.get(orbit_key(pair))
