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
A pass runs over a tuple of curves: ``verify_curve`` takes one, ``classify``
the seven canonical curves, and each curve's bits are those of its own pass.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from ._record import field, record
from .curves import CURVE_TABLE, CURVES, CurveId, pattern_curves
from .elliptic import AlphaTuple, _as_complex
from .multipoly import MultiPoly
from .orbits import PairLike, _as_pair, canonicalize, format_rational, orbit_key

ACCEPT_TOL = 1e-8
REJECT_TOL = 1e-3
PY_FLOOR = 1e-8  # |dP/dy| below this is a branch point
EXCLUSION_TOL = 1e-8  # t within this of {0, 1}, or y of {0, 1, t}, is skipped
NEWTON_TOL = 1e-12  # |P| at which Newton accepts a root
# t samples per curve: a pass holds the (6, max deg_y + 1, curves * count) table,
# whose column each root reads, and the powers of t and per-root arrays
MAX_SAMPLES = 10_000
# count * deg_y**3 of a curve, the cost of its eigenvalue solves, is refused above
# this before any work: at most about 2.6 s on a 2-vCPU Xeon VM (degree 17 at
# 10 000 samples; degree 255 is refused above 3 samples, 0.6 s)
MAX_ROOT_WORK = 50_000_000


class SingularPointError(ValueError):
    """Implicit differentiation attempted where dP/dy vanishes."""


class ExcludedPointError(ValueError):
    """Jet evaluation at t in {0, 1} or y in {0, 1, t}."""


class NoValidSamplesError(RuntimeError):
    """Every sample of a residual run was skipped."""


class VerificationError(RuntimeError):
    """Numeric cross-check could not confirm the rule-based classification."""


@record
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
        # converted on first use and kept in the instance dict (the frozen
        # record refuses setattr), so the calls at one parameter object
        # share one conversion; functools.cached_property would also take a
        # lock on every first use
        values = self.__dict__.get("_complex")
        if values is None:
            values = self.__dict__["_complex"] = tuple(map(_as_complex, self))
        return values


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

_PARTIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))  # P_y, P_t, P_yy, P_yt, P_tt


def _yt_terms(poly: MultiPoly) -> list[tuple[int, int, complex]]:
    """(i, j, c) for each term c y^i t^j of P, in ``str(P)`` order whatever built P."""
    names = poly.vars
    if not set(names) <= {"y", "t"}:
        raise ValueError(f"curve polynomial must involve only (y, t), got {names}")
    iy, it = (names.index(v) if v in names else None for v in ("y", "t"))
    return [(e[iy] if iy is not None else 0, e[it] if it is not None else 0, complex(c))
            for e, c in poly.sorted_terms()]


def _in_y(poly: MultiPoly, points: Sequence[complex]):
    """The y-coefficients of P and its partials at every t: (6, deg_y + 1, len(points)).

    The dense coefficients of the five partials come from those of P by index
    shifts and integer multiplies and reach every t in one matrix product.
    P's own coefficients are summed term by term in ``str(P)`` order with
    Python's powers of t, so its roots are those ``np.roots`` finds, to the bit.
    """
    import numpy as np

    terms = _yt_terms(poly)
    d = np.zeros((5, poly.degree_in("y") + 1, poly.degree_in("t") + 1), dtype=complex)
    for i, j, c in terms:
        for k, (a, b) in enumerate(_PARTIALS):
            if i >= a and j >= b:
                d[k, i - a, j - b] = math.perm(i, a) * math.perm(j, b) * c
    tpow = np.array([[tv ** j for tv in points] for j in range(d.shape[2])],
                    dtype=complex).reshape(d.shape[2], len(points))
    out = np.zeros((6, d.shape[1], len(points)), dtype=complex)
    out[1:] = (d.reshape(-1, d.shape[2]) @ tpow).reshape(d.shape[:2] + (len(points),))
    for i, j, c in terms:
        out[0, i] += c * tpow[j]
    return out


def _horner(c, cols, y):
    """sum_i c[..., i, cols] * y**i: each root y reads its sample's column."""
    out = c[..., -1, cols]
    for i in range(c.shape[-2] - 2, -1, -1):
        out = out * y + c[..., i, cols]
    return out


def _jet(py, pt, pyy, pyt, ptt):
    """(y', y'') of the branch through a point, from the partials of P there."""
    y1 = -pt / py
    return y1, -(ptt + 2 * pyt * y1 + pyy * y1 * y1) / py


def _rhs_parts(t, y, y1):
    """The parameter-free subexpressions of the right-hand side of the sixth
    Painleve equation at (t, y, y'), complex scalars or arrays: t, t - 1,
    1/y, 1/(y - 1), 1/(y - t), the y' terms and the prefactor."""
    b, c, s = y - 1, y - t, t - 1
    ia, ib, ic = 1 / y, 1 / b, 1 / c
    return (t, s, ia, ib, ic, (0.5 * (ia + ib + ic) * y1 - (1 / t + 1 / s + ic)) * y1,
            y * b * c / (t * t * s * s))


def _rhs(params: PviParams, parts):
    """Right-hand side of the sixth Painleve equation from :func:`_rhs_parts`.

    The parts are subtrees of the one expression, so the split leaves its
    order of evaluation, and every rounding, as it was.
    """
    al, be, ga, de = params.as_complex()
    t, s, ia, ib, ic, jet, pre = parts
    return jet + pre * (al + be * t * ia * ia + ga * s * ib * ib + de * t * s * ic * ic)


def implicit_derivs(poly: MultiPoly, t: complex, y: complex) -> tuple[complex, complex]:
    """First and second derivative of the branch of P(y, t) = 0 through (t, y).

    y' = -P_t / P_y and y'' = -(P_tt + 2 P_ty y' + P_yy y'^2) / P_y; requires
    P to (numerically) vanish at the point and raises
    :class:`SingularPointError` when |P_y| < :data:`PY_FLOOR`.
    """
    tv, yv = complex(t), complex(y)
    partials = [0j] * 5  # P_y, P_t, P_yy, P_yt, P_tt, summed in str(P) order at (t, y)
    for i, j, c in _yt_terms(poly):
        for k, (a, b) in enumerate(_PARTIALS):
            if i >= a and j >= b:
                partials[k] += math.perm(i, a) * math.perm(j, b) * c * yv ** (i - a) * tv ** (j - b)
    py, pt, pyy, pyt, ptt = partials
    if abs(py) < PY_FLOOR:
        raise SingularPointError(f"|dP/dy| = {abs(py):.2e} at (t, y) = ({tv}, {yv})")
    return _jet(py, pt, pyy, pyt, ptt)


def pvi_residual(params: PviParams, t: complex, y: complex, y1: complex, y2: complex) -> float:
    """|y'' - RHS| of the sixth Painleve equation for the given 2-jet."""
    t, y, y1, y2 = complex(t), complex(y), complex(y1), complex(y2)
    if min(abs(t), abs(t - 1)) < EXCLUSION_TOL:
        raise ExcludedPointError(f"t = {t} is a fixed singular point")
    if min(abs(y), abs(y - 1), abs(y - t)) < EXCLUSION_TOL:
        raise ExcludedPointError(f"y = {y} collides with 0, 1 or t")
    return abs(y2 - _rhs(params, _rhs_parts(t, y, y1)))


# ----------------------------------------------------------------------
# sampling verification
# ----------------------------------------------------------------------

@record
class SampleSpec:
    """Sampling strategy: t on a circle around 1/2, clear of 0, 1 and the
    real branch points of the canonical curves.  ``count`` is an int in
    [1, MAX_SAMPLES], ``center`` and ``radius`` are finite and the radius is
    nonzero; anything else raises ValueError before any work."""

    count: int = 25
    center: complex = 0.5 + 0j
    radius: float = 0.25

    def __post_init__(self):
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"sample count must be a positive int, got {self.count!r}")
        if self.count > MAX_SAMPLES:
            raise ValueError(f"sample count {self.count} exceeds the limit of {MAX_SAMPLES}")
        if not (cmath.isfinite(self.center) and cmath.isfinite(self.radius)):
            raise ValueError(f"sample circle must be finite, got center {self.center!r}, "
                             f"radius {self.radius!r}")
        if self.radius == 0:
            raise ValueError("sample radius must be nonzero")

    def points(self) -> list[complex]:
        return [
            self.center + self.radius * cmath.exp(2j * cmath.pi * k / (self.count + 1))
            for k in range(1, self.count + 1)
        ]


@record
class ResidualSample:
    """The ODE residual of the branch y of a curve at the sample t."""

    t: complex
    y: complex
    residual: float


@record
class SkippedSample:
    """A sample t left out of a residual run, and why."""

    t: complex
    reason: str


@record
class ResidualReport:
    """Aggregate of per-branch ODE residuals of a curve at fixed parameters.

    The samples are also held as three columns: the t, the y and the
    residual of each sample.  The JSON and CSV forms read the columns, and a
    report from :func:`verify_curve` builds its ``samples`` from them only
    when they are first read, then keeps them.
    """

    curve: Optional[str]
    params: PviParams
    samples: tuple[ResidualSample, ...]
    skipped: tuple[SkippedSample, ...]
    max_residual: float
    median_residual: float

    def __post_init__(self):
        object.__setattr__(self, "_columns", (tuple(s.t for s in self.samples),
                                              tuple(s.y for s in self.samples),
                                              tuple(s.residual for s in self.samples)))

    @classmethod
    def _from_columns(cls, curve: Optional[str], params: PviParams, ts: tuple, ys: tuple,
                      residuals: tuple, skipped: tuple) -> "ResidualReport":
        """A report whose ``samples`` are built on first read; the aggregates
        are ``max`` and :func:`_median` of the residuals, and
        :class:`NoValidSamplesError` is raised when there are none."""
        if not residuals:
            raise NoValidSamplesError("every sample was skipped; nothing to report")
        report = object.__new__(cls)
        report.__dict__.update(curve=curve, params=params, skipped=skipped,
                               max_residual=max(residuals),
                               median_residual=_median(residuals),
                               _columns=(ts, ys, residuals))
        return report

    def __getattr__(self, name):
        # called only for a missing attribute: the samples of a report from
        # _from_columns before their first read
        if name != "samples" or "_columns" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        samples = tuple(map(ResidualSample, *self._columns))
        object.__setattr__(self, "samples", samples)
        return samples

    def verdict(self) -> str:
        if self.max_residual < ACCEPT_TOL:
            return "pass"
        if self.max_residual > REJECT_TOL:
            return "fail"
        return "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "curve": self.curve,
            "params": _params_json(self.params),
            "samples": [
                {"t": _cplx(t), "y": _cplx(y), "residual": r} for t, y, r in zip(*self._columns)
            ],
            "skipped": [{"t": _cplx(s.t), "reason": s.reason} for s in self.skipped],
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "verdict": self.verdict(),
        }

    def csv_rows(self) -> list[list]:
        return [[t.real, t.imag, y.real, y.imag, r] for t, y, r in zip(*self._columns)]


CSV_HEADER = ["t_re", "t_im", "y_re", "y_im", "residual"]


def _median(values: Sequence[float]) -> float:
    """The middle value, or the mean of the two middle ones: what
    ``statistics.median`` returns, bit for bit, without importing it."""
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _cplx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _params_json(params: PviParams) -> dict:
    def fmt(x):
        return format_rational(x) if isinstance(x, (Fraction, int)) else _cplx(complex(x))

    out = {"pvi": [fmt(x) for x in params]}
    if all(isinstance(x, (Fraction, int)) for x in params):
        out["alpha"] = [format_rational(a) for a in params_convert(params)]
    return out


_REASONS = (None, "degenerate polynomial", "root polishing failed", "y in {0, 1, t}",
            "singular point (dP/dy ~ 0)", "t in {0, 1}")
_DEGENERATE, _POLISH_FAILED, _EXCLUDED, _SINGULAR, _FIXED_T = range(1, 6)


class _Pass(NamedTuple):
    """The parameter-free part of a pass of a tuple of curves over a sample
    circle: each curve's skips and samples, and y'' and the parameter-free
    subexpressions of the ODE's right-hand side at every root that reached
    the jet stage, the roots of all the curves in curve order."""

    curves: tuple  # (skipped, ts, ys) of each curve: its skips and the t and y of its samples
    keep: object  # which jet roots are samples (read-only bool array)
    y2: object  # y'' at each jet root (read-only array)
    rhs: tuple  # _rhs_parts at the jet roots (read-only arrays)


def _find_branches(polys: tuple[MultiPoly, ...], spec: SampleSpec) -> _Pass:
    """Every root of every curve at every t of the spec: ``np.roots`` at each
    (curve, t), then Newton, the skip tests and the jets on all roots at once.

    The curves share one (6, max deg_y + 1, curves * count) table, whose
    column each root reads; a curve of lower degree in y has zero rows on
    top, which ``np.roots`` strips and Horner passes as 0 * y + 0, so each
    curve's bits are those of its pass alone.  A curve's samples and skips run
    in t order and, within one t, in the root order of ``np.roots`` (zero
    roots last); a degenerate t is skipped once.  If any curve's count times
    deg_y**3 exceeds :data:`MAX_ROOT_WORK`, ValueError is raised before any
    table is built.
    """
    import numpy as np

    degrees = [p.degree_in("y") for p in polys]
    for degree in degrees:
        if spec.count * degree ** 3 > MAX_ROOT_WORK:
            raise ValueError(
                f"{spec.count} samples of a curve of degree {degree} in y exceed the root-finding "
                f"limit: count * degree^3 must be at most {MAX_ROOT_WORK}")
    points = spec.points()
    c = np.zeros((6, max(degrees) + 1, len(polys) * spec.count), dtype=complex)
    for k, (poly, degree) in enumerate(zip(polys, degrees)):
        c[:, :degree + 1, k * spec.count:(k + 1) * spec.count] = _in_y(poly, points)
    points = points * len(polys)  # the t of each column
    # one slot per root, and one degenerate slot for a t with fewer than two
    # coefficients left after its leading zeros, where np.roots finds none
    found = [np.roots(column) for column in c[0, ::-1].T]
    degenerate = np.array([not r.size for r in found])
    tix = np.repeat(np.arange(len(points)), [r.size or 1 for r in found])
    y = np.concatenate([r if r.size else [0] for r in found]).astype(complex)
    t = np.array(points, dtype=complex)[tix]
    code = np.where(degenerate[tix], _DEGENERATE, 0)

    with np.errstate(all="ignore"):
        # Newton on every root at once, each stopping as a scalar loop would:
        # |P| < NEWTON_TOL, |P_y| < 1e-14, a step below 1e-16 |y|, 60 steps
        live = np.flatnonzero(code == 0)
        done = np.zeros(y.shape, dtype=bool)
        for _ in range(60):
            pv = _horner(c[0], tix[live], y[live])
            hit = np.abs(pv) < NEWTON_TOL
            done[live[hit]] = True
            live, pv = live[~hit], pv[~hit]
            if not live.size:
                break
            dv = _horner(c[1], tix[live], y[live])
            keep = ~(np.abs(dv) < 1e-14)
            live, step = live[keep], pv[keep] / dv[keep]
            y[live] -= step
            live = live[~(np.abs(step) < 1e-16 * np.fmax(1.0, np.abs(y[live])))]
        check = np.flatnonzero((code == 0) & ~done)
        code[check[~(np.abs(_horner(c[0], tix[check], y[check])) < 1e-9)]] = _POLISH_FAILED
        dist = np.minimum(np.minimum(np.abs(y), np.abs(y - 1)), np.abs(y - t))
        code[(code == 0) & (dist < EXCLUSION_TOL)] = _EXCLUDED
        ok = np.flatnonzero(code == 0)
        py, pt, pyy, pyt, ptt = _horner(c[1:], tix[ok], y[ok])
        code[ok[np.abs(py) < PY_FLOOR]] = _SINGULAR
        code[(code == 0) & (np.minimum(np.abs(t), np.abs(t - 1)) < EXCLUSION_TOL)] = _FIXED_T
        y1, y2 = _jet(py, pt, pyy, pyt, ptt)
        rhs = _rhs_parts(t[ok], y[ok], y1)
    ts, kept = [points[k] for k in tix.tolist()], code == 0
    # a curve's columns are consecutive, so its roots are one run of slots
    ends = np.searchsorted(tix, np.arange(len(polys) + 1) * spec.count).tolist()
    curves = []
    for lo, hi in zip(ends, ends[1:]):
        skips = lo + np.flatnonzero(code[lo:hi])
        curves.append((tuple(SkippedSample(ts[k], _REASONS[code[k]]) for k in skips),
                       tuple(itertools.compress(ts[lo:hi], kept[lo:hi].tolist())),
                       tuple(y[lo:hi][kept[lo:hi]].tolist())))
    branches = _Pass(tuple(curves), kept[ok], y2, rhs)
    for a in (branches.keep, y2) + rhs:
        a.flags.writeable = False
    return branches


# The parameter-free passes of the last _BRANCH_CACHE_SIZE (curves, circle,
# tolerances) keys, each kept only if count times the sum of the curves'
# max(deg_y, 1) is at most _BRANCH_CACHE_ROOTS: at most 32 * 1024 roots of
# about 250 bytes, 8 MB.
_BRANCH_CACHE_SIZE = 32
_BRANCH_CACHE_ROOTS = 1024


@functools.lru_cache(maxsize=_BRANCH_CACHE_SIZE)
def _cached_branches(polys: tuple, spec: SampleSpec, tolerances: tuple) -> _Pass:
    """:func:`_find_branches`, keyed also on the tolerances it reads; a pass
    depends only on the polynomials' values, so equal ones share an entry."""
    return _find_branches(polys, spec)


def _residuals(polys: tuple[MultiPoly, ...], params: PviParams, spec: SampleSpec) -> list:
    """(skipped, ts, ys, residuals) of each curve over the spec: the pass of
    :func:`_find_branches`, cached when small enough, and |y'' - RHS| at each
    of its samples, from one array expression over the jet roots of all the
    curves.  Only the residuals are computed on a cached pass."""
    import numpy as np

    roots = 0
    for p in polys:
        roots += max(p.degree_in("y"), 1)
    if spec.count * roots > _BRANCH_CACHE_ROOTS:
        found = _find_branches(polys, spec)
    else:
        found = _cached_branches(polys, spec, (NEWTON_TOL, PY_FLOOR, EXCLUSION_TOL))
    with np.errstate(all="ignore"):
        residual = np.abs(found.y2 - _rhs(params, found.rhs))
    residuals, out, start = residual[found.keep].tolist(), [], 0
    for skipped, ts, ys in found.curves:  # the curves' samples are in curve order
        end = start + len(ts)
        out.append((skipped, ts, ys, tuple(residuals[start:end])))
        start = end
    return out


def verify_curve(
    curve: Union[CurveId, str, MultiPoly],
    params: PviParams,
    spec: SampleSpec = SampleSpec(),
) -> ResidualReport:
    """Residual report for every branch of the curve over the sample circle.

    For each sample t the roots y of P(., t) come from ``np.roots`` and are
    polished by Newton; roots colliding with {0, 1, t}, branch points
    (|dP/dy| below the floor), unpolishable roots and roots at t near 0 or 1
    are skipped with a reason rather than polluting the aggregate.  The
    curve is a pass of one: its roots, skips and jets over a circle are found
    once and cached, and a call at other parameters computes only the
    residuals.  The report keeps the samples as columns and builds its
    :class:`ResidualSample` objects only when ``samples`` is read.
    """
    label, poly = None, curve
    if not isinstance(curve, MultiPoly):
        cid = CurveId(curve)
        label, poly = cid.value, CURVES[cid]
    (skipped, ts, ys, residuals), = _residuals((poly,), params, spec)
    return ResidualReport._from_columns(label, params, ts, ys, residuals, skipped)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

@record
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


def classify(alpha: Union[AlphaTuple, PviParams, Sequence], verify: bool = False,
             spec: SampleSpec = SampleSpec()) -> ClassificationResult:
    """Complete list of smooth-solution curves for exact rational parameters.

    Parameter patterns are tested exactly.  With ``verify`` set, every one of
    the seven canonical curves gets the report :func:`verify_curve` would
    give it, from one pass over the seven: listed curves must pass at
    :data:`ACCEPT_TOL`, unlisted ones must fail at :data:`REJECT_TOL`, and
    anything in between raises :class:`VerificationError` rather than
    guessing.  The curves are checked
    in order, so the first curve that fails decides the error.
    """
    a = coerce_alpha(alpha)
    if a.is_zero():
        return ClassificationResult(kind="picard_family", picard_note=_PICARD_NOTE)
    listed = pattern_curves(a)
    reports = None
    if verify:
        params = params_convert(a)
        reports = {}
        passes = _residuals(tuple(CURVES[cid] for cid in CurveId), params, spec)
        for cid, (skipped, ts, ys, residuals) in zip(CurveId, passes):
            report = reports[cid] = ResidualReport._from_columns(cid.value, params, ts, ys,
                                                                 residuals, skipped)
            verdict = report.verdict()
            if cid in listed and verdict != "pass":
                raise VerificationError(
                    f"curve {cid} is classified as a solution but its residual "
                    f"{report.max_residual:.3e} exceeds {ACCEPT_TOL:g}"
                )
            if cid not in listed and verdict != "fail":
                raise VerificationError(
                    f"curve {cid} is not classified as a solution but its residual "
                    f"{report.max_residual:.3e} is not above {REJECT_TOL:g}"
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


def orbit_to_curve(v: PairLike) -> Optional[CurveId]:
    """Canonical curve whose branches the Picard solution of the class traces.

    None when the orbit length exceeds 6 (no algebraic curve of the listed
    families matches); half-integer classes are rejected as trivial.  Only
    levels 3, 4 and 6 have orbits of length at most 6 (J_2(N)/2 for odd N,
    J_2(N)/6 for even N), so the answer is read off the orbit key without
    listing the orbit, at any denominator.
    """
    pair = _as_pair(v)
    if pair.is_half_integer():
        raise ValueError(f"{pair} lies in (Z/2)^2: trivial solution, no curve")
    return _CURVE_OF_ORBIT.get(orbit_key(pair))
