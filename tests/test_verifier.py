"""ODE residual certification and the parameter classification."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import statistics
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from pvi.curves import CURVES, CurveId, master_poly, pattern_curves
from pvi.elliptic import AlphaTuple, picard_eval, reduction_residual
from pvi.multipoly import MultiPoly
from pvi.orbits import canonicalize
from pvi.selftest import CANONICAL_ALPHA
from pvi import verifier
from pvi.verifier import (
    ACCEPT_TOL,
    EXCLUSION_TOL,
    MAX_SAMPLES,
    NEWTON_TOL,
    PY_FLOOR,
    REJECT_TOL,
    ClassificationResult,
    ExcludedPointError,
    NoValidSamplesError,
    PviParams,
    ResidualReport,
    ResidualSample,
    SampleSpec,
    SingularPointError,
    SkippedSample,
    VerificationError,
    classify,
    coerce_alpha,
    implicit_derivs,
    orbit_to_curve,
    params_convert,
    pvi_residual,
    verify_curve,
)

F = Fraction
Y = MultiPoly.variable("y")
T = MultiPoly.variable("t")


def _sample(poly, params, spec):
    """(samples, skips) of the batch pass of ``verify_curve``, as lists."""
    (skipped, ts, ys, residuals), = verifier._residuals((poly,), params, spec)
    return list(map(ResidualSample, ts, ys, residuals)), list(skipped)


def alpha_of(*vals):
    return AlphaTuple(*(F(v) for v in vals))


class TestParamsConvert:
    @pytest.mark.parametrize(
        "pvi,alpha",
        [
            (("1/8", "-1/8", "1/8", "3/8"), ("1/8", "1/8", "1/8", "1/8")),
            (("9/8", "-1/8", "1/8", "3/8"), ("9/8", "1/8", "1/8", "1/8")),
            (("0", "0", "0", "1/2"), ("0", "0", "0", "0")),
        ],
    )
    def test_examples(self, pvi, alpha):
        params = PviParams.from_strings(pvi)
        a = params_convert(params)
        assert tuple(a) == tuple(F(x) for x in alpha)
        assert params_convert(a) == params

    def test_round_trip_random(self):
        rng = random.Random(55)
        for _ in range(50):
            params = PviParams(*(F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4)))
            assert params_convert(params_convert(params)) == params

    def test_type_error(self):
        with pytest.raises(TypeError):
            params_convert((1, 2, 3, 4))

    def test_complex_values_converted_once(self, monkeypatch):
        # the parameters are read (iterated) only to convert them: once for
        # the one residual pass of a verified classification
        reads = []
        params_iter = PviParams.__iter__

        def counting(self):
            reads.append(self)
            return params_iter(self)

        monkeypatch.setattr(PviParams, "__iter__", counting)
        assert classify((9, 1, 1, 1), verify=True).curves == (CurveId.D,)
        assert len(reads) == 1
        params = PviParams(F(9, 8), F(-1, 8), F(1, 8), F(3, 8))
        assert params.as_complex() == (9 / 8, -1 / 8, 1 / 8, 3 / 8)
        assert params.as_complex() is params.as_complex()
        assert pickle.loads(pickle.dumps(params)) == params
        assert dataclasses.replace(params, alpha=F(1)).as_complex()[0] == 1

    def test_as_complex_gives_the_bits_of_complex(self):
        rng = random.Random(92)
        values = [F(10 ** 40 + 7, 3 * 10 ** 39 + 1), F(-1, 3), F(0), F(5), 7, 0.1, 2 - 0.5j, -0.0]
        for _ in range(200):
            values.append(F(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 18)))
        for i in range(0, len(values) - 3):
            params = PviParams(*values[i:i + 4])
            assert repr(params.as_complex()) == repr(tuple(complex(x) for x in params))


class TestImplicitDerivs:
    def test_square_root_branch(self):
        y1, y2 = implicit_derivs(CURVES[CurveId.A], 4, 2)
        assert abs(y1 - 0.25) < 1e-14
        assert abs(y2 + 1 / 32) < 1e-14

    def test_branch_point_rejected(self):
        with pytest.raises(SingularPointError):
            implicit_derivs(CURVES[CurveId.B], 1, 1)

    def test_quartic_jet_vs_finite_differences(self):
        poly = CURVES[CurveId.D]
        t0, y0 = F(5, 32), F(-1, 8)
        assert poly(y=y0, t=t0) == 0
        y1, y2 = implicit_derivs(poly, complex(t0), complex(y0))
        h = 1e-4

        def continue_branch(tv):
            y = complex(y0)
            dpoly = poly.derivative("y")
            for _ in range(80):
                step = complex(poly(y=y, t=tv)) / complex(dpoly(y=y, t=tv))
                y -= step
                if abs(step) < 1e-15:
                    break
            return y

        yp, ym = continue_branch(complex(t0) + h), continue_branch(complex(t0) - h)
        assert abs((yp - ym) / (2 * h) - y1) < 1e-6
        assert abs((yp - 2 * complex(y0) + ym) / h ** 2 - y2) < 1e-6

    def test_scale_invariance_exact(self):
        # power-of-two rescaling commutes with IEEE rounding: identical jets
        poly = CURVES[CurveId.D]
        t, y = 0.5 + 0.25j, 0.31 + 0.52j
        base = implicit_derivs(poly, t, y)
        assert implicit_derivs(4 * poly, t, y) == base
        scaled = implicit_derivs(F(7, 3) * poly, t, y)
        assert abs(scaled[0] - base[0]) < 1e-12 * abs(base[0])
        assert abs(scaled[1] - base[1]) < 1e-12 * abs(base[1])

    @pytest.mark.parametrize("poly", [
        Y ** 32 * T ** 31 + Y - 1,          # 33 * 32 dense cells
        Y ** 255 + T ** 255 + Y * T - 1,    # 256 * 256 dense cells
    ])
    def test_high_degree_curves(self, poly):
        t, y = 0.5 + 0.1j, 0.7
        first = implicit_derivs(poly, t, y)
        assert implicit_derivs(poly, t, y) == first
        for got, want in zip(first, _jet(_Compiled(poly), t, y, PY_FLOOR)):
            assert abs(got - want) <= 1e-12 * abs(want)


class TestPviResidual:
    def test_matched_jet(self):
        # y = sqrt(t) jet at t = 4 with the line pattern (c, c, d, d) = (1, 1, 2, 2)
        params = params_convert(alpha_of(1, 1, 2, 2))
        assert params == PviParams(F(1), F(-1), F(2), F(-3, 2))
        assert pvi_residual(params, 4, 2, 0.25, -1 / 32) < 1e-10

    def test_quartic_at_many_samples(self):
        params = PviParams(F(9, 8), F(-1, 8), F(1, 8), F(3, 8))
        rep = verify_curve(CurveId.D, params, SampleSpec(count=20))
        assert rep.max_residual < 1e-9

    def test_mismatched_jet(self):
        params = params_convert(alpha_of(1, 2, 3, 4))
        assert pvi_residual(params, 4, 2, 0.25, -1 / 32) > 1e-3

    def test_excluded_points(self):
        params = params_convert(alpha_of(1, 1, 2, 2))
        with pytest.raises(ExcludedPointError):
            pvi_residual(params, 1, 2, 0.1, 0.1)
        with pytest.raises(ExcludedPointError):
            pvi_residual(params, 4, 4, 0.1, 0.1)


class TestVerifyCurve:
    def test_matched_pairs(self):
        equal = params_convert(alpha_of(1, 1, 1, 1))
        for cid in (CurveId.A, CurveId.B, CurveId.C):
            rep = verify_curve(cid, equal)
            assert rep.max_residual < ACCEPT_TOL
            assert rep.verdict() == "pass"

    def test_scaled_nine_pattern(self):
        params = params_convert(AlphaTuple(F(1, 8), F(1, 8), F(1, 8), F(9, 8)))
        rep = verify_curve(CurveId.G, params)
        assert rep.max_residual < ACCEPT_TOL

    def test_mismatched_pairs(self):
        controls = [
            (CurveId.A, alpha_of(9, 1, 1, 1)),
            (CurveId.D, alpha_of(1, 1, 1, 1)),
            (CurveId.E, alpha_of(9, 1, 1, 1)),
            (CurveId.B, alpha_of(1, 1, 2, 2)),
            (CurveId.G, alpha_of(1, 2, 3, 4)),
        ]
        for cid, alpha in controls:
            rep = verify_curve(cid, params_convert(alpha))
            assert rep.max_residual > REJECT_TOL
            assert rep.verdict() == "fail"

    @pytest.mark.parametrize("residual", [ACCEPT_TOL, 1e-5, REJECT_TOL])
    def test_inconclusive_between_thresholds(self, residual):
        sample = ResidualSample(0.5 + 0.25j, 0.3 - 0.1j, residual)
        rep = ResidualReport(curve=None, params=params_convert(alpha_of(1, 1, 2, 2)),
                             samples=(sample,), skipped=(), max_residual=residual,
                             median_residual=residual)
        assert rep.verdict() == "inconclusive"
        assert rep.to_json_dict()["verdict"] == "inconclusive"

    def test_custom_polynomial(self):
        rep = verify_curve(Y ** 2 - T, params_convert(alpha_of(1, 1, 2, 2)))
        assert rep.curve is None
        assert rep.max_residual < ACCEPT_TOL

    def test_no_valid_samples(self):
        with pytest.raises(NoValidSamplesError):
            verify_curve(Y - T, params_convert(alpha_of(1, 1, 2, 2)))

    def test_report_shape(self):
        rep = verify_curve(CurveId.A, params_convert(alpha_of(1, 1, 2, 2)),
                           SampleSpec(count=7))
        assert len(rep.samples) == 14  # two branches per sample
        data = rep.to_json_dict()
        assert data["curve"] == "A"
        assert data["verdict"] == "pass"
        assert set(data["params"]) == {"pvi", "alpha"}
        assert len(data["samples"]) == 14
        rows = rep.csv_rows()
        assert all(len(r) == 5 for r in rows)
        assert rep.median_residual <= rep.max_residual


# ----------------------------------------------------------------------
# the per-sample loop verifier: the reference the batched pass is checked against
# ----------------------------------------------------------------------
#
# The scalar verifier that preceded the one array pass of ``verify_curve``,
# kept unchanged: Python complex arithmetic, ``MultiPoly.derivative``
# partials, ``np.roots`` per sample and a Newton loop per root.  It is the
# reference implementation the tests compare the batch against: keep it,
# although nothing in ``src/`` calls it; it is not dead code.


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


def _jet(c: _Compiled, tv: complex, yv: complex, py_floor: float) -> tuple[complex, complex]:
    py = c._eval(c.dy, yv, tv)
    if abs(py) < py_floor:
        raise SingularPointError(f"|dP/dy| = {abs(py):.2e} at (t, y) = ({tv}, {yv})")
    pt = c._eval(c.dt, yv, tv)
    y1 = -pt / py
    y2 = -(c._eval(c.dtt, yv, tv) + 2 * c._eval(c.dyt, yv, tv) * y1
           + c._eval(c.dyy, yv, tv) * y1 * y1) / py
    return y1, y2


def _pvi_residual(
    params: PviParams, t: complex, y: complex, y1: complex, y2: complex,
    exclusion_tol: float = EXCLUSION_TOL,
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


def loop_verify(poly: MultiPoly, params: PviParams, spec: SampleSpec):
    """(samples, skipped) of the per-sample loop, before any aggregation."""
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
            yv = _newton(c, complex(y0), tv, NEWTON_TOL)
            if yv is None:
                skipped.append(SkippedSample(tv, "root polishing failed"))
                continue
            if min(abs(yv), abs(yv - 1), abs(yv - tv)) < EXCLUSION_TOL:
                skipped.append(SkippedSample(tv, "y in {0, 1, t}"))
                continue
            try:
                y1, y2 = _jet(c, tv, yv, PY_FLOOR)
                res = _pvi_residual(params, tv, yv, y1, y2)
            except SingularPointError:
                skipped.append(SkippedSample(tv, "singular point (dP/dy ~ 0)"))
                continue
            except ExcludedPointError:
                fixed_t = min(abs(tv), abs(tv - 1)) < EXCLUSION_TOL
                skipped.append(SkippedSample(tv, "t in {0, 1}" if fixed_t else "y in {0, 1, t}"))
                continue
            samples.append(ResidualSample(tv, yv, res))
    return samples, skipped


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


def _same_bits(got, want):
    """One curve's (skipped, ts, ys, residuals) equal another's, every float to the bit."""
    assert got[:3] == want[:3] and repr(got[:3]) == repr(want[:3])
    assert [r.hex() for r in got[3]] == [r.hex() for r in want[3]]


def _same_within_tolerance(loop, batch):
    """The batch pass against the loop: exact t, order and reasons; residuals
    below ACCEPT_TOL within 1e-10 absolute, any other within 1e-9 relative."""
    (ref_samples, ref_skipped), (samples, skipped) = loop, batch
    assert skipped == ref_skipped
    assert [s.t for s in samples] == [s.t for s in ref_samples]
    for got, want in zip(samples, ref_samples):
        assert type(got.y) is complex and type(got.residual) is float
        assert abs(got.y - want.y) <= 1e-12 * max(1.0, abs(want.y))
        if want.residual < ACCEPT_TOL:
            assert abs(got.residual - want.residual) <= 1e-10
        else:
            assert abs(got.residual - want.residual) <= 1e-9 * want.residual


class TestBatchAgainstLoop:
    """``verify_curve``'s one array pass against the per-sample loop above."""

    @pytest.mark.parametrize("count", [1, 7, 25])
    @pytest.mark.parametrize("matched", [True, False])
    @pytest.mark.parametrize("cid", list(CurveId))
    def test_canonical_curves(self, cid, matched, count):
        alpha = CANONICAL_ALPHA[cid] if matched else alpha_of(1, 2, 3, 4)
        params, spec = params_convert(alpha), SampleSpec(count=count)
        loop = loop_verify(CURVES[cid], params, spec)
        _same_within_tolerance(loop, _sample(CURVES[cid], params, spec))
        rep = verify_curve(cid, params, spec)
        residuals = [s.residual for s in loop[0]]
        assert rep.verdict() == ("pass" if matched else "fail")
        assert rep.verdict() == ("pass" if max(residuals) < ACCEPT_TOL else "fail")

    @pytest.mark.parametrize("count", [1, 7, 25])
    @pytest.mark.parametrize("poly,reason", [
        (T, "degenerate polynomial"),
        (Y ** 3 - T * Y, "y in {0, 1, t}"),  # a zero root from a trailing zero
        # the triple root; a double root as (y-2)^2 (y-t) keeps |P_y| ~ 5e-8
        # above the floor, since eigvals places it only ~1.5e-8 off
        ((Y - 2) ** 3 * (Y - T), "singular point (dP/dy ~ 0)"),
        (F(1, 3) * Y ** 3 + F(5, 7) * T ** 2 * Y - F(2, 9) * T + 3 * T ** 2, None),
    ])
    def test_every_skip_reason(self, poly, reason, count):
        params, spec = params_convert(alpha_of(1, 1, 2, 2)), SampleSpec(count=count)
        loop = loop_verify(poly, params, spec)
        batch = _sample(poly, params, spec)
        _same_within_tolerance(loop, batch)
        if reason is not None:
            assert reason in {s.reason for s in batch[1]}

    @pytest.mark.parametrize("poly,center,reasons", [
        (CURVES[CurveId.A], 0j, {"t in {0, 1}"}),
        (Y - 2, 1 + 0j, {"t in {0, 1}"}),
        # the root y ~ 1 collides first, so only y ~ -1 reaches the t test
        (CURVES[CurveId.A], 1 + 0j, {"y in {0, 1, t}", "t in {0, 1}"}),
    ])
    def test_t_near_a_fixed_singular_point(self, poly, center, reasons):
        # the case of test_every_skip_reason that needs its own sample circle
        params = params_convert(alpha_of(1, 1, 2, 2))
        spec = SampleSpec(center=center, radius=1e-11, count=3)
        loop = loop_verify(poly, params, spec)
        batch = _sample(poly, params, spec)
        _same_within_tolerance(loop, batch)
        assert batch[0] == [] and {s.reason for s in batch[1]} == reasons

    def test_t_within_the_exclusion_tolerance(self):
        # 1e-9 from t = 0: far enough for the roots y ~ +-3e-5 to clear the
        # y test, near enough that a residual there is not a verdict
        params = params_convert(alpha_of(1, 1, 2, 2))
        spec = SampleSpec(center=0j, radius=1e-9, count=3)
        loop = loop_verify(CURVES[CurveId.A], params, spec)
        batch = _sample(CURVES[CurveId.A], params, spec)
        _same_within_tolerance(loop, batch)
        assert batch[0] == [] and {s.reason for s in batch[1]} == {"t in {0, 1}"}
        with pytest.raises(NoValidSamplesError):
            verify_curve(CurveId.A, params, spec)

    def test_root_polishing_failure_is_reachable(self):
        # |P| of a scaled double root sits at rounding level near the 1e-9
        # acceptance, so which roots fail depends on the last bits of P, which
        # the loop (term sums) and the batch (Horner) round differently: only
        # the reason itself is compared
        poly, params = 10 ** 12 * (Y - 2) ** 2 * (Y - T), params_convert(alpha_of(1, 1, 2, 2))
        for samples, skipped in (loop_verify(poly, params, SampleSpec(count=7)),
                                 _sample(poly, params, SampleSpec(count=7))):
            assert "root polishing failed" in {s.reason for s in skipped}
            assert len(samples) + len(skipped) == 21

    def test_jets_against_the_loop(self, monkeypatch):
        rng = random.Random(3)
        monkeypatch.setattr(verifier, "PY_FLOOR", 0.0)
        for cid in CurveId:
            c = _Compiled(CURVES[cid])
            for _ in range(5):
                t = complex(rng.uniform(0.3, 0.7), rng.uniform(-0.2, 0.2))
                y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                want = _jet(c, t, y, 0.0)
                got = implicit_derivs(CURVES[cid], t, y)
                assert all(abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want))
                params = params_convert(CANONICAL_ALPHA[cid])
                assert pvi_residual(params, t, y, *want) == pytest.approx(
                    _pvi_residual(params, t, y, *want), rel=1e-12)


class TestSampleLimit:
    def test_limit_is_checked_before_the_work(self):
        assert SampleSpec(count=MAX_SAMPLES).count == MAX_SAMPLES
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            SampleSpec(count=MAX_SAMPLES + 1)

    @pytest.mark.parametrize("count", [0, -3, 2.5, True, "25", None])
    def test_count_must_be_a_positive_int(self, count):
        with pytest.raises(ValueError, match="positive int"):
            SampleSpec(count=count)

    @pytest.mark.parametrize("center,radius", [
        (complex("nan"), 0.25), (complex(0.5, float("inf")), 0.25), (complex("-inf"), 0.25),
        (0.5 + 0j, float("nan")), (0.5 + 0j, float("inf")), (0.5 + 0j, -float("inf")),
    ])
    def test_circle_must_be_finite(self, center, radius):
        with pytest.raises(ValueError, match="finite"):
            SampleSpec(center=center, radius=radius)

    @pytest.mark.parametrize("radius", [0, 0.0, -0.0])
    def test_radius_must_be_nonzero(self, radius):
        with pytest.raises(ValueError, match="nonzero"):
            SampleSpec(radius=radius)


def _dump(poly, params, spec):
    """The samples and skips of a pass, every float to the bit."""
    samples, skipped = _sample(poly, params, spec)
    return [(s.t, s.y, s.residual.hex()) for s in samples], skipped


@pytest.fixture
def cold_cache():
    verifier._cached_branches.cache_clear()
    yield verifier._cached_branches
    verifier._cached_branches.cache_clear()


class TestBranchCache:
    """The parameter-free stage is cached; a warm call is a cold call to the bit."""

    SKIP_CASES = [
        (T, SampleSpec(count=7)),
        (Y ** 3 - T * Y, SampleSpec(count=7)),
        ((Y - 2) ** 3 * (Y - T), SampleSpec(count=25)),
        (F(1, 3) * Y ** 3 + F(5, 7) * T ** 2 * Y - F(2, 9) * T + 3 * T ** 2, SampleSpec(count=1)),
        (CURVES[CurveId.A], SampleSpec(center=0j, radius=1e-11, count=3)),
        (CURVES[CurveId.A], SampleSpec(center=1 + 0j, radius=1e-11, count=3)),
        (CURVES[CurveId.A], SampleSpec(center=0j, radius=1e-9, count=3)),
        (10 ** 12 * (Y - 2) ** 2 * (Y - T), SampleSpec(count=7)),
    ]

    @staticmethod
    def warm_and_cold(cache, poly, alphas, spec):
        params = [params_convert(a) for a in alphas]
        warm = [_dump(poly, p, spec) for p in params]
        assert cache.cache_info().hits >= len(params) - 1
        for p, got in zip(params, warm):
            cache.cache_clear()
            assert got == _dump(poly, p, spec)

    def test_warm_equals_cold_on_the_canonical_curves(self, cold_cache):
        rng = random.Random(8)
        alphas = [alpha_of(*(F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4)))
                  for _ in range(30)] + list(CANONICAL_ALPHA.values())
        for cid in CurveId:
            for spec in (SampleSpec(), SampleSpec(count=6)):
                self.warm_and_cold(cold_cache, CURVES[cid], alphas, spec)

    @pytest.mark.parametrize("poly,spec", SKIP_CASES)
    def test_warm_equals_cold_with_skips(self, cold_cache, poly, spec):
        rng = random.Random(9)
        alphas = [alpha_of(*(F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4)))
                  for _ in range(10)]
        self.warm_and_cold(cold_cache, poly, alphas, spec)

    def test_warm_reports_equal_cold_reports(self, cold_cache):
        params, spec = params_convert(alpha_of(1, 1, 2, 2)), SampleSpec(count=9)
        warm = [verify_curve(cid, params, spec).to_json_dict() for cid in CurveId for _ in "ab"]
        cold_cache.cache_clear()
        cold = [verify_curve(cid, params, spec).to_json_dict() for cid in CurveId for _ in "ab"]
        assert repr(warm) == repr(cold)
        assert cold_cache.cache_info().hits == 7

    @pytest.mark.parametrize("poly", [
        (1 + T + T ** 2) * (Y ** 2 - T),  # three terms at y^2 and at y^0
        F(1, 3) * Y ** 3 + F(5, 7) * T ** 2 * Y - F(2, 9) * T + 3 * T ** 2, CURVES[CurveId.E],
    ])
    def test_term_order_does_not_reach_a_pass(self, cold_cache, poly):
        # a pass sums P's terms in str(P) order, so an equal polynomial built
        # in another order gets the same bits and shares one cache entry
        flipped = MultiPoly(dict(reversed(poly.terms.items())), poly.vars)
        assert flipped == poly and tuple(flipped.terms) != tuple(poly.terms)
        params, spec = params_convert(alpha_of(1, 1, 2, 2)), SampleSpec(count=11)
        cold = {}
        for p in (poly, flipped):
            cold_cache.cache_clear()
            cold[p is poly] = _dump(p, params, spec)
        assert cold[True] == cold[False]
        cold_cache.cache_clear()
        for p in (poly, flipped, poly, flipped):
            assert _dump(p, params, spec) == cold[True]
        assert cold_cache.cache_info().currsize == 1
        t, y, _ = cold[True][0][0]
        assert implicit_derivs(flipped, t, y) == implicit_derivs(poly, t, y)

    @pytest.mark.parametrize("name,value", [
        ("NEWTON_TOL", 0.0),  # no root is accepted before its step falls to rounding
        ("EXCLUSION_TOL", 0.3),
        ("PY_FLOOR", 0.5),
    ])
    def test_a_changed_tolerance_is_not_served_stale(self, cold_cache, monkeypatch, name, value):
        poly, spec = CURVES[CurveId.D], SampleSpec(count=12)
        params = params_convert(CANONICAL_ALPHA[CurveId.D])
        before = _dump(poly, params, spec)
        monkeypatch.setattr(verifier, name, value)
        warm = _dump(poly, params, spec)
        cold_cache.cache_clear()
        assert warm == _dump(poly, params, spec) != before

    def test_cached_arrays_are_read_only(self, cold_cache):
        _assert_read_only((CURVES[CurveId.D],), SampleSpec())

    def test_a_pass_above_the_bound_is_not_kept(self, cold_cache):
        params = params_convert(alpha_of(1, 1, 2, 2))
        bound = verifier._BRANCH_CACHE_ROOTS
        verify_curve(Y ** 8 - T, params, SampleSpec(count=bound // 8))
        assert cold_cache.cache_info().currsize == 1
        for poly, count in ((Y ** 8 - T, bound // 8 + 1), (Y ** 2 - T, MAX_SAMPLES)):
            verify_curve(poly, params, SampleSpec(count=count))
            assert cold_cache.cache_info().currsize == 1

    def test_the_cache_holds_a_bounded_number_of_passes(self, cold_cache):
        params = params_convert(alpha_of(1, 1, 2, 2))
        for count in range(1, verifier._BRANCH_CACHE_SIZE + 10):
            _sample(CURVES[CurveId.A], params, SampleSpec(count=count))
        assert cold_cache.cache_info().currsize == verifier._BRANCH_CACHE_SIZE


def _assert_read_only(polys, spec):
    """The arrays of the pass over ``polys`` refuse writes; its other fields are tuples."""
    found = verifier._find_branches(polys, spec)
    for a in (found.keep, found.y2) + found.rhs:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        found.y2[0] = 0
    assert type(found.curves) is tuple and type(found.rhs) is tuple
    assert len(found.curves) == len(polys)
    assert all(type(x) is tuple for curve in found.curves for x in curve)


def _per_curve_classify(alpha, spec):
    """classify(alpha, verify=True, spec=spec) made of one verify_curve call
    per canonical curve, as it was before the seven-curve pass: the reference
    that pass must reproduce, exceptions and messages included."""
    a = coerce_alpha(alpha)
    listed, params = pattern_curves(a), params_convert(a)
    reports = {}
    for cid in CurveId:
        report = reports[cid] = verify_curve(cid, params, spec)
        verdict = report.verdict()
        if cid in listed and verdict != "pass":
            raise VerificationError(
                f"curve {cid} is classified as a solution but its residual "
                f"{report.max_residual:.3e} exceeds {verifier.ACCEPT_TOL:g}")
        if cid not in listed and verdict != "fail":
            raise VerificationError(
                f"curve {cid} is not classified as a solution but its residual "
                f"{report.max_residual:.3e} is not above {verifier.REJECT_TOL:g}")
    return ClassificationResult(kind="finite_list" if listed else "empty",
                                curves=tuple(listed), reports=reports)


def _outcome(run):
    try:
        return json.dumps(run().to_json_dict())
    except (VerificationError, NoValidSamplesError) as exc:
        return type(exc).__name__, str(exc)


def _roots(entry):
    """Root slots of a cached pass, over all of its curves."""
    return sum(len(ts) + len(skipped) for skipped, ts, _ in entry.curves)


class TestJoinedPass:
    """classify takes the seven curves in one pass, and each curve of a pass
    over several is its pass alone; every report is the one verify_curve
    gives, to the bit."""

    ALPHAS = [alpha_of(*a) for a in (
        (1, 1, 1, 1), (1, 1, 2, 2), (3, 5, 3, 5), ("1/2", 7, 7, "1/2"), (9, 1, 1, 1),
        (-2, -18, -2, -2), ("1/8", "1/8", "9/8", "1/8"), (1, 1, 1, 9),
        (1, 2, 3, 4), ("-5/3", 2, "1/7", 0), (0, 0, 2, 2), (2, 2, 2, 3),
    )]
    TOLERANCES = [None, ("NEWTON_TOL", 0.0), ("EXCLUSION_TOL", 0.3), ("EXCLUSION_TOL", 0.1), ("PY_FLOOR", 0.5)]
    COUNTS = [1, 7, 25, 60]  # 60 * 22 roots is above the cache bound

    @pytest.mark.parametrize("tolerance", TOLERANCES)
    @pytest.mark.parametrize("count", COUNTS)
    def test_joined_residuals_equal_single_passes(self, cold_cache, monkeypatch, tolerance, count):
        if tolerance:
            monkeypatch.setattr(verifier, *tolerance)
        polys, spec = tuple(CURVES[cid] for cid in CurveId), SampleSpec(count=count)
        for alpha in self.ALPHAS:
            params = params_convert(alpha)
            for poly, got in zip(polys, verifier._residuals(polys, params, spec)):
                _same_bits(got, *verifier._residuals((poly,), params, spec))

    # y-degrees 0 to 6, a constant, every skip reason and the canonical curves
    MIXED = [
        T, MultiPoly.constant(3), Y - 2, Y ** 2 - T, Y ** 3 - T * Y, (Y - 2) ** 3 * (Y - T),
        10 ** 12 * (Y - 2) ** 2 * (Y - T), Y ** 5 - T * Y ** 2 + 3 * T, Y ** 6 - T ** 5 * Y + T,
        F(1, 3) * Y ** 3 + F(5, 7) * T ** 2 * Y - F(2, 9) * T + 3 * T ** 2,
    ] + [CURVES[cid] for cid in CurveId]

    @pytest.mark.parametrize("spec", [
        SampleSpec(count=7), SampleSpec(count=60),  # 60 samples: no tuple here is cached
        SampleSpec(center=0j, radius=1e-9, count=3), SampleSpec(center=1 + 0j, radius=1e-9, count=3),
    ], ids=["count7", "count60", "near0", "near1"])
    def test_mixed_tuples_equal_single_passes(self, cold_cache, spec):
        rng = random.Random(20)
        tuples = [tuple(self.MIXED)] + [tuple(rng.sample(self.MIXED, rng.randint(2, 7)))
                                        for _ in range(40)]
        params = [params_convert(alpha_of(1, 1, 2, 2)), params_convert(alpha_of(1, 2, 3, 4))]
        reasons = set()
        for polys in tuples:
            for p in params:
                for poly, got in zip(polys, verifier._residuals(polys, p, spec)):
                    _same_bits(got, *verifier._residuals((poly,), p, spec))
                    reasons.update(s.reason for s in got[0])
        if spec.radius > 1e-9:
            assert reasons == set(verifier._REASONS[1:]) - {"t in {0, 1}"}
        else:
            assert {"degenerate polynomial", "t in {0, 1}"} <= reasons

    @pytest.mark.parametrize("tolerance", TOLERANCES + [("ACCEPT_TOL", 1e-30),
                                                        ("REJECT_TOL", 1e12)])
    @pytest.mark.parametrize("count", COUNTS)
    def test_classify_equals_verify_curve(self, cold_cache, monkeypatch, tolerance, count):
        if tolerance:
            monkeypatch.setattr(verifier, *tolerance)
        spec = SampleSpec(count=count)
        for alpha in self.ALPHAS:
            assert _outcome(lambda: classify(alpha, verify=True, spec=spec)) == \
                _outcome(lambda: _per_curve_classify(alpha, spec))
            try:
                result = classify(alpha, verify=True, spec=spec)
            except (VerificationError, NoValidSamplesError):
                continue
            params = params_convert(alpha)
            for cid, report in result.reports.items():
                single = verify_curve(cid, params, spec)
                assert json.dumps(report.to_json_dict()) == json.dumps(single.to_json_dict())
                assert report.skipped == single.skipped
                assert report.verdict() == single.verdict()

    def test_a_real_empty_pass_still_raises(self):
        # every root of A at t within 1e-9 of 0 is skipped: the pass of A is
        # empty and classify raises before any verdict
        with pytest.raises(NoValidSamplesError, match="every sample was skipped"):
            classify((9, 1, 1, 1), verify=True, spec=SampleSpec(count=3, center=0j, radius=1e-9))

    def test_the_join_is_one_more_entry(self, cold_cache):
        spec = SampleSpec(count=25)
        params = params_convert(alpha_of(9, 1, 1, 1))
        for cid in CurveId:
            verify_curve(cid, params, spec)
        info = cold_cache.cache_info()
        classify((9, 1, 1, 1), verify=True, spec=spec)
        # the seven-curve pass is its own entry beside the one-curve passes:
        # one miss
        assert cold_cache.cache_info().misses == info.misses + 1
        assert cold_cache.cache_info().currsize == 8
        info = cold_cache.cache_info()
        classify((1, 2, 3, 4), verify=True, spec=spec)
        assert cold_cache.cache_info()[:2] == (info.hits + 1, info.misses)

    @pytest.mark.parametrize("count,entries", [(25, 1), (46, 1), (47, 0), (60, 0)])
    def test_no_entry_above_the_bound(self, cold_cache, monkeypatch, count, entries):
        # 22 roots per sample over the seven curves: their pass is kept up to
        # 46 samples, and above that computed on each call
        returned = []

        def recording(*key):
            returned.append(cold_cache(*key))
            return returned[-1]

        monkeypatch.setattr(verifier, "_cached_branches", recording)
        spec = SampleSpec(count=count)
        classify((1, 1, 2, 2), verify=True, spec=spec)
        assert cold_cache.cache_info().currsize == len(returned) == entries
        assert all(_roots(entry) <= verifier._BRANCH_CACHE_ROOTS for entry in returned)
        info = cold_cache.cache_info()
        classify((1, 2, 3, 4), verify=True, spec=spec)
        # nothing that is cached is computed again
        assert cold_cache.cache_info().misses == info.misses

    def test_joined_arrays_are_read_only(self, cold_cache):
        # the seven-curve pass below and above the cache bound
        for count in (25, 60):
            _assert_read_only(tuple(CURVES[cid] for cid in CurveId), SampleSpec(count=count))


class TestRootWork:
    """A pass whose eigenvalue solves would take too long is refused first."""

    DEG255 = Y ** 255 + T ** 255 + Y * T - 1

    def test_the_limit_admits_every_pinned_input(self):
        # y^64 at 100 samples is the largest pass a test or CI runs
        assert 100 * 64 ** 3 <= verifier.MAX_ROOT_WORK < 25 * 255 ** 3

    def test_refused_before_any_work(self, cold_cache, monkeypatch):
        def no_work(*args):
            raise AssertionError("the coefficient table was built")

        monkeypatch.setattr(verifier, "_in_y", no_work)
        params = params_convert(alpha_of(1, 1, 2, 2))
        for count in (25, 4):
            with pytest.raises(ValueError, match="root-finding limit") as info:
                verify_curve(self.DEG255, params, SampleSpec(count=count))
            assert "\n" not in str(info.value) and str(verifier.MAX_ROOT_WORK) in str(info.value)
        assert cold_cache.cache_info().currsize == 0

    def test_the_limit_is_inclusive(self, cold_cache, monkeypatch):
        monkeypatch.setattr(verifier, "MAX_ROOT_WORK", 7 * 4 ** 3)
        params = params_convert(CANONICAL_ALPHA[CurveId.D])
        assert verify_curve(CurveId.D, params, SampleSpec(count=7)).verdict() == "pass"
        with pytest.raises(ValueError, match="root-finding limit"):
            verify_curve(CurveId.D, params, SampleSpec(count=8))
        with pytest.raises(ValueError, match="root-finding limit"):
            classify(CANONICAL_ALPHA[CurveId.D], verify=True, spec=SampleSpec(count=8))

    def test_every_curve_is_checked_before_any_table(self, cold_cache, monkeypatch):
        # the conics are within the limit and D is not: nothing is built for them
        def no_work(*args):
            raise AssertionError("the coefficient table was built")

        monkeypatch.setattr(verifier, "MAX_ROOT_WORK", 7 * 4 ** 3)
        monkeypatch.setattr(verifier, "_in_y", no_work)
        with pytest.raises(ValueError, match="root-finding limit") as info:
            classify((9, 1, 1, 1), verify=True, spec=SampleSpec(count=8))
        assert "\n" not in str(info.value) and "degree 4" in str(info.value)
        assert cold_cache.cache_info().currsize == 0


def _eager_report(cid, params, spec):
    """The report of verify_curve, built through the public constructor."""
    samples, skipped = _sample(CURVES[cid], params, spec)
    residuals = [s.residual for s in samples]
    return ResidualReport(curve=cid.value, params=params, samples=tuple(samples),
                          skipped=tuple(skipped), max_residual=max(residuals),
                          median_residual=statistics.median(residuals))


@pytest.fixture
def sample_builds(monkeypatch):
    """The number of ResidualSample constructions so far, wherever made."""
    count = [0]
    init = ResidualSample.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResidualSample, "__init__", counting_init)
    return lambda: count[0]


class TestPassMemory:
    def test_one_coefficient_table(self, cold_cache):
        # count * deg_y = 6400 roots; a copy of the (6, 65, 100) table per
        # root would be 6 * 65 * 6400 complex numbers, 40 MB
        import tracemalloc

        params = params_convert(alpha_of(1, 1, 2, 2))
        tracemalloc.start()
        try:
            verify_curve(Y ** 64 + T ** 3 * Y - 2 * T, params, SampleSpec(count=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20

    def test_seven_curves_at_a_thousand_samples(self, cold_cache):
        # one (6, 5, 7 * 1000) table, 3.4 MB, and one entry per root of the
        # seven curves, 22 000 roots
        import tracemalloc

        tracemalloc.start()
        try:
            classify((9, 1, 1, 1), verify=True, spec=SampleSpec(count=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


class TestLazySamples:
    """A report from verify_curve keeps its samples as columns and builds the
    ResidualSamples on first read; it equals the report built eagerly."""

    @pytest.mark.parametrize("matched", [True, False])
    @pytest.mark.parametrize("cid", list(CurveId))
    def test_equals_the_eager_report(self, cid, matched, sample_builds):
        params = params_convert(CANONICAL_ALPHA[cid] if matched else alpha_of(1, 2, 3, 4))
        spec = SampleSpec(count=9)
        eager = _eager_report(cid, params, spec)
        lazy = verify_curve(cid, params, spec)
        built = sample_builds()
        # the emitters read the columns, to the bit
        assert json.dumps(lazy.to_json_dict()) == json.dumps(eager.to_json_dict())
        assert repr(lazy.csv_rows()) == repr(eager.csv_rows())
        assert (lazy.max_residual, lazy.median_residual) == (eager.max_residual,
                                                              eager.median_residual)
        assert sample_builds() == built
        # reading the samples builds them once and keeps them
        assert lazy.samples == eager.samples
        assert sample_builds() == built + len(eager.samples)
        assert lazy.samples is lazy.samples
        assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)

    @pytest.mark.parametrize("matched", [True, False])
    @pytest.mark.parametrize("cid", list(CurveId))
    def test_copies_and_frozenness(self, cid, matched):
        params = params_convert(CANONICAL_ALPHA[cid] if matched else alpha_of(1, 2, 3, 4))
        spec = SampleSpec(count=9)
        eager = _eager_report(cid, params, spec)
        # each copy is made before the samples of its original were read
        copies = [pickle.loads(pickle.dumps(verify_curve(cid, params, spec), protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(verify_curve(cid, params, spec)),
                   copy.deepcopy(verify_curve(cid, params, spec)),
                   dataclasses.replace(verify_curve(cid, params, spec))]
        for other in copies:
            assert json.dumps(other.to_json_dict()) == json.dumps(eager.to_json_dict())
            assert repr(other.csv_rows()) == repr(eager.csv_rows())
            assert other == eager and hash(other) == hash(eager) and repr(other) == repr(eager)
        lazy = verify_curve(cid, params, spec)
        renamed = dataclasses.replace(lazy, curve="X")
        assert renamed.curve == "X" and renamed.samples == eager.samples
        assert renamed.to_json_dict()["samples"] == eager.to_json_dict()["samples"]
        for name in [f.name for f in dataclasses.fields(ResidualReport)] + ["_columns"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lazy, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(lazy, name)
        assert lazy == eager

    def test_only_samples_is_built(self):
        rep = verify_curve(CurveId.A, params_convert(alpha_of(1, 1, 2, 2)))
        with pytest.raises(AttributeError, match="'ResidualReport' object has no attribute"):
            rep.residuals

    def test_classify_builds_no_sample(self, sample_builds):
        result = classify((9, 1, 1, 1), verify=True)
        result.to_json_dict()
        for rep in result.reports.values():
            rep.csv_rows()
        assert sample_builds() == 0
        with pytest.raises(NoValidSamplesError):
            verify_curve(Y - T, params_convert(alpha_of(1, 1, 2, 2)))
        assert sample_builds() == 0
        assert len(result.reports[CurveId.D].samples) == sample_builds() == 100


class TestClassify:
    def test_canonical_inputs(self):
        assert classify((0, 0, 0, 0)).kind == "picard_family"
        assert classify((1, 1, 1, 1)).curves == (CurveId.A, CurveId.B, CurveId.C)
        assert classify(("1/8", "1/8", "1/8", "1/8")).curves == (
            CurveId.A, CurveId.B, CurveId.C)
        assert classify((9, 1, 1, 1)).curves == (CurveId.D,)
        assert classify((1, 9, 1, 1)).curves == (CurveId.E,)
        assert classify((1, 1, 9, 1)).curves == (CurveId.F,)
        assert classify((1, 1, 1, 9)).curves == (CurveId.G,)
        assert classify((1, 2, 3, 4)).kind == "empty"

    def test_accepts_params_object(self):
        params = PviParams(F(9, 8), F(-1, 8), F(1, 8), F(3, 8))
        assert classify(params).curves == (CurveId.D,)

    def test_ratio_scaling(self):
        assert classify(("9/8", "1/8", "1/8", "1/8")).curves == (CurveId.D,)
        assert classify((-9, -1, -1, -1)).curves == (CurveId.D,)

    def test_zero_on_line(self):
        # a0 = a1 = 0 with a2 = a3 nonzero still satisfies the first line
        assert classify((0, 0, 2, 2)).curves == (CurveId.A,)

    def test_count_bound(self):
        rng = random.Random(77)
        for _ in range(300):
            a = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            result = classify(a)
            assert len(result.curves) <= 3
            if len(result.curves) == 3:
                assert a[0] == a[1] == a[2] == a[3] != 0

    def test_s3_equivariance(self):
        # transposing parameter slots permutes the listed curves accordingly
        swaps = {
            (1, 2): {"A": "B", "B": "A", "C": "C", "D": "D", "E": "F", "F": "E", "G": "G"},
            (1, 3): {"A": "C", "C": "A", "B": "B", "D": "D", "E": "G", "G": "E", "F": "F"},
            (2, 3): {"B": "C", "C": "B", "A": "A", "D": "D", "F": "G", "G": "F", "E": "E"},
        }
        rng = random.Random(88)
        pool = [
            (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1), (9, 1, 1, 1), (1, 9, 1, 1),
            (1, 1, 9, 1), (1, 1, 1, 9), (1, 1, 1, 1), (1, 2, 3, 4),
        ] + [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(40)]
        for a in pool:
            base = {c.value for c in classify(a).curves}
            for (i, j), table in swaps.items():
                swapped = list(a)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                got = {c.value for c in classify(swapped).curves}
                assert got == {table[c] for c in base}, (a, (i, j))

    def test_verified_agreement(self):
        result = classify((1, 1, 2, 2), verify=True, spec=SampleSpec(count=10))
        assert result.curves == (CurveId.A,)
        assert result.reports[CurveId.A].max_residual < ACCEPT_TOL
        assert result.reports[CurveId.D].max_residual > REJECT_TOL

    def test_verification_error_is_loud(self, monkeypatch):
        # an absurd rejection threshold forces the inconclusive branch
        monkeypatch.setattr(verifier, "REJECT_TOL", 1e12)
        with pytest.raises(VerificationError):
            classify((1, 1, 2, 2), verify=True, spec=SampleSpec(count=5))

    def test_completeness_cross_check(self):
        # random rational grid: the rule-based list and the numeric verdicts
        # must agree for every canonical curve (loud error otherwise)
        rng = random.Random(20250808)
        spec = SampleSpec(count=6)
        seen_nonempty = 0
        for k in range(200):
            if k % 3 == 0:
                # bias towards structured tuples so curves actually appear
                c, d = F(rng.randint(1, 5)), F(rng.randint(1, 6), rng.choice((1, 2)))
                a = rng.choice([
                    (c, c, d, d), (c, d, c, d), (c, d, d, c),
                    (9 * c, c, c, c), (c, 9 * c, c, c), (c, c, 9 * c, c),
                    (c, c, c, 9 * c),
                ])
            else:
                a = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))
            result = classify(a, verify=not coerce_alpha(a).is_zero(), spec=spec)
            seen_nonempty += bool(result.curves)
        assert seen_nonempty >= 60


class TestOrbitToCurve:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((F(1, 4), 0), CurveId.A),
            ((0, F(1, 4)), CurveId.B),
            ((F(1, 4), F(1, 4)), CurveId.C),
            ((F(1, 3), F(1, 3)), CurveId.D),
            ((F(1, 3), 0), CurveId.D),
            ((F(2, 3), 0), CurveId.D),
            ((F(1, 6), 0), CurveId.E),
            ((0, F(1, 6)), CurveId.F),
            ((F(1, 6), F(1, 6)), CurveId.G),
            ((F(1, 4), F(1, 2)), CurveId.A),
            ((F(5, 6), 0), CurveId.E),
        ],
    )
    def test_assignments(self, v, expected):
        assert orbit_to_curve(canonicalize(v)) == expected

    @pytest.mark.parametrize("v", [(F(1, 5), 0), (F(1, 7), F(2, 7)), (F(1, 8), 0)])
    def test_long_orbits_have_no_curve(self, v):
        assert orbit_to_curve(canonicalize(v)) is None

    def test_half_integer_rejected(self):
        with pytest.raises(ValueError):
            orbit_to_curve(canonicalize((F(1, 2), F(1, 2))))

    def test_numeric_cross_check(self):
        # the assignment is pinned by evaluation: the labeled points must land
        # on their curve and the matching parameter pattern must kill the
        # four-term derivative sum
        for v, cid in [
            ((F(1, 4), 0), CurveId.A), ((0, F(1, 4)), CurveId.B),
            ((F(1, 4), F(1, 4)), CurveId.C), ((F(1, 3), F(1, 3)), CurveId.D),
            ((F(1, 6), 0), CurveId.E), ((0, F(1, 6)), CurveId.F),
            ((F(1, 6), F(1, 6)), CurveId.G),
        ]:
            for tau in (1j, 0.3 + 0.8j):
                t, y = picard_eval(v, tau)
                assert abs(complex(CURVES[cid](y=y, t=t))) < 1e-7
                assert abs(reduction_residual(CANONICAL_ALPHA[cid], v, tau)) < 1e-7


class TestCrossModuleConsistency:
    def test_picard_points_on_curve_and_sextic(self):
        v = canonicalize((F(1, 4), 0))
        for c, d in ((F(1), F(2)), (F(2, 3), F(-1, 5))):
            alpha = AlphaTuple(c, c, d, d)
            sextic = master_poly(list(alpha))
            for tau in (1j, 1 + 2j, 3j, 0.3 + 0.8j, -0.4 + 1.1j):
                t, y = picard_eval(v, tau)
                assert abs(complex(CURVES[CurveId.A](y=y, t=t))) < 1e-7
                assert abs(complex(sextic(y=y, t=t))) < 1e-6
                assert abs(reduction_residual(alpha, v, tau)) < 1e-8


class TestPatternRuleAgainstSextic:
    """The rule read off the curve table agrees with exact division of the sextic."""

    SCALES = (F(-7, 3), F(-1), F(0), F(1, 2), F(5))

    @staticmethod
    def dividing_curves(alpha):
        master = master_poly(alpha)
        return tuple(cid for cid in CurveId if master.try_divide(CURVES[cid]) is not None)

    def check(self, points):
        points = [a for a in points if any(a)]
        assert points
        for alpha in points:
            assert classify(alpha).curves == self.dividing_curves(alpha), alpha

    def test_random_small_rationals(self):
        rng = random.Random(4711)
        self.check([tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
                    for _ in range(150)])

    def test_scaled_patterns(self):
        points = set()
        for alpha in map(tuple, CANONICAL_ALPHA.values()):
            points.update(tuple(k * a for a in alpha) for k in self.SCALES)
            # c where the canonical point has its first entry, d elsewhere
            points.update(
                tuple(c if a == alpha[0] else d for a in alpha)
                for c in self.SCALES for d in self.SCALES
            )
        self.check(sorted(points))

    def test_signed_unit_cube(self):
        self.check(list(itertools.product((-1, 0, 1), repeat=4)))


def test_median_is_statistics_median():
    # the aggregate of a report, bit for bit: odd and even counts, ties, and
    # residuals spread over many decades
    rng = random.Random(11)
    for n in list(range(1, 12)) + [100, 101]:
        for _ in range(20):
            residuals = tuple(rng.choice([1e-15, 3e-13, 1e-3]) * rng.random() for _ in range(n))
            assert verifier._median(residuals).hex() == statistics.median(residuals).hex()
