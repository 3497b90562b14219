"""Each pvi record against a real frozen dataclass twin: the same init,
repr, equality, hash, ordering, fields, protocol functions, refusals,
match args and copies."""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import pytest

from pvi.curves import CurveId, IrreducibilityResult
from pvi.elliptic import AlphaTuple, EllipticInvariants
from pvi.multipoly import MultiPoly
from pvi.orbits import Gamma2Matrix, RationalPair, StandardForm, canonicalize
from pvi.selftest import CheckResult
from pvi.verifier import (
    ClassificationResult,
    PviParams,
    ResidualReport,
    ResidualSample,
    SampleSpec,
    SkippedSample,
)

F = Fraction


class Twin:
    """The records as ``@dataclass(frozen=True)`` declares them, with the
    methods a record defines itself copied over."""

    @dataclass(frozen=True, order=True)
    class RationalPair:
        mu: Fraction
        nu: Fraction

        def __hash__(self):
            return hash((self.mu.numerator, self.mu.denominator,
                         self.nu.numerator, self.nu.denominator))

        __post_init__ = RationalPair.__post_init__

    @dataclass(frozen=True)
    class Gamma2Matrix:
        a: int
        b: int
        c: int
        d: int
        __post_init__ = Gamma2Matrix.__post_init__

    @dataclass(frozen=True)
    class StandardForm:
        M: int
        N: int
        m: int
        n: int
        standard: RationalPair

    @dataclass(frozen=True)
    class EllipticInvariants:
        e1: complex
        e2: complex
        e3: complex
        g2: complex
        g3: complex
        t: complex

    @dataclass(frozen=True)
    class AlphaTuple:
        a0: Union[Fraction, complex]
        a1: Union[Fraction, complex]
        a2: Union[Fraction, complex]
        a3: Union[Fraction, complex]

    @dataclass(frozen=True)
    class IrreducibilityResult:
        status: str
        witness: MultiPoly | None = None
        certificate: tuple[int, int] | None = None

    @dataclass(frozen=True)
    class PviParams:
        alpha: Union[Fraction, complex]
        beta: Union[Fraction, complex]
        gamma: Union[Fraction, complex]
        delta: Union[Fraction, complex]

    @dataclass(frozen=True)
    class SampleSpec:
        count: int = 25
        center: complex = 0.5 + 0j
        radius: float = 0.25
        __post_init__ = SampleSpec.__post_init__

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
        curve: Optional[str]
        params: PviParams
        ts: tuple[complex, ...]
        ys: tuple[complex, ...]
        residuals: tuple[float, ...]
        skipped: tuple[SkippedSample, ...]
        max_residual: float
        median_residual: float
        samples = ResidualReport.samples

    @dataclass(frozen=True)
    class ClassificationResult:
        kind: str
        curves: tuple[CurveId, ...] = ()
        picard_note: Optional[str] = None
        reports: Optional[dict] = field(default=None, compare=False)

    @dataclass(frozen=True)
    class CheckResult:
        name: str
        passed: bool
        detail: str
        seconds: float


_PARAMS = PviParams(F(1, 2), F(-1, 2), F(1, 8), F(3, 8))
_COLUMNS = ((0.5 + 0.25j, 0.25 + 0j), (1 - 2j, 2j), (3e-13, 1e-12))  # ts, ys, residuals
_SKIPPED = (SkippedSample(0.75 + 0j, "singular"),)

# per record: argument tuples, the first two unequal, the last equal to the
# first unless its class leaves a field out of the comparison
CASES = {
    RationalPair: [(F(1, 5), F(2, 5)), (F(1, 3), F(0)), (F(1, 5), F(2, 5))],
    Gamma2Matrix: [(1, 2, 0, 1), (3, 2, 4, 3), (1, 2, 0, 1)],
    StandardForm: [(1, 5, 0, 1, canonicalize((0, F(1, 5)))),
                   (2, 7, 1, 1, canonicalize((F(2, 7), F(2, 7)))),
                   (1, 5, 0, 1, canonicalize((0, F(1, 5))))],
    EllipticInvariants: [(1 + 0j, -0.5 + 1j, -0.5 - 1j, 3j, 0.25 + 0j, 0.5 + 0.5j),
                         (2 + 0j, -1 + 0j, -1 + 0j, 6 + 0j, -8 + 0j, 0.1j),
                         (1 + 0j, -0.5 + 1j, -0.5 - 1j, 3j, 0.25 + 0j, 0.5 + 0.5j)],
    AlphaTuple: [(F(1), F(1), F(2), F(2)), (1j, 0.5, F(1, 3), 2), (F(1), F(1), F(2), F(2))],
    IrreducibilityResult: [("irreducible", None, (3, 7)),
                           ("reducible", MultiPoly.parse("y - t")),
                           ("irreducible", None, (3, 7))],
    PviParams: [(F(1, 2), F(-1, 2), F(1, 8), F(3, 8)), (1j, F(1), F(0), 0.5),
                (F(1, 2), F(-1, 2), F(1, 8), F(3, 8))],
    SampleSpec: [(), (9, 0.5 + 0.1j, 0.3), (25,)],
    ResidualSample: [(0.5 + 0.25j, 1 - 2j, 3e-13), (0.25 + 0j, 2j, 1e-12),
                     (0.5 + 0.25j, 1 - 2j, 3e-13)],
    SkippedSample: [(0.75 + 0j, "singular"), (0.25j, "excluded point"),
                    (0.75 + 0j, "singular")],
    ResidualReport: [("A", _PARAMS, *_COLUMNS, _SKIPPED, 1e-12, 6.5e-13),
                     (None, _PARAMS, *(c[:1] for c in _COLUMNS), (), 3e-13, 3e-13),
                     ("A", _PARAMS, *_COLUMNS, _SKIPPED, 1e-12, 6.5e-13)],
    ClassificationResult: [("finite_list", (CurveId.A, CurveId.D), None, {CurveId.A: "a"}),
                           ("picard_family", (), "every class"),
                           ("finite_list", (CurveId.A, CurveId.D), None, None)],
    CheckResult: [("orbits", True, "ok", 0.125), ("tripling", False, "off by 1e-3", 2.5),
                  ("orbits", True, "ok", 0.125)],
}

RECORDS = list(CASES)


def twin_of(cls):
    return getattr(Twin, cls.__name__)


def pairs(cls):
    """(record, twin instance) for each case of cls."""
    twin = twin_of(cls)
    return [(cls(*args), twin(*args)) for args in CASES[cls]]


def same_text(record_text: str, twin_text: str) -> bool:
    return record_text == twin_text.replace("Twin.", "")


def test_every_record_has_a_twin():
    assert len(RECORDS) == 13
    assert all(twin_of(cls).__name__ == cls.__name__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstDataclass:

    def test_repr(self, cls):
        for rec, twin in pairs(cls):
            assert same_text(repr(rec), repr(twin))

    def test_equality_and_hash(self, cls):
        built = pairs(cls)
        for rec, twin in built:
            for other_rec, other_twin in built:
                assert (rec == other_rec) is (twin == other_twin)
                assert (rec != other_rec) is (twin != other_twin)
            assert hash(rec) == hash(twin)
            assert rec != twin and twin != rec and not (rec == twin)
            assert rec.__eq__(twin) is NotImplemented is twin.__eq__(rec)
            assert rec.__eq__((1, 2)) is NotImplemented
        assert built[0][0] != built[1][0]
        assert (built[0][0] == built[2][0]) is (built[0][1] == built[2][1]) is True

    def test_ordering(self, cls):
        built = pairs(cls)
        for (rec, twin), (other_rec, other_twin) in zip(built, built[1:] + built[:1]):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                if cls is RationalPair:
                    assert op(rec, other_rec) is op(twin, other_twin)
                    with pytest.raises(TypeError):
                        op(rec, twin)
                else:
                    for x, y in ((rec, other_rec), (twin, other_twin)):
                        with pytest.raises(TypeError):
                            op(x, y)

    def test_fields_and_params(self, cls):
        def described(f):
            return (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
                    f.compare, dict(f.metadata), f.kw_only, f._field_type)

        twin = twin_of(cls)
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(pairs(cls)[0][0])
        assert ([described(f) for f in dataclasses.fields(cls)]
                == [described(f) for f in dataclasses.fields(twin)])
        assert dataclasses.fields(pairs(cls)[0][0]) == dataclasses.fields(cls)
        assert same_text(repr(cls.__dataclass_params__), repr(twin.__dataclass_params__))

    def test_replace_asdict_astuple(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        (rec, twin), (other, _) = pairs(cls)[:2]
        changes = {name: getattr(other, name) for name in names}
        moved, twin_moved = dataclasses.replace(rec, **changes), dataclasses.replace(twin, **changes)
        assert type(moved) is cls and moved == other
        assert same_text(repr(moved), repr(twin_moved))
        assert dataclasses.replace(rec) == rec
        if hasattr(copy, "replace"):  # Python 3.13
            assert same_text(repr(copy.replace(rec, **changes)), repr(copy.replace(twin, **changes)))
            with pytest.raises(TypeError):
                copy.replace(rec, unexpected=1)
        assert rec.__replace__(**changes) == moved
        assert dataclasses.asdict(rec) == dataclasses.asdict(twin)
        assert dataclasses.astuple(rec) == dataclasses.astuple(twin)

    def test_frozen(self, cls):
        rec, twin = pairs(cls)[0]
        for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
            for x in (rec, twin):
                with pytest.raises(dataclasses.FrozenInstanceError) as set_error:
                    setattr(x, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError) as del_error:
                    delattr(x, name)
                assert str(set_error.value) == f"cannot assign to field {name!r}"
                assert str(del_error.value) == f"cannot delete field {name!r}"
        assert rec == pairs(cls)[0][0]

    def test_match_args(self, cls):
        assert cls.__match_args__ == twin_of(cls).__match_args__
        rec = pairs(cls)[0][0]
        match rec:
            case cls(first):
                assert first == getattr(rec, cls.__match_args__[0])
            case _:
                raise AssertionError("no match")

    def test_pickle_and_copy(self, cls):
        for rec, _ in pairs(cls):
            copies = [pickle.loads(pickle.dumps(rec, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies + [copy.copy(rec), copy.deepcopy(rec)]:
                assert type(c) is cls and c == rec and hash(c) == hash(rec)
                assert repr(c) == repr(rec)

    def test_wrong_arguments(self, cls):
        twin = twin_of(cls)
        args = CASES[cls][1]
        calls = [args + (None,) * 7, {"unexpected": 1}]
        if cls is not SampleSpec:
            calls.append(())
        for call in calls:
            errors = []
            for c in (cls, twin):
                with pytest.raises(TypeError) as caught:
                    c(**call) if isinstance(call, dict) else c(*call)
                errors.append(str(caught.value))
            assert same_text(*errors)


@pytest.mark.parametrize("cls,args", [
    (Gamma2Matrix, (1, 2, 0, 2)), (Gamma2Matrix, (2, 1, 1, 1)),
    (SampleSpec, (0,)), (SampleSpec, (True,)), (SampleSpec, (3, complex("nan"))),
    (SampleSpec, (3, 0.5, 0)), (SampleSpec, (10 ** 9,)),
])
def test_post_init_refusals(cls, args):
    messages = []
    for c in (cls, twin_of(cls)):
        with pytest.raises(ValueError) as caught:
            c(*args)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_docstrings_are_written_out():
    for cls in RECORDS:
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls
