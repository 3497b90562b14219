"""The public surface of the package, pinned: changing it must be deliberate."""

import dataclasses

import pvi

PUBLIC_NAMES = [
    "AlphaTuple", "CURVES", "ClassificationResult", "CurveId", "EllipticInvariants",
    "Gamma2Matrix", "MultiPoly", "PviParams", "RationalPair", "ResidualReport",
    "SampleSpec", "StandardForm", "act", "apply_symmetry", "canonicalize", "classify",
    "derive_quartics", "enumerate_orbit", "implicit_derivs", "invariants_at",
    "is_irreducible", "kummer_condition", "line_membership", "master_poly",
    "merging_matrix", "orbit_partition", "orbit_to_curve", "p0_poly", "params_convert",
    "picard_eval", "pvi_residual", "reduction_residual", "same_orbit", "standard_form",
    "triple_check", "verify_curve", "verify_kummer_equivalence", "verify_uniformization",
    "wp", "wp_prime",
]


def test_all_is_pinned():
    assert sorted(pvi.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in pvi.__all__:
        assert getattr(pvi, name) is not None, name


def test_sample_spec_is_only_the_circle():
    assert [f.name for f in dataclasses.fields(pvi.SampleSpec)] == ["count", "center", "radius"]
