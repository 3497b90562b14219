"""Smooth solutions of the sixth Painleve equation, computationally.

Subpackage map:

* :mod:`pvi.orbits` - exact arithmetic on rational classes (mu, nu) under
  the level-2 congruence group: canonical forms, standard-form reduction,
  orbit enumeration and partition counts.
* :mod:`pvi.elliptic` - double-precision theta-quotient evaluation of wp, the
  half-period values, the level-2 invariant t(tau), Picard solution points,
  the four-term derivative identity and the degree-3 multiplication check.
* :mod:`pvi.multipoly` / :mod:`pvi.curves` - exact sparse polynomials over Q
  and every identity of the classification: the parameter-weighted sextic,
  its factorizations, the reducibility surface, the quartic curves with
  their uniformizations and symmetries, and a specialization-based
  irreducibility certifier.
* :mod:`pvi.verifier` - ODE residual certification of candidate curves and
  the complete parameter classification.
* :mod:`pvi.cli` / :mod:`pvi.selftest` - batch front end and the named
  end-to-end checks.
"""

from .curves import (
    CURVES,
    CurveId,
    apply_symmetry,
    derive_quartics,
    is_irreducible,
    kummer_condition,
    line_membership,
    master_poly,
    p0_poly,
    verify_kummer_equivalence,
    verify_uniformization,
)
from .elliptic import (
    AlphaTuple,
    EllipticInvariants,
    invariants_at,
    picard_eval,
    reduction_residual,
    triple_check,
    wp,
    wp_prime,
)
from .multipoly import MultiPoly
from .orbits import (
    Gamma2Matrix,
    StandardForm,
    RationalPair,
    act,
    canonicalize,
    enumerate_orbit,
    standard_form,
    merging_matrix,
    orbit_partition,
    same_orbit,
)
from .verifier import (
    ClassificationResult,
    PviParams,
    ResidualReport,
    SampleSpec,
    classify,
    implicit_derivs,
    orbit_to_curve,
    params_convert,
    pvi_residual,
    verify_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTuple",
    "CURVES",
    "ClassificationResult",
    "CurveId",
    "EllipticInvariants",
    "Gamma2Matrix",
    "StandardForm",
    "MultiPoly",
    "PviParams",
    "RationalPair",
    "ResidualReport",
    "SampleSpec",
    "act",
    "apply_symmetry",
    "canonicalize",
    "classify",
    "derive_quartics",
    "enumerate_orbit",
    "implicit_derivs",
    "invariants_at",
    "is_irreducible",
    "kummer_condition",
    "standard_form",
    "merging_matrix",
    "line_membership",
    "master_poly",
    "orbit_partition",
    "orbit_to_curve",
    "p0_poly",
    "params_convert",
    "picard_eval",
    "pvi_residual",
    "reduction_residual",
    "same_orbit",
    "triple_check",
    "verify_curve",
    "verify_kummer_equivalence",
    "verify_uniformization",
    "wp",
    "wp_prime",
]
