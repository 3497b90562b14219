"""Acceptance suite: every headline criterion runs the named checks of `pvi.selftest`.

The checks exist once, in :data:`pvi.selftest.CHECKS`; each test here runs
one or two of them by name, in order, and prints one `ACCEPTANCE <n>` line
per check with the check's detail (visible with `pytest -s`).  A failing
check raises :class:`pvi.selftest.CheckFailure`, an AssertionError, with its
own message.
"""

from pvi.selftest import CHECKS

_CHECK = dict(CHECKS)
_COVERED: list[str] = []


def _criterion(n: int, *names: str):
    _COVERED.extend(names)

    def test():
        for name in names:
            print(f"ACCEPTANCE {n:2d}: PASS - {name}: {_CHECK[name]()}")

    return test


test_01_three_factor_identity = _criterion(1, "three-factor-identity")
test_02_vanishing_parameter_cofactor = _criterion(2, "vanishing-a3-cofactor")
test_03_kummer_equivalence_and_lines = _criterion(3, "kummer-equivalence", "kummer-lines")
test_04_quartic_derivation = _criterion(4, "quartic-derivation")
test_05_uniformizations = _criterion(5, "uniformizations")
test_06_orbit_counts_and_merging = _criterion(6, "orbit-partitions", "orbit-merging")
test_07_elliptic_engine = _criterion(7, "elliptic-core")
test_08_tripling = _criterion(8, "tripling")
test_09_reduction_identity = _criterion(9, "reduction-identity")
test_10_ode_residuals = _criterion(10, "ode-residuals")
test_11_classification = _criterion(11, "classification")
test_12_cross_module_consistency = _criterion(12, "picard-curve-consistency")


def test_every_check_is_one_criterion():
    assert _COVERED == [name for name, _ in CHECKS]
