"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact integer/series equality; the few runtime bounds
are asserted with a monotonic clock.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time

from bouncepaths.beta_one import nhc_nrb_series
from bouncepaths.bounce import bounce_free_ab
from bouncepaths.closed_forms import Restriction, Slope
from bouncepaths.identities import (
    suite_beta1,
    suite_ring,
    suite_specializations,
    suite_table_dual,
)
from bouncepaths.verify import (
    suite_crosses,
    suite_oracle_vs_table,
    suite_syt,
    suite_total_bounces,
)

F_EE_21 = (1, 4, 18, 89, 466, 2537, 14209, 81316)
F_EN_21 = (1, 3, 13, 63, 326, 1761, 9808, 55895)
H_2 = (2, 6, 24, 110, 546, 2856, 15504, 86526)


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail and not passed:
        line += f"  ({detail})"
    print(line)
    assert passed, f"{criterion}: {detail}"


def _run(criterion: str, suite, **kwargs):
    results = suite(**kwargs)
    failures = [r for r in results if not r.passed]
    _report(criterion, not failures, "; ".join(str(f) for f in failures[:3]))


def test_criterion_01_reference_sequences_slope_2_1():
    start = time.perf_counter()
    f_ee = bounce_free_ab(Slope(2, 1), Restriction.EE, 8)
    f_en = bounce_free_ab(Slope(2, 1), Restriction.EN, 8)
    elapsed = time.perf_counter() - start
    exact = f_ee.coeffs[1:] == F_EE_21 and f_en.coeffs[1:] == F_EN_21
    _report(
        "1 reference bounce-free sequences, slope (2,1), through x^8",
        exact and elapsed < 1.0,
        f"exact={exact} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_reference_crossless_sequence_alpha_2():
    start = time.perf_counter()
    series = nhc_nrb_series(2, 8)
    elapsed = time.perf_counter() - start
    exact = series.coeffs[1:] == H_2
    _report(
        "2 reference crossless no-right-bounce sequence, alpha=2, through x^8",
        exact and elapsed < 1.0,
        f"exact={exact} elapsed={elapsed:.3f}s",
    )


def test_criterion_03_oracle_master_suite():
    _run(
        "3 exhaustive enumeration vs tables, slope sums <= 7, <= 40 steps",
        suite_oracle_vs_table,
        max_slope_sum=7,
        max_steps=40,
    )


def test_criterion_04_marker_specializations():
    _run(
        "4 marker specializations to order 12",
        suite_specializations,
        order=12,
        max_slope_sum=7,
    )


def test_criterion_05_dual_computation():
    _run(
        "5 closed-form cells vs rational expansion, order 12",
        suite_table_dual,
        order=12,
        max_slope_sum=6,
        max_left=4,
        max_right=4,
    )


def test_criterion_06_unit_rise_identities():
    _run(
        "6 unit-rise identity suite, alpha <= 5, order 10",
        suite_beta1,
        alpha_max=5,
        order=10,
    )


def test_criterion_07_total_bounce_series():
    _run(
        "7 total-bounce series vs coefficient formula and enumeration",
        suite_total_bounces,
        b_max=6,
        n_max=11,
    )


def test_criterion_08_two_row_tableaux():
    _run(
        "8 tableau counts vs ballot count and path enumeration, n <= 16",
        suite_syt,
        n_max=16,
    )


def test_criterion_09_horizontal_crosses():
    _run(
        "9 horizontal-cross suite, alpha <= 3, <= 40 steps",
        suite_crosses,
        alpha_max=3,
        max_steps=40,
        order=10,
    )


def test_criterion_10_series_ring_properties():
    _run(
        "10 series-ring properties on 1000 randomized inputs",
        suite_ring,
        count=1000,
    )
