"""Acceptance suite: every criterion at its stated range and budget.

Each test runs one criterion through the corresponding verification check,
asserts the exact result and prints one PASS/FAIL line (visible with
``pytest -s`` or in the ``loccoh verify`` CLI, which runs the same checks).
"""

import time

from loccoh.verify import (
    check_assembly_agreement,
    check_bott_predicate_agreement,
    check_example_reproduction,
    check_ext_triple_agreement,
    check_filtration,
    check_gauss_identities,
    check_lcd_closed_forms,
    check_nondegeneracy_witness,
    check_skew_exponent_parity,
    check_witness_exclusivity,
)


def _criterion(number: int, name: str, fn, budget: float) -> str:
    t0 = time.perf_counter()
    passed, counterexample, params = fn()
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {status} [{params}] in {elapsed:.2f}s")
    assert passed, f"criterion {number} failed: {counterexample}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"
    return params


def test_criterion_1_gauss_identity_suite():
    # gauss == gauss_enum for 0 <= b <= a <= 12, v in {1,2,4,-4}, plus the
    # complement, symmetry and palindromicity identities; < 1 s
    _criterion(1, "gauss identities", check_gauss_identities, 1.0)


def test_criterion_2_bott_agreement():
    # algorithm-vs-predicate sweep, k,n <= 7, beta in P(n-k,k+2), alpha
    # entries in [-n-2, n+2]; exact zero/nonzero, degree, weight; < 1 min.
    # The pair count sums the heads the sweep covered, so a dropped block of
    # heads shows here
    params = _criterion(2, "bott agreement", check_bott_predicate_agreement, 60.0)
    assert "(4209037 pairs)" in params


def test_criterion_3_example_reproduction():
    # symm n=3, x=(2,2,0), p=1: fourth Ext is exactly the weight (5,5,4)
    # with multiplicity 1 in window D=14, and its dimension is 3; < 5 s
    _criterion(3, "worked example", check_example_reproduction, 5.0)


def test_criterion_4_triple_route_agreement():
    # closed == enum == sheaf-cohomology for skew n<=8 and symm n<=7,
    # every valid (p, s, flavor); exact; < 5 min
    _criterion(4, "ext triple agreement", check_ext_triple_agreement, 300.0)


def test_criterion_5_assembly():
    # closed displays == Bott-route ext assembly on the same range, whose
    # top degree is the lcd formula; p=0 always a single class with the
    # ambient-dimension exponent, and D_p alone in the codimension; < 1 min
    _criterion(5, "main-display assembly", check_assembly_agreement, 60.0)


def test_criterion_6_lcd_closed_forms():
    # dimension formulas for all three spaces, n,m <= 10, and the odd-p
    # top support for symmetric matrices; < 10 s
    _criterion(6, "lcd closed forms", check_lcd_closed_forms, 10.0)


def test_criterion_7_witness_exclusivity():
    # witness_weight(L) in weight-set(L') iff L == L', n <= 10; < 10 s
    _criterion(7, "witness exclusivity", check_witness_exclusivity, 10.0)


def test_criterion_8_skew_exponent_parity():
    # every exponent of every skew witness polynomial is m-p mod 2, n<=8;
    # < 10 s
    _criterion(8, "skew exponent parity", check_skew_exponent_parity, 10.0)


def test_criterion_9_nondegeneracy_witness():
    # (5,5,4) occurs on the Ext side but no simple module accepts it; < 5 s
    _criterion(9, "nondegeneracy witness", check_nondegeneracy_witness, 5.0)


def test_criterion_10_filtration():
    # filtration consistency for symm n<=4 and skew n<=6, all p, D=10;
    # < 2 min
    _criterion(10, "filtration check", check_filtration, 120.0)
