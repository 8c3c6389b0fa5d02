"""Acceptance suite: every criterion at its stated range and budget.

Each test runs one criterion through the corresponding verification check
at its default ranges, asserts the exact result and params text, and prints one PASS/FAIL line (visible with
``pytest -s`` or in the ``loccoh verify`` CLI, which runs the same checks).
Each result is stored in ``check_results``, so the mutant table need not
run the same unpatched check again.
"""

import time

from loccoh.verify import CHECKS

import check_results


def _criterion(number: int, name: str, check: str, budget: float, expected: str) -> None:
    t0 = time.perf_counter()
    result = CHECKS[check][0]()
    elapsed = time.perf_counter() - t0
    check_results.store(check, {}, result)
    passed, counterexample, params = result
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {status} [{params}] in {elapsed:.2f}s")
    assert passed, f"criterion {number} failed: {counterexample}"
    assert params == expected
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_gauss_identity_suite():
    # gauss == gauss_enum for 0 <= b <= a <= 12, v in {1,2,4,-4}, plus the
    # complement, symmetry and palindromicity identities; < 1 s
    _criterion(1, "gauss identities", "gauss-identities", 1.0,
               "0 <= b <= a <= 12, v in (1, 2, 4, -4)")


def test_criterion_2_bott_agreement():
    # algorithm-vs-predicate sweep, k,n <= 7, beta in P(n-k,k+2), alpha
    # entries in [-n-2, n+2]; exact zero/nonzero, degree, weight; < 1 min.
    # The pair count sums the heads the sweep covered, so a dropped block of
    # heads shows here
    _criterion(2, "bott agreement", "bott-predicate-agreement", 60.0,
               "n<=7, beta in P(n-k,k+2), alpha entries in [-n-2,n+2] (4209037 pairs)")


def test_criterion_3_example_reproduction():
    # symm n=3, x=(2,2,0), p=1: fourth Ext is exactly the weight (5,5,4)
    # with multiplicity 1 in window D=14, and its dimension is 3; < 5 s
    _criterion(3, "worked example", "example-reproduction", 5.0,
               "symm n=3 x=(2,2,0) p=1, window D=14")


def test_criterion_4_triple_route_agreement():
    # closed == enum == sheaf-cohomology for skew n<=8 and symm n<=7,
    # every valid (p, s, flavor); exact; < 5 min
    _criterion(4, "ext triple agreement", "ext-triple-agreement", 300.0,
               "skew n<=8, symm n<=7 (200 index tuples)")


def test_criterion_5_assembly():
    # closed displays == Bott-route ext assembly on the same range (whose
    # top degree criterion 6 checks through lcd); p=0 always a single class
    # with the ambient-dimension exponent, and D_p alone in the codimension; < 1 min
    _criterion(5, "main-display assembly", "assembly-agreement", 60.0,
               "skew n<=8, symm n<=7, general m,n<=10")


def test_criterion_6_lcd_closed_forms():
    # dimension formulas for all three spaces, n,m <= 10, and the odd-p
    # top support for symmetric matrices; < 10 s
    _criterion(6, "lcd closed forms", "lcd-closed-forms", 10.0,
               "all spaces, n,m <= 10, every valid p")


def test_criterion_7_witness_exclusivity():
    # witness_weight(L) in weight-set(L') iff L == L', n <= 10; < 10 s
    _criterion(7, "witness exclusivity", "witness-exclusivity", 10.0,
               "skew and symm, n<=10, all label pairs")


def test_criterion_8_skew_exponent_parity():
    # every exponent of every skew witness polynomial is m-p mod 2, n<=8;
    # < 10 s
    _criterion(8, "skew exponent parity", "skew-exponent-parity", 10.0,
               "skew n<=8, all valid (p, s)")


def test_criterion_9_nondegeneracy_witness():
    # no simple module accepts (5,5,4), which criterion 3 finds on the Ext
    # side; < 5 s
    _criterion(9, "nondegeneracy witness", "nondegeneracy-witness", 5.0,
               "(5, 5, 4) against all 7 simple labels of n=3")


def test_criterion_10_filtration():
    # filtration consistency for symm n<=4 and skew n<=6, all p, D=10;
    # < 2 min
    _criterion(10, "filtration check", "filtration", 120.0,
               "symm n<=4, skew n<=6, D=10")
