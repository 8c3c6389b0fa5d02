"""The main closed forms, the Ext assembly, dimensions and top supports."""

from math import comb

import pytest

from loccoh import cohomology, extmult
from loccoh.characters import SKEW, SYMM, SimpleLabel
from loccoh.cohomology import (
    GENERAL,
    ambient_dimension,
    lcd,
    lcd_closed_form,
    support_poly,
    support_poly_from_ext,
    top_support,
)
from loccoh.qseries import LaurentPoly, gauss


def test_symm_rank_one_locus():
    hp = support_poly(SYMM, 3, 1)
    assert set(hp.terms) == {1}
    assert hp.terms[1] == LaurentPoly.q(3)


def test_skew_rank_two_locus():
    hp = support_poly(SKEW, 5, 1)
    assert hp.terms == {0: LaurentPoly.q(5), 1: LaurentPoly.q(3)}


@pytest.mark.parametrize(
    "space,n,m",
    [(GENERAL, 3, 5), (GENERAL, 4, 4), (SKEW, 6, None), (SKEW, 7, None), (SYMM, 5, None)],
)
def test_codimension_forced_single_term_at_p_zero(space, n, m):
    hp = support_poly(space, n, 0, m)
    assert set(hp.terms) == {0}
    assert hp.terms[0] == LaurentPoly.q(ambient_dimension(space, n, m))


def test_assembly_route_agreement_examples():
    assert support_poly_from_ext(SKEW, 5, 1).terms == support_poly(SKEW, 5, 1).terms
    assert support_poly_from_ext(SYMM, 4, 2).terms == support_poly(SYMM, 4, 2).terms
    assert support_poly_from_ext(SYMM, 3, 1).terms == support_poly(SYMM, 3, 1).terms
    for route in ("enum", "bott"):
        assert support_poly_from_ext(SKEW, 7, 2, route).terms == support_poly(SKEW, 7, 2).terms


def test_assembly_rejects_general_matrices():
    with pytest.raises(ValueError):
        support_poly_from_ext(GENERAL, 3, 1)


def test_symm_label_resolution():
    # the class D_1 for n=3 is the flavor-2 simple with index 2
    hp = support_poly_from_ext(SYMM, 3, 1)
    assert hp.simple_label(1) == SimpleLabel(SYMM, 3, 2, 2)
    assert hp.simple_label(0) == SimpleLabel(SYMM, 3, 3)
    sk = support_poly(SKEW, 6, 1)
    assert sk.simple_label(1) == SimpleLabel(SKEW, 6, 2)


def test_ambient_dimension_matches_the_paper():
    for n in range(1, 17):
        assert ambient_dimension(SKEW, n) == comb(n, 2)
        assert ambient_dimension(SYMM, n) == comb(n + 1, 2)
        for m in range(n, 17):
            assert ambient_dimension(GENERAL, n, m) == m * n
    with pytest.raises(ValueError, match="^n must be an int"):
        ambient_dimension(SYMM, 4.0)


@pytest.mark.parametrize("args,message", [
    ((GENERAL, 3.0, 4), "n must be an int, got 3.0"),
    ((GENERAL, 3, 4.0), "m must be an int, got 4.0"),
    ((GENERAL, 3, True), "m must be an int, got True"),
    ((GENERAL, 0, 4), "n must be positive"),
    ((GENERAL, 5, 2), "general matrices need m >= n"),
    ((GENERAL, 3), "general matrices need m >= n"),
    ((SKEW, 4, 5), "m is only meaningful for general matrices"),
    ((SYMM, 3, 3), "m is only meaningful for general matrices"),
    (("square", 3), "unknown space 'square'"),
])
def test_ambient_dimension_checks_its_arguments(args, message):
    # the space, n and m checks of the closed forms, without a p
    with pytest.raises(ValueError, match=f"^{message}$"):
        ambient_dimension(*args)


def _keys(top):
    for n in range(1, top + 1):
        for p in range(n // 2):
            yield SKEW, n, p
        for p in range(n):
            yield SYMM, n, p


def _reference_label(space, n, s):
    # the D_s -> simple map as the paper states it: index floor(n/2) - s for
    # skew; index n - s for symm, flavored by its parity below n
    if space == SKEW:
        return SimpleLabel(SKEW, n, n // 2 - s)
    index = n - s
    return SimpleLabel(SYMM, n, index, None if index == n else (1 if index % 2 else 2))


def test_class_labels_match_the_witness_the_assembly_reads(monkeypatch):
    read = []

    def spy(space, n, p, s, flavor=None):
        read.append(SimpleLabel(space, n, s, flavor))
        return LaurentPoly.q(0)

    monkeypatch.setitem(extmult.WITNESS_ROUTES, "spy", spy)
    for space, n, p in _keys(16):
        read.clear()
        hp = support_poly_from_ext(space, n, p, "spy")
        assert sorted(hp.terms) == list(range(p + 1))
        assert read == [hp.simple_label(s) for s in range(p + 1)]
        assert read == [_reference_label(space, n, s) for s in range(p + 1)]


def test_json_flavor_is_the_label_flavor():
    for space, n, p in _keys(16):
        hp = support_poly(space, n, p)
        terms = hp.to_json_dict()["terms"]
        assert [t["label"]["s"] for t in terms] == sorted(hp.terms)
        for t in terms:
            s = t["label"]["s"]
            assert t["label"]["flavor"] == hp.simple_label(s).flavor
            assert t["label"]["flavor"] == _reference_label(space, n, s).flavor
    assert support_poly(GENERAL, 3, 1, 4).to_json_dict()["terms"][0]["label"]["flavor"] is None


def test_lcd_examples():
    assert lcd(SYMM, 3, 1) == 3 == lcd_closed_form(SYMM, 3, 1)
    assert lcd(SKEW, 5, 1) == 5 == lcd_closed_form(SKEW, 5, 1)
    assert lcd(GENERAL, 2, 1, 2) == 1 == lcd_closed_form(GENERAL, 2, 1, 2)
    assert lcd(GENERAL, 3, 1, 4) == 9


def test_top_support():
    assert top_support(SYMM, 5, 1) == [1]
    assert top_support(SYMM, 4, 2) == [0]
    assert top_support(SKEW, 6, 1) == [0]
    assert top_support(GENERAL, 3, 1, 5) == [0]


def test_top_support_ties_on_hypersurfaces():
    # the determinant hypersurface: several classes share the top degree
    assert top_support(SYMM, 3, 2) == [0, 2]
    assert top_support(GENERAL, 2, 1, 2) == [0, 1]
    # and index 0 attains the top whenever it occurs at all (even p)
    for n in range(1, 7):
        for p in range(0, n, 2):
            assert 0 in top_support(SYMM, n, p)


def test_bottom_degree_is_codimension():
    # Grothendieck vanishing and nonvanishing: local cohomology starts
    # exactly in the codimension of the rank locus, where (general
    # matrices) D_p occurs
    for n in range(1, 13):
        for p in range(n):
            hp = support_poly(SYMM, n, p)
            assert min(min(t.exponents()) for t in hp.terms.values()) == comb(n - p + 1, 2)
    for n in range(2, 13):
        for p in range(n // 2):
            hp = support_poly(SKEW, n, p)
            assert min(min(t.exponents()) for t in hp.terms.values()) == comb(n - 2 * p, 2)
    for n in range(1, 11):
        for m in range(n, 13):
            for p in range(n):
                hp = support_poly(GENERAL, n, p, m)
                bottom = min(min(t.exponents()) for t in hp.terms.values())
                assert bottom == (n - p) * (m - p) == min(hp.terms[p].exponents())


def test_general_maximal_minors():
    # maximal minors (p = n-1, Raicu-Weyman-Witt): H^j is nonzero exactly for
    # j = (n-s)(m-n) + 1, where D_s occurs once
    for n in range(1, 11):
        for m in range(n, 13):
            terms = support_poly(GENERAL, n, n - 1, m).terms
            assert terms == {s: LaurentPoly.q((n - s) * (m - n) + 1) for s in range(n)}


def test_submaximal_pfaffian_shape():
    # odd n = 2m+1 at p = m-1: exactly m single-monomial terms with
    # exponents 3, 5, ..., 2m+1
    for m in range(2, 5):
        n = 2 * m + 1
        hp = support_poly(SKEW, n, m - 1)
        assert sorted(hp.terms) == list(range(m))
        for s in range(m):
            assert hp.terms[s] == LaurentPoly.q(3 + 2 * (m - 1 - s))


def test_argument_validation():
    with pytest.raises(ValueError):
        support_poly(GENERAL, 3, 1)  # missing m
    with pytest.raises(ValueError):
        support_poly(GENERAL, 3, 1, 2)  # m < n
    with pytest.raises(ValueError):
        support_poly(SKEW, 5, 2)
    with pytest.raises(ValueError):
        support_poly(SYMM, 3, 3)
    with pytest.raises(ValueError):
        support_poly(SYMM, 3, 1, 4)  # m given for a square space
    with pytest.raises(ValueError):
        support_poly("hermitian", 3, 1)


def test_json_shape():
    d = support_poly(SYMM, 3, 1).to_json_dict()
    assert d == {
        "space": "symm",
        "n": 3,
        "p": 1,
        "terms": [{"label": {"s": 1, "flavor": 2}, "poly": [[3, 1]]}],
    }
    d = support_poly(GENERAL, 2, 0, 3).to_json_dict()
    assert d["m"] == 3 and d["terms"][0]["label"] == {"s": 0, "flavor": None}


@pytest.mark.parametrize("fn", [support_poly, lcd, lcd_closed_form, top_support])
@pytest.mark.parametrize("args,name", [
    ((SYMM, True, 0), "n"),
    ((SYMM, 4.0, 1), "n"),
    ((SYMM, None, 1), "n"),
    ((SKEW, 5, 1.0), "p"),
    ((SYMM, 3, False), "p"),
])
def test_non_int_arguments_rejected_by_name(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        fn(*args)


def test_assembly_rejects_an_unknown_route():
    with pytest.raises(ValueError, match="unknown route 'fast'"):
        support_poly_from_ext(SKEW, 5, 1, "fast")


@pytest.mark.parametrize("space,n,p,m", [
    (GENERAL, 5, 2, 7), (SKEW, 9, 3, None), (SYMM, 7, 4, None),
])
def test_repeated_calls_return_equal_fresh_results(space, n, p, m):
    first = support_poly(space, n, p, m)
    again = support_poly(space, n, p, m)
    assert again == first and again is not first and again.terms is not first.terms
    expected = dict(cohomology._support_terms.__wrapped__(space, n, p, m))
    assert first.terms == expected
    first.terms.clear()
    assert support_poly(space, n, p, m).terms == expected
    again.terms[p] = LaurentPoly.zero()
    assert support_poly(space, n, p, m).terms == expected


def test_validation_runs_before_the_cache():
    # the equal-hash keys of valid calls must not reach their cached terms
    for valid, bad in [
        ((SYMM, 1, 0), (SYMM, True, 0)),
        ((SYMM, 4, 1), (SYMM, 4.0, 1)),
        ((SYMM, 3, 1), (SYMM, 3, True)),
        ((GENERAL, 3, 1, 4), (GENERAL, 3, 1, 4.0)),
    ]:
        support_poly(*valid)
        with pytest.raises(ValueError, match="must be an int"):
            support_poly(*bad)
        with pytest.raises(ValueError, match="must be an int"):
            lcd(*bad)


def test_support_poly_reads_the_closed_witnesses_and_bott_reads_neither_memo():
    cases = [(SKEW, n, p) for n in range(2, 10) for p in range(n // 2)]
    cases += [(SYMM, n, p) for n in range(1, 8) for p in range(n)]
    memos = (cohomology._support_terms, extmult._witness_closed)
    for memo in memos:
        memo.cache_clear()
    for space, n, p in cases:  # cold: each term is the memoised witness polynomial itself
        terms = support_poly(space, n, p).terms
        labels = {s: _reference_label(space, n, s) for s in range(p + 1)}
        witnesses = {s: extmult._witness_closed(space, n, p, label.s, label.flavor)
                     for s, label in labels.items()}
        assert terms == {s: poly for s, poly in witnesses.items() if not poly.is_zero}
        assert all(terms[s] is witnesses[s] for s in terms)
    before = [memo.cache_info() for memo in memos]
    for args in cases:
        support_poly_from_ext(*args, "bott")
    assert [memo.cache_info() for memo in memos] == before


def _display(space, n, p):
    # the paper's display, as support_poly's docstring states it
    terms = {}
    if space == SKEW:
        mm = n // 2
        for s in range(p + 1):
            if n % 2:
                exponent = 2 * (mm - p) ** 2 + (mm - p) + 2 * (p - s)
            else:
                exponent = 2 * (mm - p) ** 2 - (mm - p)
            terms[s] = LaurentPoly.q(exponent) * gauss(mm - 1 - s, p - s, 4)
    else:
        for s in range(p, -1, -2):
            exponent = 1 + comb(n - s + 1, 2) - comb(p - s + 2, 2)
            terms[s] = LaurentPoly.q(exponent) * gauss((n - s - 1) // 2, (p - s) // 2, -4)
    return terms


def test_skew_and_symm_terms_are_the_papers_display():
    for space, n, p in _keys(24):
        terms = support_poly(space, n, p).terms
        display = _display(space, n, p)
        assert sorted(terms) == sorted(display), (space, n, p)
        for s, poly in display.items():
            assert terms[s] == poly, (space, n, p, s)


def test_caches_are_bounded():
    for helper in (cohomology._support_terms, extmult._witness_closed):
        maxsize = helper.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
