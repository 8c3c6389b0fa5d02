"""Laurent polynomial arithmetic and the Gauss polynomial dual routes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loccoh.partitions import enumerate_box, size
from loccoh.qseries import LaurentPoly, gauss, gauss_enum

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=5).map(LaurentPoly)


def test_constructors_drop_zero_coefficients():
    assert LaurentPoly({3: 0, 1: 2})._c == {1: 2}
    assert LaurentPoly([(1, 1), (1, -1)]).is_zero
    assert LaurentPoly(5) == 5
    assert LaurentPoly.q(2, 3) == LaurentPoly({2: 3})


@given(polys, polys)
def test_addition_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys)
def test_additive_inverse_and_int_mixing(f):
    assert f - f == 0
    assert f + 0 == f and 1 * f == f
    assert (f * 3) - (f + f + f) == 0


@given(polys, st.integers(-5, 5))
def test_monomial_shift(f, k):
    shifted = LaurentPoly.q(k) * f
    assert shifted.pairs() == [(e + k, c) for e, c in f.pairs()]


def _product_term_by_term(f, g):
    out = {}
    for e1, c1 in f.pairs():
        for e2, c2 in g.pairs():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return sorted((e, c) for e, c in out.items() if c)


@given(polys, st.integers(-8, 8), st.integers(-9, 9).filter(bool))
def test_one_term_product_equals_the_general_product(f, e, c):
    # one monomial factor, on either side, negative exponents and
    # coefficients other than 1 included, even when f is zero or a monomial
    m = LaurentPoly.q(e, c)
    expected = _product_term_by_term(m, f)
    assert (m * f).pairs() == (f * m).pairs() == expected
    assert (m * f)._c == dict(expected)


@given(polys)
def test_no_stored_zero_coefficients(f):
    g = f + (-f) + f * LaurentPoly({0: 1})
    assert all(c != 0 for _, c in g.pairs())


def test_top_degree():
    assert LaurentPoly({3: 1, 5: 1}).top_degree() == 5
    assert LaurentPoly.zero().top_degree() is None
    assert LaurentPoly({-3: 2, 4: 1}).bottom_degree() == -3


def test_divexact():
    f = LaurentPoly({2: 1, 1: 2, 0: 1})  # (q+1)^2
    assert f.divexact(LaurentPoly({1: 1, 0: 1})) == LaurentPoly({1: 1, 0: 1})
    with pytest.raises(ArithmeticError):
        LaurentPoly({1: 1, 0: 1}).divexact(LaurentPoly({1: 1, 0: -1}))
    with pytest.raises(ArithmeticError):
        LaurentPoly({1: 1}).divexact(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one().divexact(LaurentPoly.zero())


@given(polys, polys)
def test_divexact_inverts_multiplication(f, g):
    if g.is_zero:
        return
    assert (f * g).divexact(g) == f


def test_gauss_examples():
    assert gauss(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gauss(5, 0, 4) == 1
    assert gauss(3, 2, -4) == LaurentPoly({0: 1, -4: 1, -8: 1})
    assert gauss(4, -1).is_zero and gauss(4, 5).is_zero


def _product_formula_by_division(a, b, v):
    """The product formula as two LaurentPoly products and one divexact."""
    if b < 0 or b > a:
        return LaurentPoly.zero()
    num = den = LaurentPoly.one()
    for i in range(1, b + 1):
        num = num * (LaurentPoly.one() - LaurentPoly.q(a - b + i))
        den = den * (LaurentPoly.one() - LaurentPoly.q(i))
    return num.divexact(den).substitute_power(v)


def test_gauss_matches_product_formula_by_division():
    for a in range(21):
        for b in range(-1, a + 2):
            for v in (1, 2, 4, -4):
                assert gauss(a, b, v) == _product_formula_by_division(a, b, v), (a, b, v)


def test_gauss_makes_no_polynomial_products(monkeypatch):
    expected = _product_formula_by_division(14, 7, 2)
    calls = []
    for name in ("__mul__", "__rmul__", "divexact"):
        real = getattr(LaurentPoly, name)

        def counting(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, name, counting)
    assert gauss(14, 7, 2) == expected
    assert calls == []


def test_gauss_enum_examples():
    assert gauss_enum(4, 2) == gauss(4, 2)
    # the box P(1,1) holds the empty partition and (1): sizes {0, 1}
    assert gauss_enum(2, 1, 2) == LaurentPoly({0: 1, 2: 1})
    assert gauss_enum(3, 3) == 1 and gauss_enum(5, 5, -4) == 1


@pytest.mark.parametrize("v", [1, 2, 4, -4])
def test_gauss_enum_equals_the_box_sum(v):
    # the definition gauss_enum enumerates by subset sums: one q^(v|z|)
    # per partition z in the (a-b) x b box
    for a in range(13):
        for b in range(a + 1):
            box_sum = LaurentPoly([(v * size(z), 1) for z in enumerate_box(a - b, b)])
            assert gauss_enum(a, b, v) == box_sum, (a, b, v)


def test_gauss_argument_validation():
    with pytest.raises(ValueError):
        gauss(4, 2, 0)
    with pytest.raises(ValueError):
        gauss(-1, 0)
    with pytest.raises(ValueError):
        gauss_enum(2, 3)
    with pytest.raises(ValueError):
        gauss_enum(2, -1)


@pytest.mark.parametrize("v", [1, 2, 4, -4])
def test_gauss_identities_small(v):
    for a in range(9):
        for b in range(a + 1):
            closed = gauss(a, b, v)
            assert closed == gauss_enum(a, b, v)
            assert closed == gauss(a, a - b, v)
            area = (a - b) * b
            complement = LaurentPoly(
                [(v * (area - size(z)), 1) for z in enumerate_box(a - b, b)]
            )
            assert closed == complement


def test_gauss_palindromic():
    for a in range(9):
        for b in range(a + 1):
            f = gauss(a, b)
            area = (a - b) * b
            assert all(f.coefficient(e) == f.coefficient(area - e) for e in range(area + 1))


def test_repr_is_readable():
    assert repr(LaurentPoly({2: 1, 0: -1})) == "q^2 - 1"
    assert repr(LaurentPoly.zero()) == "0"
    assert repr(LaurentPoly({1: 3})) == "3*q"
