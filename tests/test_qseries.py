"""Laurent polynomial arithmetic and the Gauss polynomial dual routes."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loccoh import qseries
from loccoh.partitions import enumerate_box, size
from loccoh.qseries import LaurentPoly, gauss, gauss_enum

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=5).map(LaurentPoly)


def test_constructors_drop_zero_coefficients():
    assert LaurentPoly({3: 0, 1: 2})._c == {1: 2}
    assert LaurentPoly([(1, 1), (1, -1)]).is_zero
    assert LaurentPoly(5) == 5
    assert LaurentPoly.q(2, 3) == LaurentPoly({2: 3})


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly({1.5: 2}),
    lambda: LaurentPoly({1: 2.7}),
    lambda: LaurentPoly([(1.9, 1)]),
    lambda: LaurentPoly.q(1.5),
    lambda: LaurentPoly.q(1, 2.0),
    lambda: LaurentPoly(True),
    lambda: LaurentPoly({True: 1}),
    lambda: LaurentPoly(2.0),
])
def test_constructor_rejects_non_int_exponents_and_coefficients(make):
    with pytest.raises(ValueError, match="^(coeffs|exponent|coefficient) must be an int, got "):
        make()


def test_bool_is_never_equal_to_a_polynomial():
    for c in (0, 1):
        assert (LaurentPoly(c) == bool(c)) is False and (bool(c) == LaurentPoly(c)) is False
        assert LaurentPoly(c) != bool(c) and LaurentPoly(c) == c


@pytest.mark.parametrize("compute", [
    lambda: LaurentPoly.q(1) + True,
    lambda: True + LaurentPoly.q(1),
    lambda: LaurentPoly.q(1) - True,
    lambda: True - LaurentPoly.q(1),
    lambda: LaurentPoly.q(1) * False,
    lambda: False * LaurentPoly.q(1),
])
def test_bool_operand_rejected_by_name(compute):
    with pytest.raises(ValueError, match="^operand must be an int, got (True|False)$"):
        compute()


def test_non_int_operand_is_not_supported():
    for compute in (lambda: LaurentPoly.q(1) + 2.0, lambda: 2.0 - LaurentPoly.q(1),
                    lambda: LaurentPoly.q(1) * 2.0):
        with pytest.raises(TypeError, match="unsupported operand"):
            compute()


def test_constants_hash_like_their_ints():
    assert len({3, LaurentPoly(3)}) == 1 and len({0, LaurentPoly(0)}) == 1
    assert len({-2, LaurentPoly({0: -2})}) == 1
    table = {3: "int", 0: "zero"}
    table[LaurentPoly(3)] = "poly"
    table[LaurentPoly.zero()] = "poly zero"
    assert table == {3: "poly", 0: "poly zero"}
    assert all(hash(LaurentPoly(c)) == hash(c) for c in range(-5, 6))


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
    """The product formula as two LaurentPoly products and one divexact,
    then q -> q^v."""
    if b < 0 or b > a:
        return LaurentPoly.zero()
    num = den = LaurentPoly.one()
    for i in range(1, b + 1):
        num = num * (LaurentPoly.one() - LaurentPoly.q(a - b + i))
        den = den * (LaurentPoly.one() - LaurentPoly.q(i))
    return LaurentPoly({e * v: c for e, c in num.divexact(den).pairs()})


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
    # the definition gauss_enum counts by subset sums: one q^(v|z|) per
    # partition z in the (a-b) x b box; a = 13 and 14 reach past the switch
    for a in range(15):
        for b in range(a + 1):
            box_sum = LaurentPoly([(v * size(z), 1) for z in enumerate_box(a - b, b)])
            assert gauss_enum(a, b, v) == box_sum, (a, b, v)


@pytest.mark.parametrize("v", [1, 2, 4, -4])
def test_gauss_enum_matches_gauss_on_both_sides_of_the_switch(v):
    # every box a <= 18 and the (20, 10) box: streamed boxes up to
    # _SPLIT_ABOVE subsets, half-sum convolutions above it
    boxes = [(a, b) for a in range(19) for b in range(a + 1)] + [(20, 10)]
    assert {comb(a, b) > qseries._SPLIT_ABOVE for a, b in boxes} == {False, True}
    for a, b in boxes:
        assert gauss_enum(a, b, v) == gauss(a, b, v), (a, b, v)


def test_gauss_argument_validation():
    with pytest.raises(ValueError):
        gauss(4, 2, 0)
    with pytest.raises(ValueError):
        gauss(-1, 0)
    with pytest.raises(ValueError):
        gauss_enum(2, 3)
    with pytest.raises(ValueError):
        gauss_enum(2, -1)
    # a is checked before b
    with pytest.raises(ValueError, match="^a must be an int, got True$"):
        gauss_enum(True, True)


def test_repr_is_readable():
    assert repr(LaurentPoly({2: 1, 0: -1})) == "q^2 - 1"
    assert repr(LaurentPoly.zero()) == "0"
    assert repr(LaurentPoly({1: 3})) == "3*q"
