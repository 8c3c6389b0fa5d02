"""Exact Laurent polynomials in one formal variable q, and Gauss polynomials.

Coefficients are arbitrary-precision Python integers; exponents may be
negative.  ``gauss`` evaluates the classical product formula on one list of
integer coefficients, one factor (1-q^t)/(1-q^j) at a time with exact
division, while ``gauss_enum`` builds the same polynomial by enumerating
the partitions in a box, each once, as the b-subsets of range(a): listed
decreasingly, c_1 > ... > c_b, a subset gives the partition
z_i = c_i - (b - i) with at most b parts, each at most a-b, one-to-one,
with |z| = sum(c) - b(b-1)/2.  The two share no code, so they serve as
independent cross-checks of each other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations


class LaurentPoly:
    """An integer Laurent polynomial in q, stored as {exponent: coefficient}.

    Zero coefficients are never stored.  Instances are treated as immutable;
    all arithmetic returns new objects.  Plain ints are accepted on either
    side of ``+``, ``-``, ``*`` and ``==``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | Iterable[tuple[int, int]] | int = 0):
        c: dict[int, int] = {}
        if isinstance(coeffs, int):
            if coeffs:
                c[0] = coeffs
        else:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                v = int(v)
                if v:
                    e = int(e)
                    w = c.get(e, 0) + v
                    if w:
                        c[e] = w
                    else:
                        del c[e]
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(1)

    @classmethod
    def q(cls, exponent: int = 1, coefficient: int = 1) -> "LaurentPoly":
        """The monomial coefficient * q**exponent."""
        return cls({exponent: coefficient})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def pairs(self) -> list[tuple[int, int]]:
        """[exponent, coefficient] pairs sorted by exponent."""
        return sorted(self._c.items())

    def exponents(self) -> list[int]:
        return sorted(self._c)

    def top_degree(self) -> int | None:
        """Largest exponent with a nonzero coefficient; None for zero."""
        return max(self._c) if self._c else None

    def bottom_degree(self) -> int | None:
        return min(self._c) if self._c else None

    def substitute_power(self, v: int) -> "LaurentPoly":
        """Substitute q -> q**v (v nonzero, so exponents stay distinct)."""
        if v == 0:
            raise ValueError("substitution power must be nonzero")
        return LaurentPoly({e * v: c for e, c in self._c.items()})

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = LaurentPoly.zero()
        out._c = c
        return out

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        mono, rest = self._c, other._c
        if len(rest) == 1:
            mono, rest = rest, mono
        c: dict[int, int] = {}
        if len(mono) == 1:
            # a monomial factor shifts the exponents and scales the
            # coefficients of the other; nonzero ints never multiply to
            # zero.  A plain loop: a comprehension's own frame costs more
            # than it saves on the few-term products closed forms make
            [(e0, v0)] = mono.items()
            for e, v in rest.items():
                c[e + e0] = v * v0
            out = LaurentPoly.zero()
            out._c = c
            return out
        for e1, v1 in mono.items():
            for e2, v2 in rest.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    del c[e]
        out = LaurentPoly.zero()
        out._c = c
        return out

    __rmul__ = __mul__

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ArithmeticError when the division has a
        remainder (including non-integer quotient coefficients)."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        num = dict(self._c)
        den = divisor._c
        nlo, nhi = min(num), max(num)
        dlo, dhi = min(den), max(den)
        # quotient exponents can only lie in this window if division is exact
        qlo, qhi = nlo - dlo, nhi - dhi
        if qhi < qlo:
            raise ArithmeticError("inexact polynomial division")
        d0 = den[dlo]
        quot: dict[int, int] = {}
        while num:
            e = min(num)
            c = num[e]
            qe = e - dlo
            if qe > qhi or c % d0:
                raise ArithmeticError("inexact polynomial division")
            qc = c // d0
            quot[qe] = qc
            for de, dc in den.items():
                t = qe + de
                w = num.get(t, 0) - qc * dc
                if w:
                    num[t] = w
                else:
                    num.pop(t, None)
        return LaurentPoly(quot)

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                terms.append(f"{c}")
            else:
                mono = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")


def gauss(a: int, b: int, variable_power: int = 1) -> LaurentPoly:
    """The Gauss polynomial (q-binomial coefficient) evaluated at q**v.

    Computed from the product formula
    ``(1-q^a)...(1-q^{a-b+1}) / (1-q^b)...(1-q)``, one factor at a time:
    with r = a-b, [r+j choose j] = [r+j-1 choose j-1] (1-q^(r+j)) / (1-q^j)
    for j = 1..b, on a list of integer coefficients.  Multiplying by
    (1-q^t) is a backward shift-subtract; dividing by (1-q^j) is a forward
    prefix sum with stride j, exact only when the top j coefficients come
    out zero, which is checked.  No partitions are enumerated, so this stays
    independent of ``gauss_enum``.  Out-of-range b (b < 0 or b > a) gives
    the zero polynomial, matching the vanishing of ordinary binomial
    coefficients.

    >>> gauss(4, 2)
    q^4 + q^3 + 2*q^2 + q + 1
    """
    if a < 0:
        raise ValueError("a must be non-negative")
    if variable_power == 0:
        raise ValueError("variable power must be nonzero")
    if b < 0 or b > a:
        return LaurentPoly.zero()
    c = [1]
    for j in range(1, b + 1):
        t = a - b + j
        c += [0] * t
        for i in range(len(c) - 1, t - 1, -1):
            c[i] -= c[i - t]
        for i in range(j, len(c)):
            c[i] += c[i - j]
        if any(c[-j:]):
            raise ArithmeticError("inexact polynomial division")
        del c[-j:]
    out = LaurentPoly.zero()
    out._c = {variable_power * e: v for e, v in enumerate(c) if v}
    return out


def gauss_enum(a: int, b: int, variable_power: int = 1) -> LaurentPoly:
    """Gauss polynomial as the size generating function of partitions in the
    (a-b) x b box: sum of q^(v*|z|).  Independent oracle for ``gauss``.

    The partitions are enumerated as the b-subsets c_1 > ... > c_b of
    range(a), by z_i = c_i - (b - i), a bijection onto the partitions with
    at most b parts, each at most a-b (the conjugates of the box's, with
    the same sizes), and |z| = sum(c) - b(b-1)/2; the subsets are streamed,
    not stored.

    >>> gauss_enum(4, 2) == gauss(4, 2)
    True
    """
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    if variable_power == 0:
        raise ValueError("variable power must be nonzero")
    low = b * (b - 1) // 2
    counts = Counter(map(sum, combinations(range(a), b)))
    return LaurentPoly({variable_power * (e - low): c for e, c in counts.items()})
