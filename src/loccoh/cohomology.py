"""Composition multiplicities of local cohomology with rank support.

For the space X of general (m x n, m >= n), skew-symmetric or symmetric
n x n matrices and the locus Y_p of matrices of rank at most p (at most 2p
in the skew case), the class of each local cohomology module in the
Grothendieck group of equivariant holonomic modules expands over the
simple classes D_0, ..., D_p (D_s supported on the rank-s locus).
``support_poly`` packages, for each D_s, the generating polynomial in q
whose q^j coefficient is the multiplicity of D_s inside the j-th local
cohomology module.

Skew/symmetric polynomials are the Ext witness multiplicities of the simples
the D_s stand for, from any witness route (``support_poly_from_ext``; it is
the closed one in ``support_poly``); general ones have only their closed form.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .characters import GENERAL, SKEW, SYMM, SPACES, SimpleLabel, Space, _check_rank
from .extmult import _CLOSED_FORM_CACHE_SIZE, WITNESS_ROUTES, _witness_closed
from .partitions import _check_ints
from .qseries import LaurentPoly, gauss


def _check_space(space: str, n: int, m: int | None, p: int = 0) -> Space | None:
    """Check the space, n and m of a request; return its skew/symm record,
    or None for general matrices.  One integer guard takes n, m (when
    given) and p; p defaults to 0, a valid int, for requests without one."""
    if space not in (GENERAL, SKEW, SYMM):
        raise ValueError(f"unknown space {space!r}")
    if m is None:
        _check_ints(n=n, p=p)
    else:
        _check_ints(n=n, m=m, p=p)
    if n < 1:
        raise ValueError("n must be positive")
    sp = None if space == GENERAL else SPACES[space]
    if sp is None:
        if m is None or m < n:
            raise ValueError("general matrices need m >= n")
    elif m is not None:
        raise ValueError("m is only meaningful for general matrices")
    return sp


def _check_args(space: str, n: int, p: int, m: int | None) -> Space | None:
    """Check a closed-form request; return its skew/symm record, or None."""
    sp = _check_space(space, n, m, p)
    _check_rank(sp, n, p)
    return sp


def ambient_dimension(space: str, n: int, m: int | None = None) -> int:
    """Dimension of the matrix space itself: mn, or the record's ``ambient``."""
    sp = _check_space(space, n, m)
    return m * n if sp is None else sp.ambient(n)


@dataclass
class SupportPoly:
    """Local cohomology classes along the rank-p locus, as polynomials.

    ``terms[s]`` is the multiplicity generating polynomial of the simple
    class D_s; absent s means D_s does not occur.
    """

    space: str
    n: int
    p: int
    m: int | None = None
    terms: dict[int, LaurentPoly] = field(default_factory=dict)

    def top_degree(self) -> int:
        """Largest cohomological degree with a nonzero class."""
        if not self.terms:
            raise ValueError(f"no class D_s occurs for {self.space} n={self.n} p={self.p}, "
                             "but every valid rank has one")
        return max(t.top_degree() for t in self.terms.values())

    def top_labels(self) -> list[int]:
        """All s whose D_s occurs in the top degree (ties possible)."""
        top = self.top_degree()
        return sorted(s for s, t in self.terms.items() if t.top_degree() == top)

    def simple_label(self, s: int) -> SimpleLabel | None:
        """The simple-module label of D_s (skew/symm), by ``Space.class_label``."""
        if self.space == GENERAL:
            return None
        return SimpleLabel(self.space, self.n, *SPACES[self.space].class_label(self.n, s))

    def to_json_dict(self) -> dict:
        out = {"space": self.space, "n": self.n, "p": self.p}
        sp = SPACES.get(self.space)
        if sp is None:
            out["m"] = self.m
        terms = []
        for s in sorted(self.terms):
            # the flavor of simple_label(s), read without building the label
            label = {"s": s, "flavor": None if sp is None else sp.class_label(self.n, s)[1]}
            terms.append({"label": label, "poly": [list(pair) for pair in self.terms[s].pairs()]})
        out["terms"] = terms
        return out


def support_poly(space: str, n: int, p: int, m: int | None = None) -> SupportPoly:
    """Closed form of the local cohomology classes along the rank-p locus.

    General m x n: sum over s = 0..p of
    D_s * q^((n-p)^2 + (n-s)(m-n)) * (n-s-1 choose p-s) in q^2.
    Skew n x n (mm = floor(n/2)): sum over s = 0..p of D_s times
    q^(2(mm-p)^2 + (mm-p) + 2(p-s)) for odd n, q^(2(mm-p)^2 - (mm-p)) for
    even n, times (mm-1-s choose p-s) in q^4.
    Symm n x n: sum over s = p, p-2, ... >= 0 of
    D_s * q^(1 + C(n-s+1,2) - C(p-s+2,2)) * (floor((n-s-1)/2) choose
    (p-s)/2) in q^-4.

    The skew and symm terms are the ``closed`` route of ``support_poly_from_ext``.
    The arguments are validated on every call and the terms are then
    memoised per process; each call returns a fresh ``SupportPoly`` whose
    ``terms`` dict the caller may change (the polynomials are immutable and
    shared).
    """
    _check_args(space, n, p, m)
    return SupportPoly(space, n, p, m, dict(_support_terms(space, n, p, m)))


@lru_cache(maxsize=_CLOSED_FORM_CACHE_SIZE)
def _support_terms(space: str, n: int, p: int, m: int | None) -> tuple[tuple[int, LaurentPoly], ...]:
    """The (s, polynomial) terms of ``support_poly`` for validated arguments."""
    if space != GENERAL:
        return tuple(_assembly(SPACES[space], n, p, _witness_closed).items())
    return tuple((s, LaurentPoly.q((n - p) ** 2 + (n - s) * (m - n)) * gauss(n - s - 1, p - s, 2))
                 for s in range(p + 1))


def _assembly(sp: Space, n: int, p: int, witness: Callable[..., LaurentPoly]) -> dict[int, LaurentPoly]:
    """s -> the witness multiplicity of the simple ``sp.class_label(n, s)``,
    for each s = 0..p where it is nonzero."""
    terms = {}
    for s in range(p + 1):
        index, flavor = sp.class_label(n, s)
        poly = witness(sp.name, n, p, index, flavor)
        if not poly.is_zero:
            terms[s] = poly
    return terms


def support_poly_from_ext(space: str, n: int, p: int, route: str = "closed") -> SupportPoly:
    """Local cohomology classes assembled from Ext witness multiplicities.

    Each class D_s corresponds to the simple ``Space.class_label`` names,
    index floor(n/2)-s (skew) or n-s with a parity flavor (symm); its
    polynomial is the witness multiplicity inside Ext(J_p, S), computed by
    the requested route (``closed``, ``enum`` or ``bott``); ``support_poly``
    is the ``closed`` one, and ``bott``, reading none of its memos, checks it
    independently.  Only skew/symm spaces: general-matrix Ext is out of scope.
    """
    if space == GENERAL:
        raise ValueError("the Ext assembly route covers skew/symm only")
    sp = _check_args(space, n, p, None)
    witness = WITNESS_ROUTES.get(route)
    if witness is None:
        raise ValueError(f"unknown route {route!r}; expected one of {', '.join(WITNESS_ROUTES)}")
    return SupportPoly(space, n, p, None, _assembly(sp, n, p, witness))


def lcd(space: str, n: int, p: int, m: int | None = None) -> int:
    """Local cohomological dimension along the rank-p locus: the largest j
    with nonzero j-th local cohomology, read off the closed form."""
    return support_poly(space, n, p, m).top_degree()


def lcd_closed_form(space: str, n: int, p: int, m: int | None = None) -> int:
    """The displayed one-line formulas for the local cohomological
    dimension: mn - (p+1)^2 + 1 (general), C(n,2) - C(2p+2,2) + 1 (skew),
    and for symmetric matrices 1 + C(n+1,2) - C(p+2,2) for even p,
    1 + C(n,2) - C(p+1,2) for odd p."""
    _check_args(space, n, p, m)
    if space == GENERAL:
        return m * n - (p + 1) ** 2 + 1
    if space == SKEW:
        return comb(n, 2) - comb(2 * p + 2, 2) + 1
    if p % 2 == 0:
        return 1 + comb(n + 1, 2) - comb(p + 2, 2)
    return 1 + comb(n, 2) - comb(p + 1, 2)


def top_support(space: str, n: int, p: int, m: int | None = None) -> list[int]:
    """Indices s of the classes D_s attaining the top nonzero degree.

    Usually a single index (0 in most cases, 1 for symmetric matrices with
    odd p < n-1), but ties do occur, e.g. for the determinant hypersurface
    p = n-1; all attaining indices are reported.
    """
    return support_poly(space, n, p, m).top_labels()
