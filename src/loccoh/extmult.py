"""Ext multiplicities of the rank-filtration subquotients, three ways.

For the direct sum J_p of cyclic subquotients indexing the rank filtration,
the multiplicity generating function of each witness weight inside
Ext(J_p, S) is computed by three independent routes:

* ``witness_ext_closed``   -- the closed-form case splits (a power of q
  times a Gauss polynomial in q^4 or q^-4);
* ``witness_ext_enum``     -- enumeration of the box of partitions that
  parametrizes the nonvanishing layers, reconstructing each layer and its
  associated bundle weight and summing the resulting powers of q;
* ``witness_ext_bott``     -- the sheaf-cohomology route: one loop over
  the layers of each top value, which on the Grassmannian inverts the Bott
  kernel at the witness weight against the layer's fixed sub-bundle weight
  and reads off the one summand of the dual twisted symmetric algebra that
  can land there.

``ext_character`` computes the full graded character of Ext(J_{x,p}, S) for
a single subquotient, truncated to a finite window of weight sizes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, sub

from .characters import (
    SKEW,
    Space,
    _check_rank,
    _layer_head,
    _record,
)
from .partitions import (
    Partition,
    Weight,
    conjugate,
    doubled,
    duplicated,
    enumerate_box,
    padded,
    partition,
)
from .qseries import LaurentPoly, gauss
from .bott import bott_kernel, bott_preimage, shifted


@dataclass
class GradedCharacter:
    """A cohomologically graded character: degree -> weight multiset.

    ``truncation`` records the window: the listing contains exactly the
    weights lam with |sum(lam)| <= truncation, each with its full
    multiplicity.
    """

    by_degree: dict[int, Counter]
    truncation: int

    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    def at(self, degree: int) -> Counter:
        return self.by_degree.get(degree, Counter())

    def multiplicity(self, degree: int, lam: Weight) -> int:
        return self.by_degree.get(degree, Counter()).get(tuple(lam), 0)


def _summand_heads(sp: Space, p: int, base: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """``shifted(alpha, n)`` for the quotient-bundle weight alpha of each
    summand y of the dual twisted symmetric algebra with at most p parts
    and lo <= |y| <= hi, depth first.

    Position q of the record's shape z of y, zero-padded to the quotient
    rank, holds the head entry base + q - z_q, and the head lists q
    downwards.  So y is walked from its last part to its first, and each
    part extends the head prefix its later parts share by the entries of
    its piece of the shape.
    """
    if not p:
        if not lo:
            yield ()
        return
    w = sp.quotient_rank(1)  # shape entries per part of y
    # pieces[i][v]: the head entries of a part v at position i of y, for
    # shape positions w*i + w - 1 down to w*i; a part at i leaves room for
    # i more parts at least as large within hi
    pieces = [[tuple(map(sub, range(base + w * i + w - 1, base + w * i - 1, -1), sp.shape((v,))[::-1]))
               for v in range(hi // (i + 1) + 1)] for i in range(p)]
    # (head prefix, position of the next part, least part, |y| so far)
    stack = [((), p - 1, 0, 0)]
    while stack:
        prefix, i, least, used = stack.pop()
        at = pieces[i]
        if i:
            for v in range(least, (hi - used) // (i + 1) + 1):
                stack.append((prefix + at[v], i - 1, v, used + v))
        else:
            for v in range(max(least, lo - used), hi - used + 1):
                yield prefix + at[v]


def ext_character(space: str, n: int, x: Partition, p: int, bound: int) -> GradedCharacter:
    """Graded character of Ext(J_{x,p}, S), listing every weight lam with
    |sum(lam)| <= bound.

    The expansion of the dual twisted symmetric algebra is enumerated until
    the largest achievable output size drops below -bound, which certifies
    completeness of the window.  Raises when the window cannot contain any
    output at all.
    """
    sp = _record(space, n=n, p=p, bound=bound)
    xp, k = _layer_head(sp, x, n, p)
    twist, x2 = sp.twist(xp[0] if k else 0, p), xp[k:]
    shift = sp.det_shift(n)
    top = sp.top_index(n, p)
    base_final = k * twist + sum(x2) + n * shift
    if base_final < -bound:
        raise ValueError(
            f"window |size| <= {bound} lies above every output "
            f"(maximal size is {base_final}); increase the bound"
        )
    # the final weight is the sorted shifted entries minus delta, plus shift
    offsets = range(shift - n + 1, shift + 1)
    # summand y lands at size base_final - 2|y|, inside the window exactly
    # for these |y|
    lo, hi = max(0, -((bound - base_final) // 2)), (base_final + bound) // 2
    heads = _summand_heads(sp, p, twist + n - k, lo, hi)
    by_degree: defaultdict[int, Counter] = defaultdict(Counter)
    for res in bott_kernel(shifted(x2, n - k), heads):
        if res is not None:
            by_degree[top - res[0]][tuple(map(add, res[1], offsets))] += 1
    return GradedCharacter(dict(by_degree), bound)


def _validate_witness_args(space: str, n: int, p: int, s: int, flavor: int | None) -> Space:
    """Check a witness request by the rank and label rules, plus s at least
    ``Space.lowest_witness``; return the record of its space."""
    sp = _record(space, n, p, s)
    _check_rank(sp, n, p)
    sp.check_label(n, s, flavor)
    if s < sp.lowest_witness(n, p):
        raise ValueError(f"need n-p <= s <= n, got s={s}, p={p}, n={n}")
    return sp


# Bounded so a sweep over large n cannot keep every polynomial; n, m <= 16 give ~1,000 keys.
_CLOSED_FORM_CACHE_SIZE = 4096


def witness_ext_closed(space: str, n: int, p: int, s: int, flavor: int | None = None) -> LaurentPoly:
    """Closed form for the witness multiplicity inside Ext(J_p, S).

    Skew (m = floor(n/2), 0 <= p < m, 0 <= s <= m): zero unless
    m-p <= s <= m, else q^(2(m-p)^2 - (m-p) + 2s) (drop the 2s for even n)
    times the (s-1 choose s-(m-p)) Gauss polynomial in q^4.

    Symm (0 <= p < n, n-p <= s <= n): zero unless s and n-p have the same
    parity and (for s < n) flavor and s do; else
    q^(1 + C(s+1,2) - C(s-(n-p)+2,2)) times the
    (floor((s-1)/2) choose (s-(n-p))/2) Gauss polynomial in q^-4.

    The arguments are validated on every call; the polynomial is then
    memoised per process (``LaurentPoly`` is immutable, so it is shared).
    """
    _validate_witness_args(space, n, p, s, flavor)
    return _witness_closed(space, n, p, s, flavor)


@lru_cache(maxsize=_CLOSED_FORM_CACHE_SIZE)
def _witness_closed(space: str, n: int, p: int, s: int, flavor: int | None) -> LaurentPoly:
    """``witness_ext_closed`` for validated arguments."""
    if space == SKEW:
        m = n // 2
        if s < m - p:
            return LaurentPoly.zero()
        base = 2 * (m - p) ** 2 - (m - p) + (2 * s if n % 2 else 0)
        return LaurentPoly.q(base) * gauss(s - 1, s - (m - p), 4)
    if (s - (n - p)) % 2:
        return LaurentPoly.zero()
    if s < n and (flavor - s) % 2:
        return LaurentPoly.zero()
    base = 1 + comb(s + 1, 2) - comb(s - (n - p) + 2, 2)
    return LaurentPoly.q(base) * gauss((s - 1) // 2, (s - (n - p)) // 2, -4)


def witness_ext_enum(space: str, n: int, p: int, s: int, flavor: int | None = None) -> LaurentPoly:
    """Witness multiplicity by enumerating the parametrizing box.

    Every nonvanishing layer comes from a unique partition z in a box
    determined by (n, p, s); the layer is rebuilt from z, the derived
    sub-bundle weight is checked against the forced top value, the parity
    conditions and the box membership, and contributes one power of q.
    """
    _validate_witness_args(space, n, p, s, flavor)
    counts = Counter()
    if space == SKEW:
        m = n // 2
        width = s - (m - p)
        if width < 0:
            return LaurentPoly.zero()
        d = 2 * s + 2 * p - n + 1
        for z in enumerate_box(m - p - 1, width):
            zp = padded(z, m - p - 1)
            tail = tuple(2 * zi if n % 2 else 2 * zi + 1 for zi in zp)
            y = partition((d,) * (p + 1) + tail)
            x = padded(duplicated(y), n)
            beta = tuple(b + (n - 1 - 2 * s) for b in x[2 * p:])
            if beta[0] != d + n - 1 - 2 * s or any(b % 2 for b in beta):
                raise AssertionError(f"layer for z={z} violates the parity conditions")
            if beta[0] > 2 * p or any(b < 0 for b in beta):
                raise AssertionError(f"bundle weight {beta} escapes its box")
            counts[comb(n, 2) - comb(2 * p, 2) - sum(beta)] += 1
        return LaurentPoly(counts)
    if (s - (n - p)) % 2:
        return LaurentPoly.zero()
    if s < n and (flavor - s) % 2:
        return LaurentPoly.zero()
    d = (s + p - n) // 2
    for z in enumerate_box((n - p - 1) // 2, d):
        tail = padded(duplicated(z), n - p - 1)
        y = partition((d,) * (p + 1) + tail)
        x = padded(doubled(y), n)
        beta = tuple(b + (n - s) for b in x[p:])
        if beta[0] != 2 * d + n - s or beta[0] > p or any(b < 0 for b in beta):
            raise AssertionError(f"bundle weight {beta} escapes its box")
        bconj = padded(conjugate(partition(beta)), p)
        if any(bconj[i - 1] % 2 == 0 for i in range(n - s + 1, p + 1)):
            raise AssertionError(f"conjugate of {beta} violates the parity conditions")
        counts[comb(n + 1, 2) - comb(p + 1, 2) - sum(beta)] += 1
    return LaurentPoly(counts)


def witness_ext_bott(space: str, n: int, p: int, s: int, flavor: int | None = None) -> LaurentPoly:
    """Witness multiplicity by summing the sheaf-cohomology route over the
    whole direct sum J_p.

    Sweeps the top value d of the indexing partitions from 0 to two beyond
    the value forced by the degree condition.  Each layer x, given
    by its twist and its rank n-k sub-bundle weight x2, holds the witness in
    Ext(J_{x,p}, S) at most once, by sheaf cohomology and the Bott algorithm:
    output weights shrink by 2 per unit of the symmetric-algebra index, so
    only summands y of one size can reach the target; and a Bott head
    reaches it only as the target minus the layer's tail.  So at most one
    summand contributes, and it is found by inverting the kernel instead
    of trying every y of that size; it adds q^(top index - Bott degree).
    A layer whose tail has an entry outside the target reaches nothing,
    so it is skipped before the kernel is inverted.  Exactly one d may
    contribute; a second nonzero d would falsify the forced-degree
    analysis and raises.
    """
    sp = _validate_witness_args(space, n, p, s, flavor)
    target = sp.witness(n, s, flavor)
    tail_len = sp.rows(n) - p - 1
    k = sp.quotient_rank(p)
    top = sp.top_index(n, p)
    shift = sp.det_shift(n)
    # the target enters the kernel as its shifted entries minus the
    # determinant shift, and as the size of that difference
    target_mu = tuple(t - shift for t in target)
    target_c, target_size = shifted(target_mu, n), sum(target_mu)
    in_target = frozenset(target_c).issuperset
    total = Counter()
    contributing: list[int] = []
    for d in range(max(sp.forced_top(n, p, s), 0) + 3):
        at_d = Counter()
        # the layer x is y = (d^(p+1), tail) in the record's shape, padded
        # to n: its first k parts are the head of shape((d,)), the rest x2
        # is shape((d,) + tail) padded to n - k
        twist = sp.twist(sp.shape((d,))[0], p)
        # the y of a head: position q of its shape z holds the head entry
        # twist + n - k + q - z_q, so z reversed is these offsets minus the
        # head, which has k entries
        offsets = range(twist + n - k, twist + n)
        for tail in enumerate_box(tail_len, d):
            x2 = padded(sp.shape((d,) + tail), n - k)
            needed = k * twist + sum(x2) - target_size
            if needed < 0 or needed % 2:
                continue
            tail_c = shifted(x2, n - k)
            if not in_target(tail_c):
                continue
            degree, head = bott_preimage(tail_c, target_c)
            y = sp.unshape(tuple([o - h for o, h in zip(offsets, reversed(head))]))
            if y is not None and sum(y) == needed // 2:
                at_d[top - degree] += 1
        if at_d:
            contributing.append(d)
            total.update(at_d)
    if len(contributing) > 1:
        raise RuntimeError(
            f"multiple top values contribute ({contributing}) for "
            f"{space} n={n} p={p} s={s}: forced-degree analysis violated"
        )
    return LaurentPoly(total)


# The three routes by name, for ``support_poly_from_ext`` and ``loccoh ext``.
WITNESS_ROUTES = {
    "closed": witness_ext_closed,
    "enum": witness_ext_enum,
    "bott": witness_ext_bott,
}
