"""Ext multiplicities of the rank-filtration subquotients, three ways.

For the direct sum J_p of cyclic subquotients indexing the rank filtration,
the multiplicity generating function of each witness weight inside
Ext(J_p, S) is computed by three independent routes:

* ``witness_ext_closed``   -- the closed-form case splits (a power of q
  times a Gauss polynomial in q^4 or q^-4);
* ``witness_ext_enum``     -- enumeration of the box of partitions that
  parametrizes the nonvanishing layers, reconstructing each layer and its
  associated bundle weight and summing the resulting powers of q;
* ``witness_ext_bott``     -- the sheaf-cohomology route: on the
  Grassmannian, invert the Bott kernel at the witness weight against each
  layer's fixed sub-bundle weight, and read off the one summand of the
  dual twisted symmetric algebra that can land there.

``ext_character`` computes the full graded character of Ext(J_{x,p}, S) for
a single subquotient, truncated to a finite window of weight sizes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add

from .characters import (
    SKEW,
    SimpleLabel,
    Space,
    _check_int,
    _layer_head,
    _record,
    witness_weight,
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
    partitions_of_size,
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


def _shifted_heads(
    sp: Space, n: int, p: int, twist: int, ys: Iterable[Partition]
) -> Iterator[tuple[int, ...]]:
    """``shifted(alpha, n)`` for the quotient-bundle weight alpha of the y-th
    summand of the dual twisted symmetric algebra, for each y in ``ys``.

    alpha_i = twist - z_{k-i}, z the record's shape of y (doubled for symm,
    duplicated for skew) zero-padded to the quotient rank k.  The ys must be
    partitions with at most p parts; they are not validated again.
    """
    k = sp.quotient_rank(p)
    symm = sp.block == 1
    offsets = list(range(twist + n - 1, twist + n - 1 - k, -1))
    for y in ys:
        # the record's shape, inlined: this loop feeds the Bott kernel
        z = [2 * a for a in y] if symm else [a for a in y for _ in (0, 1)]
        # z reversed and zero-padded on the left lines up with the offsets
        j = k - len(z)
        yield tuple(offsets[:j] + [o - a for o, a in zip(offsets[j:], reversed(z))])


def _head_partition(sp: Space, n: int, twist: int, head: tuple[int, ...]) -> Partition | None:
    """Inverse of ``_shifted_heads``: the y whose head is ``head``, or None
    when no partition gives it.

    z reversed is offsets - head.  Since the offsets drop by one per place
    and the head strictly decreasing, z is non-increasing already; it must
    be non-negative and in the record's shape, doubled (symm) or duplicated
    (skew); y is z halved or every other entry of z, zero-padded to p parts.
    """
    z = [o - h for o, h in zip(range(twist + n - len(head), twist + n), reversed(head))]
    if z and z[-1] < 0:
        return None
    if sp.block == 1:
        if any(a % 2 for a in z):
            return None
        return tuple(a // 2 for a in z)
    y = z[::2]
    if y != z[1::2]:
        return None
    return tuple(y)


def _layer_witness_counts(
    sp: Space, n: int, k: int, top: int, twist: int, x2: tuple[int, ...],
    target_c: tuple[int, ...], target_size: int,
) -> Counter:
    """Multiplicity generating function of a rank-n weight inside
    Ext(J_{x,p}, S), via sheaf cohomology and the Bott algorithm, as
    exponent -> coefficient.  The layer x is given by the record's twist of
    its head and its rank n-k sub-bundle weight x2; they are not validated.
    The target enters as ``target_c``, the shifted entries of the target
    minus the record's determinant shift, and ``target_size``, the size of
    that difference; ``top`` is the record's ``top_index``.  All three are
    fixed for a whole ``witness_ext_bott`` call, which computes them once.

    Output weights shrink by 2 per unit of the symmetric-algebra index, so
    only summands y of one size can reach the target; and a Bott head
    reaches it only as the target minus the layer's tail.  So at most one
    summand contributes, and it is found by inverting the kernel and
    ``_shifted_heads`` instead of trying every y of that size.
    """
    needed = k * twist + sum(x2) - target_size
    counts = Counter()
    if needed < 0 or needed % 2:
        return counts
    res = bott_preimage(shifted(x2, n - k), target_c)
    if res is None:
        return counts
    degree, head = res
    y = _head_partition(sp, n, twist, head)
    if y is not None and sum(y) == needed // 2:
        counts[top - degree] += 1
    return counts


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
    ys = (y for half in range((base_final + bound) // 2 + 1)
          if -bound <= base_final - 2 * half <= bound
          for y in partitions_of_size(half, p))
    by_degree: defaultdict[int, Counter] = defaultdict(Counter)
    for res in bott_kernel(shifted(x2, n - k), _shifted_heads(sp, n, p, twist, ys)):
        if res is not None:
            by_degree[top - res[0]][tuple(map(add, res[1], offsets))] += 1
    return GradedCharacter(dict(by_degree), bound)


def _validate_witness_args(space: str, n: int, p: int, s: int, flavor: int | None) -> Space:
    """Check a witness request; return the record of its space."""
    sp = _record(space, n=n, p=p, s=s)
    if flavor is not None and type(flavor) is not int:
        _check_int("flavor", flavor)
    if space == SKEW:
        m = sp.rows(n)
        if not 0 <= p < m:
            raise ValueError(f"need 0 <= p < floor(n/2), got p={p}, n={n}")
        if not 0 <= s <= m:
            raise ValueError(f"need 0 <= s <= floor(n/2), got s={s}, n={n}")
        if flavor is not None:
            raise ValueError("skew witnesses carry no flavor")
    else:
        if not 0 <= p < n:
            raise ValueError(f"need 0 <= p < n, got p={p}, n={n}")
        if not n - p <= s <= n:
            raise ValueError(f"need n-p <= s <= n, got s={s}, p={p}, n={n}")
        if s < n and flavor not in (1, 2):
            raise ValueError("symm witnesses with s < n require flavor 1 or 2")
        if flavor not in (None, 1, 2):
            raise ValueError(f"flavor must be 1 or 2, got {flavor}")
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


def witness_ext_bott(
    space: str, n: int, p: int, s: int, flavor: int | None = None, d_bound: int | None = None
) -> LaurentPoly:
    """Witness multiplicity by summing the sheaf-cohomology route over the
    whole direct sum J_p.

    Sweeps the top value d of the indexing partitions from 0 to d_bound
    (default: two beyond the value forced by the degree condition), summing
    the witness extraction over every layer.  Exactly one d may contribute;
    a second nonzero d would falsify the forced-degree analysis and raises.
    """
    sp = _validate_witness_args(space, n, p, s, flavor)
    # a symm label at s = n drops the flavor itself
    target = witness_weight(SimpleLabel(space, n, s, flavor))
    if space == SKEW:
        forced = 2 * s + 2 * p - n + 1
    else:
        forced = (s + p - n) // 2 if (s + p - n) % 2 == 0 else 0
    if d_bound is None:
        d_bound = max(forced, 0) + 2
    tail_len = sp.rows(n) - p - 1
    k = sp.quotient_rank(p)
    top = sp.top_index(n, p)
    shift = sp.det_shift(n)
    target_mu = tuple(t - shift for t in target)
    target_c, target_size = shifted(target_mu, n), sum(target_mu)
    total = Counter()
    contributing: list[int] = []
    symm = sp.block == 1
    for d in range(d_bound + 1):
        at_d = Counter()
        # the layer x is y = (d^(p+1), tail) in the record's shape, padded
        # to n; its first k parts all equal its head, 2d // block
        twist = sp.twist(2 * d // sp.block, p)
        for tail in enumerate_box(tail_len, d):
            y = (d,) * (p + 1) + padded(tail, tail_len)
            x = [2 * a for a in y] if symm else [a for a in y for _ in (0, 1)]
            at_d.update(_layer_witness_counts(
                sp, n, k, top, twist, padded(x, n)[k:], target_c, target_size
            ))
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
