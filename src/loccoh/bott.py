"""Cohomology of irreducible homogeneous bundles on Grassmannians.

``bott`` runs the classical sort-and-count-inversions algorithm for the
bundle S_beta(R) (x) S_alpha(Q) on the Grassmannian G(k, V) of k-dimensional
quotients of an n-dimensional space: at most one cohomological degree is
nonzero, and both the degree and the resulting irreducible are produced.
It validates its input and runs ``bott_kernel``, the one implementation of
the algorithm, which works on shifted entries gamma + delta and batches
many alphas against one beta.  ``bott_span_summary`` sums up the kernel's
outcomes over every k-subset of a span (the number of heads, the degree
tally of the nonzero outcomes and the targets reached) from kernel runs on
prefixes and on suffixes only: a head splits into a prefix and a suffix
of half its entries, and its outcome is the two pieces' outcomes joined
(see there for the rule).  ``bott_preimage`` inverts the kernel: given the
beta block and a sorted outcome, it names the one alpha block that reaches
it, with its degree, without trying any other.

``trivial_isotypic`` and ``wedge_isotypic`` are the closed-form answers for
when that cohomology contributes a trivial summand, respectively a
wedge-power summand; the trivial weight is the wedge weight at s = n, so
``trivial_isotypic`` is ``wedge_isotypic`` there.  The acceptance sweep
checks ``wedge_isotypic`` against the kernel at every applicable s.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb
from operator import add, itemgetter, neg, sub

from .partitions import Partition, Weight, _check_ints, conjugate, dual, padded, partition, size, weight
from .qseries import LaurentPoly


@dataclass(frozen=True)
class BottCohomology:
    """Nonzero outcome: a single cohomological degree and a dominant weight."""

    degree: int
    weight: Weight


def shifted(w: Weight, top: int) -> tuple[int, ...]:
    """w_i + top - 1 - i: a block of gamma + delta, for the block w of gamma
    that starts ``top`` places from the end (``shifted(alpha, n)``,
    ``shifted(beta, n - k)``).  Strictly decreasing when w is dominant."""
    return tuple(map(add, w, range(top - 1, top - 1 - len(w), -1)))


def unshifted(c: tuple[int, ...]) -> Weight:
    """Inverse of ``shifted(w, len(w))``: c - delta."""
    return tuple(map(sub, c, range(len(c) - 1, -1, -1)))


class _CountAbove(dict):
    """v -> #{b in tail : b > v} for the strictly decreasing ``tail``,
    filled on first lookup; the degree of a head is the sum over its
    entries."""

    __slots__ = ("tail",)

    def __init__(self, tail: tuple[int, ...]):
        self.tail = tail

    def __missing__(self, v: int) -> int:
        count = self[v] = bisect_left(self.tail, -v, key=neg)
        return count


def bott_kernel(
    tail: tuple[int, ...], heads: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...]] | None]:
    """Bott's algorithm on shifted entries, one beta against many alphas.

    ``tail`` is ``shifted(beta, n-k)`` and each head is ``shifted(alpha, n)``
    for an alpha of rank k, so both are strictly decreasing tuples; nothing
    is validated.  Yields, head by head, None when head and tail share an
    entry, else ``(degree, c)`` with c the n entries sorted decreasingly
    (the weight is ``unshifted(c)``).  Each block is already sorted, so the
    degree counts the tail entries above each head entry.
    """
    isdisjoint = frozenset(tail).isdisjoint
    above = _CountAbove(tail).__getitem__
    for head in heads:
        if isdisjoint(head):
            yield sum(map(above, head)), tuple(sorted(head + tail, reverse=True))
        else:
            yield None


def bott_span_summary(
    tail: tuple[int, ...], span: Sequence[int], k: int, targets: Collection[tuple[int, ...]]
) -> tuple[int, Counter[int], dict[tuple[int, ...], tuple[int, tuple[int, ...]]]]:
    """What ``bott_kernel(tail, combinations(span, k))`` yields, summed up
    with no step per head: the number of heads, the tally degree -> count
    of the nonzero outcomes, and ``{target: (degree, head)}`` for each of
    ``targets`` (shifted weights) that some head reaches, in
    ``bott_preimage``'s form.

    ``span`` is strictly decreasing, so every head is.  A head splits into
    a prefix P and a suffix S of its last m = floor(k/2) entries, all below
    h = P[-1]; a one-entry head stays whole (m = k, P empty).  With
    a = #{tail entries >= h}, the head meets the tail iff P or S does;
    otherwise its degree is the sum of the kernel's degrees for P and for
    S, and its c is the first k-m+a entries of the kernel's c for P
    followed by the kernel's c for S without its first a entries (those
    are ``tail[:a]``).  So the kernel runs once on each of the
    comb(len(span), m) suffixes and, when k > m, once on each of the
    comb(len(span)-m, k-m) prefixes, all against the whole tail; a half
    split keeps both counts small.  The suffixes below h are the last
    comb(len(span)-1-i, m), i the index of h in the span.  The prefixes
    ending in h cover that block: their degree tally convolved with the
    block's, and a target when one free prefix's c begins it and the rest
    is a free suffix's c without its first a entries.

    >>> bott_span_summary((3,), range(5, 0, -1), 4, [(5, 4, 3, 2, 1), (5, 4, 3, 2, 0)])
    (5, Counter({2: 1}), {(5, 4, 3, 2, 1): (2, (5, 4, 2, 1))})
    >>> list(bott_kernel((3,), combinations(range(5, 0, -1), 4)))
    [None, None, (2, (5, 4, 3, 2, 1)), None, None]
    """
    m = k // 2 or k
    sufs = list(bott_kernel(tail, combinations(span, m)))
    total = len(sufs)
    # a free suffix's c against the whole tail -> its degree
    free_sufs = dict(map(reversed, filter(None, sufs)))
    last = len(span) - 1
    # first suffix below span[i] -> degree tally of the free suffixes from it on
    from_start = {}
    below: Counter[int] = Counter()
    end = total
    for i in range(last, -2, -1):
        start = total - comb(last - i, m)
        below.update(map(itemgetter(0), filter(None, sufs[start:end])))
        from_start[start] = dict(below)
        end = start
    # (prefix outcomes, first suffix below them, #{tail entries >= their
    # last entry}); the empty prefix's outcome is (0, tail)
    groups = [([(0, tail)], 0, 0)] if k == m else (
        (bott_kernel(tail, map(add, combinations(span[:i], k - m - 1), repeat((span[i],)))),
         total - comb(last - i, m), bisect_right(tail, -span[i], key=neg))
        for i in range(k - m - 1, len(span) - m))
    in_tail = frozenset(tail).__contains__
    covered = 0
    tally: Counter[int] = Counter()
    reached = {}
    for outcomes, start, a in groups:
        outs = list(outcomes)
        covered += len(outs) * (total - start)
        # a free prefix's c against the whole tail -> its degree
        free_prefixes = dict(map(reversed, filter(None, outs)))
        for pd, count in Counter(free_prefixes.values()).items():
            for sd, free in from_start[start].items():
                tally[pd + sd] += count * free
        for t in targets:
            pd = free_prefixes.get(t[:k - m + a] + tail[a:])
            sd = free_sufs.get(tail[:a] + t[k - m + a:])
            if pd is not None and sd is not None:
                reached[t] = pd + sd, tuple(v for v in t if not in_tail(v))
    return covered, tally, reached


def bott_preimage(
    tail: tuple[int, ...], target: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """The inverse of ``bott_kernel`` for one tail: the head that the
    kernel sends to ``target``, with the degree it yields there.

    ``tail`` and ``target`` are strictly decreasing tuples of shifted
    entries; nothing is validated.  A head disjoint from the tail reaches
    ``target`` exactly when head and tail together are its entries, so
    there is at most one such head: ``target`` minus ``tail``, kept in
    decreasing order.  Returns None when the tail is not contained in
    ``target``, else ``(degree, head)``; the head is not bounded to any
    range, so a caller that sweeps a range must check it lies there.

    >>> bott_preimage((3,), (4, 3, 1))
    (1, (4, 1))
    >>> next(bott_kernel((3,), [(4, 1)]))
    (1, (4, 3, 1))
    >>> bott_preimage((2,), (4, 3, 1)) is None
    True
    """
    in_tail = frozenset(tail).__contains__
    head = tuple(c for c in target if not in_tail(c))
    if len(head) + len(tail) != len(target):
        return None
    return sum(map(_CountAbove(tail).__getitem__, head)), head


def bott(alpha: Weight, beta: Weight, n: int) -> BottCohomology | None:
    """All cohomology of S_beta(R) (x) S_alpha(Q) on G(k, V), k = len(alpha).

    Returns None when every cohomology group vanishes.  Otherwise the unique
    nonzero group sits in degree l = #{x < y : gamma_x - x < gamma_y - y}
    (gamma the concatenation of alpha and beta) and is the irreducible with
    highest weight sort(gamma + delta) - delta, delta = (n-1, ..., 1, 0).

    k = 0 and k = n are permitted; the empty factor is the trivial bundle.
    """
    alpha = weight(alpha)
    beta = weight(beta)
    _check_ints(n=n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    k = len(alpha)
    if len(beta) != n - k:
        raise ValueError(f"rank mismatch: |alpha|={k}, |beta|={len(beta)}, n={n}")
    c = shifted(alpha + beta, n)
    res = next(bott_kernel(c[k:], (c[:k],)))
    if res is None:
        return None
    return BottCohomology(res[0], unshifted(res[1]))


def trivial_isotypic(beta: Partition, k: int, n: int) -> tuple[LaurentPoly, Weight | None]:
    """Multiplicity generating function of the trivial representation in
    H^*(G(k,V), S_beta(R) (x) S_alpha(Q)), together with the unique alpha
    achieving it.

    A trivial summand occurs (in degree |beta|, for the single weight
    alpha = dual(beta')) exactly when beta fits the (n-k) x k box; the
    returned polynomial is q^|beta| then, zero otherwise.
    """
    return wedge_isotypic(beta, k, n, n)


def wedge_isotypic(beta: Partition, k: int, n: int, s: int) -> tuple[LaurentPoly, Weight | None]:
    """Like ``trivial_isotypic`` for the (n-s)-th wedge power of the ambient
    space, i.e. the dominant weight (0^s, (-1)^(n-s)).

    Requires n-k <= s <= n and every beta_i >= n-s (zero-padded to n-k
    parts); the contributing alpha is dual(beta') shifted by
    (0^(s-n+k), (-1)^(n-s)).  ``s = n`` recovers ``trivial_isotypic``.
    """
    _check_ints(k=k, n=n, s=s)
    beta = partition(beta)
    if len(beta) > n - k:
        raise ValueError(f"beta={beta} needs at most {n - k} parts")
    if not n - k <= s <= n:
        raise ValueError(f"need n-k <= s <= n, got s={s}, k={k}, n={n}")
    if any(b < n - s for b in padded(beta, n - k)):
        raise ValueError(f"beta={beta} violates beta_i >= n-s = {n - s}")
    if beta and beta[0] > k:
        return LaurentPoly.zero(), None
    base = dual(padded(conjugate(beta), k))
    alpha = tuple(a + (0 if i < s - n + k else -1) for i, a in enumerate(base))
    return LaurentPoly.q(size(beta)), alpha
