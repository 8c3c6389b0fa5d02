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
pieces of heads only: a head of k > 1 entries splits into a prefix Q of
j = k - floor(k/2) - 1 entries, one pivot entry h and a suffix S of the
last floor(k/2) (a one-entry head stays whole), and its outcome is the
three pieces' outcomes joined.  With a = #{tail entries > h}, the head is
free iff Q, h and S are, its degree is the sum of theirs, and it reaches
a target t iff t[:j+a] + tail[a:] is a free Q's c, t[j+a] == h, and
tail[:a] + t[j+a+1:] is a free S's c (``bott_span_summary`` says why).
Two running degree tallies, of the free prefixes above the pivot and of
the free suffixes below it, follow the pivot down the span.
``bott_preimage`` inverts the kernel: given the beta block and a sorted
outcome, it names the one alpha block that reaches it, with its degree,
without trying any other.

``trivial_isotypic`` and ``wedge_isotypic`` are the closed-form answers for
when that cohomology contributes a trivial summand, respectively a
wedge-power summand; the trivial weight is the wedge weight at s = n, so
``trivial_isotypic`` is ``wedge_isotypic`` there.  The acceptance sweep
checks ``wedge_isotypic`` against the kernel at every applicable s.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import add, neg, sub

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

    ``span`` is strictly decreasing, so every head is.  A one-entry head
    stays whole: it is a suffix S of m = k entries.  A head of k > 1
    entries splits into three pieces: a prefix Q of j = k-m-1 entries, one
    pivot entry h, and the suffix S of its last m = floor(k/2) entries,
    all below h.  With a = #{tail entries > h}, the head meets the tail iff
    Q, h or S does; otherwise its degree is the sum of the kernel's degrees
    for Q, for (h,) (that is, a) and for S, and it reaches a target t iff

        t[:j+a] + tail[a:] is the kernel's c for a free Q,
        t[j+a] == h, and
        tail[:a] + t[j+a+1:] is the kernel's c for a free S,

    since the entries of c above h are Q and ``tail[:a]``, and those below
    are S and ``tail[a:]``.  So the kernel runs once on each of the
    comb(len(span), m) suffixes, once on each of the len(span)-m-j pivots
    and once on each of the comb(len(span)-m-1, j) prefixes that lie above
    some pivot (at k = 2 the one prefix is empty, with outcome (0, tail)),
    all against the whole tail; nothing runs per head or per (prefix,
    pivot) pair.  Two running degree tallies follow the pivot down the
    span.  The prefixes above span[i] are drained in blocks by their last
    entry, and one tally adds the free ones.  The suffixes below span[i]
    are the last comb(len(span)-1-i, m), and the other tally starts from
    all free suffixes and drops each block that the pivot leaves above it.
    A pivot covers (#prefixes drained above it) * (#suffixes below it)
    heads, and a free pivot adds the two tallies convolved, shifted by a.

    >>> bott_span_summary((3,), range(6, 0, -1), 3, [(5, 3, 2, 1), (4, 3, 2, 0)])
    (20, Counter({1: 6, 2: 3, 0: 1}), {(5, 3, 2, 1): (2, (5, 2, 1))})
    >>> list(bott_kernel((3,), [(5,), (2,), (1,)]))
    [(0, (5, 3)), (1, (3, 2)), (1, (3, 1))]
    """
    m = k // 2 or k
    sufs = list(bott_kernel(tail, combinations(span, m)))
    total = len(sufs)
    # a free suffix's c against the whole tail -> its degree
    free_sufs = dict(map(reversed, filter(None, sufs)))
    # the degree tally of the free suffixes below the current pivot
    below = Counter(free_sufs.values())
    in_tail = frozenset(tail).__contains__
    if k == m:
        # a head of at most one entry is a whole suffix
        return total, below, {
            t: (free_sufs[t], tuple(v for v in t if not in_tail(v)))
            for t in targets if t in free_sufs}
    j = k - m - 1
    # the prefixes' outcomes in blocks by their last entry, so those above
    # span[i] are the first comb(i, j); k = 2 has only the empty prefix,
    # whose outcome is (0, tail) without the kernel
    prefixes = iter([(0, tail)]) if not j else bott_kernel(tail, chain.from_iterable(
        map(add, combinations(span[:e], j - 1), repeat((span[e],)))
        for e in range(len(span) - m - 1)))
    pivots = range(j, len(span) - m)
    above = 0
    # a free prefix's c against the whole tail -> its degree, and their tally
    free_prefixes = {}
    prefix_tally: Counter[int] = Counter()
    covered = start = 0
    tally: Counter[int] = Counter()
    reached = {}
    for i, pivot in zip(pivots, bott_kernel(tail, ((span[i],) for i in pivots))):
        outs = list(islice(prefixes, comb(i, j) - above))
        above += len(outs)
        block = dict(map(reversed, filter(None, outs)))
        free_prefixes.update(block)
        prefix_tally.update(block.values())
        # the suffixes below span[i] are the last comb(len(span) - 1 - i, m)
        leaves, start = start, total - comb(len(span) - 1 - i, m)
        for out in filter(None, sufs[leaves:start]):
            below[out[0]] -= 1
        covered += above * (total - start)
        if pivot is None:
            continue
        a, h = pivot[0], span[i]
        for pd, count in prefix_tally.items():
            for sd, free in below.items():
                tally[pd + a + sd] += count * free
        for t in targets:
            if t[j + a] == h:
                pd = free_prefixes.get(t[:j + a] + tail[a:])
                sd = free_sufs.get(tail[:a] + t[j + a + 1:])
                if pd is not None and sd is not None:
                    reached[t] = pd + a + sd, tuple(v for v in t if not in_tail(v))
    # ``below`` keeps a degree it ran out of at zero; + drops the zeros it added
    return covered, +tally, reached


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
