"""Characters on the spaces of symmetric and skew-symmetric matrices.

This module collects the weight combinatorics attached to the two spaces:

* the weight sets describing the simple equivariant modules (one family
  indexed by s for skew-symmetric matrices, two flavors per index for
  symmetric ones), their membership tests and witness weights;
* the Weyl dimension formula;
* characters of the coordinate ring, of the ideals I_z generated by a
  single irreducible, of the cyclic subquotients J_{x,p}, and the
  filtration consistency check tying all of these together.

Infinite characters are truncated by total weight size: a character "at
bound D" lists exactly the weights of size at most D, completely.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from math import prod

from .partitions import (
    Partition,
    Weight,
    dominates,
    doubled,
    duplicated,
    enumerate_weights,
    padded,
    partition,
    partitions_of_size,
    size,
    weight,
)

SKEW = "skew"
SYMM = "symm"
GENERAL = "general"


def _check_int(name: str, value) -> None:
    """Reject a value that is not a plain int, naming the argument: a bool
    or a float equal to an int is not coerced into one."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Space:
    """The facts that tell skew-symmetric and symmetric n x n matrices apart,
    all derived from ``block`` (2 skew, 1 symm) and ``sign`` (-1, +1):

    * a coordinate-ring weight is ``shape(z)``, z repeated (skew) or 2z
      (symm), for z with at most ``rows(n)`` = n // block parts;
    * the rank-p locus has a quotient bundle of rank block * p;
    * the space has dimension n(n + sign)/2 and determinant det(W)^(n + sign);
    * the class D_s is the simple of index rows(n) - s; only symm simples
      below index n carry a flavor, 1 for an odd index and 2 for an even one.
    """

    name: str
    block: int
    sign: int

    def rows(self, n: int) -> int:
        return n // self.block

    def shape(self, z: Partition) -> Partition:
        return duplicated(z) if self.block == 2 else doubled(z)

    def quotient_rank(self, p: int) -> int:
        return self.block * p

    def ambient(self, n: int) -> int:
        return n * (n + self.sign) // 2

    def det_shift(self, n: int) -> int:
        return n + self.sign

    def twist(self, head: int, p: int) -> int:
        """Twist of a layer whose first quotient-rank parts equal head."""
        return head - self.block * p - self.sign

    def top_index(self, n: int, p: int) -> int:
        """Codimension-style index: Ext degree = this minus Bott degree."""
        return self.ambient(n) - self.ambient(self.block * p)

    def class_label(self, n: int, s: int) -> tuple[int, int | None]:
        """Index and flavor of the simple module D_s stands for."""
        index = n // self.block - s  # rows(n) - s, inlined: one call per term
        return index, None if self.block == 2 or index == n else 2 - index % 2


SPACES = {SKEW: Space(SKEW, 2, -1), SYMM: Space(SYMM, 1, 1)}


def _record(space: str, n: int = 0, p: int = 0, s: int = 0, bound: int = 0) -> Space:
    """The record of a skew/symm space, after checking that the arguments an
    entry point passes are plain ints and its truncation bound is
    non-negative: the boundary check of every skew/symm entry point."""
    try:
        sp = SPACES[space]
    except (KeyError, TypeError):
        raise ValueError(f"space must be '{SKEW}' or '{SYMM}', got {space!r}") from None
    # one test on the hot path; _check_int only names the culprit
    if not (type(n) is int and type(p) is int and type(s) is int and type(bound) is int):
        for name, value in (("n", n), ("p", p), ("s", s), ("bound", bound)):
            _check_int(name, value)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return sp


@dataclass(frozen=True, order=True)
class SimpleLabel:
    """Label of a simple equivariant module on skew/symmetric n x n matrices.

    Skew-symmetric matrices carry floor(n/2)+1 simples, indexed by
    s = 0..floor(n/2) with no flavor.  Symmetric matrices carry 2n+1
    simples: index s = 0..n with flavor 1 or 2, where both flavors of s = n
    name the same module (canonical label: flavor None).
    """

    space: str
    n: int
    s: int
    flavor: int | None = None

    def __post_init__(self):
        n, s, flavor = self.n, self.s, self.flavor
        sp = _record(self.space, n=n, s=s)
        if flavor is not None and type(flavor) is not int:
            _check_int("flavor", flavor)
        # n // sp.block is sp.rows(n), inlined: a label makes one call, the lookup
        if not 0 <= s <= n // sp.block:
            raise ValueError(f"{self.space} index s={s} out of range for n={n}")
        if sp.block == 2:
            if flavor is not None:
                raise ValueError("skew labels carry no flavor")
        elif s == n:
            if flavor is not None:
                object.__setattr__(self, "flavor", None)
        elif flavor not in (1, 2):
            raise ValueError("symm labels with s < n require flavor 1 or 2")


def all_labels(space: str, n: int) -> list[SimpleLabel]:
    """Every simple label: floor(n/2)+1 for skew, 2n+1 for symm."""
    if _record(space, n=n).block == 2:
        return [SimpleLabel(SKEW, n, s) for s in range(n // 2 + 1)]
    return [SimpleLabel(SYMM, n, s, j) for s in range(n) for j in (1, 2)] + [SimpleLabel(SYMM, n, n)]


def member_skew(lam: Weight, s: int, n: int) -> bool:
    """Is lam in the weight set of the skew simple with index s?

    For n = 2m the set is {lam dominant : lam_{2s} >= 2s-1,
    lam_{2s+1} <= 2s, lam_{2i-1} = lam_{2i} for all i}; for n = 2m+1 it is
    {lam : lam_{2s+1} = 2s, lam_{2i-1} = lam_{2i} for i <= s,
    lam_{2i} = lam_{2i+1} for i > s}.  Conditions on out-of-range indices
    are vacuous.
    """
    if not (type(s) is int and type(n) is int):
        for name, value in (("s", s), ("n", n)):
            _check_int(name, value)
    lam = weight(lam)
    if len(lam) != n:
        raise ValueError(f"weight {lam} does not have rank {n}")
    m = n // 2
    if not 0 <= s <= m:
        raise ValueError(f"index s={s} out of range for n={n}")
    if n % 2 == 0:
        if any(lam[2 * i] != lam[2 * i + 1] for i in range(m)):
            return False
        if s >= 1 and lam[2 * s - 1] < 2 * s - 1:
            return False
        if 2 * s + 1 <= n and lam[2 * s] > 2 * s:
            return False
        return True
    if lam[2 * s] != 2 * s:
        return False
    if any(lam[2 * i - 2] != lam[2 * i - 1] for i in range(1, s + 1)):
        return False
    if any(lam[2 * i - 1] != lam[2 * i] for i in range(s + 1, m + 1)):
        return False
    return True


def member_symm(lam: Weight, s: int, flavor: int, n: int) -> bool:
    """Is lam in the weight set of the symm simple with index s and flavor?

    Flavor 1: all entries congruent to s+1 mod 2, and
    lam_s >= s+1 >= lam_{s+2}.  Flavor 2: entries 1..s congruent to s+1,
    entries s+1..n congruent to s, and lam_s >= s+1, lam_{s+1} <= s.
    """
    if not (type(s) is int and type(flavor) is int and type(n) is int):
        for name, value in (("s", s), ("flavor", flavor), ("n", n)):
            _check_int(name, value)
    lam = weight(lam)
    if len(lam) != n:
        raise ValueError(f"weight {lam} does not have rank {n}")
    if not 0 <= s <= n:
        raise ValueError(f"index s={s} out of range for n={n}")
    if flavor not in (1, 2):
        raise ValueError(f"flavor must be 1 or 2, got {flavor}")
    if flavor == 1:
        if any((a - s - 1) % 2 for a in lam):
            return False
        if s >= 1 and lam[s - 1] < s + 1:
            return False
        if s + 2 <= n and lam[s + 1] > s + 1:
            return False
        return True
    if any((lam[i] - s - 1) % 2 for i in range(s)):
        return False
    if any((lam[i] - s) % 2 for i in range(s, n)):
        return False
    if s >= 1 and lam[s - 1] < s + 1:
        return False
    if s + 1 <= n and lam[s] > s:
        return False
    return True


def member(label: SimpleLabel, lam: Weight) -> bool:
    """Membership of lam in the weight set of the labelled simple module."""
    if label.space == SKEW:
        return member_skew(lam, label.s, label.n)
    if label.s == label.n:
        return member_symm(lam, label.s, 1, label.n)
    return member_symm(lam, label.s, label.flavor, label.n)


def witness_weight(label: SimpleLabel) -> Weight:
    """The weight occurring in this simple module's character and in no
    other: (2s)^n for skew; (s+1)^n for symm flavor 1 and
    ((s+1)^s, s^(n-s)) for flavor 2."""
    n, s = label.n, label.s
    if label.space == SKEW:
        return (2 * s,) * n
    if label.flavor == 2 and s < n:
        return (s + 1,) * s + (s,) * (n - s)
    return (s + 1,) * n


def enumerate_members(label: SimpleLabel, entry_bound: int) -> list[Weight]:
    """All weights of the labelled set with every |entry| <= entry_bound.

    The sets are infinite (unbounded below), so an entry bound is required
    to make the listing finite.
    """
    return [
        lam
        for lam in enumerate_weights(label.n, -entry_bound, entry_bound)
        if member(label, lam)
    ]


def schur_dimension(lam: Weight, n: int | None = None) -> int:
    """Dimension of the irreducible GL representation with highest weight
    lam, by the Weyl formula prod_{i<j} (lam_i - lam_j + j - i)/(j - i)."""
    lam = weight(lam, n)
    n = len(lam)
    num = prod(lam[i] - lam[j] + j - i for i in range(n) for j in range(i + 1, n))
    den = prod(j - i for i in range(n) for j in range(i + 1, n))
    assert num % den == 0
    return num // den


def _partitions_up_to(most: int, rows: int) -> Iterator[Partition]:
    """All partitions of size at most `most` with at most `rows` parts,
    size by size (nothing is yielded for a negative `most`)."""
    for t in range(most + 1):
        yield from partitions_of_size(t, rows)


def _ring_partitions(sp: Space, n: int, bound: int) -> Iterator[tuple[Partition, Partition]]:
    """Pairs (z, shape(z)) over all z giving |shape(z)| <= bound: exactly
    the partitions z of size at most bound // 2 with at most rows(n) parts,
    enumerated size by size, none built and dropped.  Reads the record's
    ``rows`` and ``shape``."""
    for z in _partitions_up_to(bound // 2, sp.rows(n)):
        yield z, sp.shape(z)


def space_character(space: str, n: int, bound: int) -> Counter:
    """Character of the coordinate ring, truncated at total size <= bound:
    all 2z (symm) resp. z repeated (skew), each with multiplicity 1."""
    sp = _record(space, n=n, bound=bound)
    return Counter(shape for _, shape in _ring_partitions(sp, n, bound))


def ideal_character(space: str, n: int, z: Partition, bound: int) -> Counter:
    """Character of the ideal generated by the irreducible attached to z:
    the shapes coming from y >= z componentwise, truncated at bound."""
    sp = _record(space, n=n, bound=bound)
    z = partition(z)
    rows = sp.rows(n)
    if len(z) > rows:
        raise ValueError(f"z={z} needs at most {rows} parts for {space} n={n}")
    return Counter(
        shape for y, shape in _ring_partitions(sp, n, bound) if dominates(y, z)
    )


def _layer_head(sp: Space, x: Partition, n: int, p: int) -> tuple[tuple[int, ...], int]:
    """x zero-padded to n and the quotient rank k, after checking that x is
    a partition with at most n parts whose first k parts are equal."""
    k = sp.quotient_rank(p)
    if p < 0 or k > n:
        raise ValueError(f"invalid p={p} for {sp.name} n={n}")
    x = partition(x)
    if len(x) > n:
        raise ValueError(f"x={x} needs at most {n} parts")
    xp = padded(x, n)
    if any(xp[i] != xp[0] for i in range(k)):
        raise ValueError(f"first {k} parts of x={x} must be equal")
    return xp, k


def layer_character(space: str, n: int, x: Partition, p: int, bound: int) -> Counter:
    """Character of the cyclic subquotient generated by the x-isotypic
    component: all x + 2y (symm) resp. x + (y repeated) (skew) for y with at
    most p parts, truncated at total size <= bound.

    Requires the first p (symm) resp. 2p (skew) parts of x to be equal,
    which makes every listed weight a partition and the decomposition
    multiplicity-free.  The y are enumerated size by size up to
    (bound - |x|) // 2.
    """
    sp = _record(space, n=n, p=p, bound=bound)
    xp, _ = _layer_head(sp, x, n, p)
    out: Counter = Counter()
    for y in _partitions_up_to((bound - sum(xp)) // 2, p):
        out[partition(tuple(a + b for a, b in zip(xp, padded(sp.shape(y), n))))] += 1
    return out


def filtration_layers(space: str, n: int, p: int, bound: int) -> list[Partition]:
    """The ordered list of partitions indexing the rank filtration: all z
    (at most n parts for symm, floor(n/2) for skew) with
    z_1 = ... = z_{p+1} and |shape(z)| <= bound, ordered by size then
    lexicographically.  The z are taken from the ring's partitions of size
    at most bound // 2, so the first layer is always ().

    Any linear order with no earlier term componentwise >= a later one
    works; size-then-lex is such an order and is fixed here for
    reproducibility.
    """
    sp = _record(space, n=n, p=p, bound=bound)
    rows = sp.rows(n)
    if not 0 <= p < rows:
        raise ValueError(f"invalid p={p} for {space} n={n}")
    out = []
    for z in _partitions_up_to(bound // 2, rows):
        zp = padded(z, rows)
        # parts are non-increasing, so the first p+1 are equal when the ends are
        if zp[p] == zp[0]:
            out.append(z)
    out.sort(key=lambda z: (size(z), z))
    return out


@dataclass
class FiltrationReport:
    """Outcome of the filtration consistency check."""

    ok: bool
    space: str
    n: int
    p: int
    bound: int
    layers: list[Partition]
    mismatch: dict | None = None


def filtration_check(space: str, n: int, p: int, bound: int) -> FiltrationReport:
    """Verify, below the truncation bound, that the rank filtration works:

    * each successive ideal quotient has exactly the character of the
      cyclic subquotient attached to its indexing partition, and
    * the layer characters together exhaust the coordinate ring (the graded
      pieces sum to the full direct-sum module).

    The ideal sum(i >= r) I_{layer_i} holds the shapes of the y dominating
    some layer at index >= r, and shape is injective, so the r-th quotient
    holds exactly the y whose last dominated layer is r.  One pass over the
    ring assigns every y to that layer; every y dominates the first layer
    ().  Reports the first layer where the characters disagree.
    """
    layers = filtration_layers(space, n, p, bound)
    sp = SPACES[space]  # filtration_layers has checked every argument
    # a layer larger than y cannot lie below it, so the search for the
    # last dominated layer starts at the last one of size <= |y|
    sizes = [size(z) for z in layers]
    quotients = [Counter() for _ in layers]
    for y, shape_y in _ring_partitions(sp, n, bound):
        r = bisect_right(sizes, size(y)) - 1
        while r >= 0 and not dominates(y, layers[r]):
            r -= 1
        if r < 0:
            raise AssertionError(f"ring partition {y} dominates no layer, not even ()")
        quotients[r][shape_y] = 1
    union_layers: Counter = Counter()
    for r, (lam, expected) in enumerate(zip(layers, quotients)):
        got = layer_character(space, n, sp.shape(lam), p, bound)
        union_layers += got
        if expected != got:
            return FiltrationReport(
                False, space, n, p, bound, layers,
                mismatch={
                    "layer": r,
                    "partition": list(lam),
                    "quotient_character": sorted(map(list, expected)),
                    "cyclic_character": sorted(map(list, got)),
                },
            )
    full = space_character(space, n, bound)
    if union_layers != full:
        return FiltrationReport(
            False, space, n, p, bound, layers,
            mismatch={
                "layer": None,
                "union_of_layers": sorted(map(list, union_layers)),
                "ring_character": sorted(map(list, full)),
            },
        )
    return FiltrationReport(True, space, n, p, bound, layers)
