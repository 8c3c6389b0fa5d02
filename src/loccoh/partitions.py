"""Partitions and dominant integer weights, represented as plain tuples.

A partition is a normalized tuple of non-increasing positive integers
(trailing zeros are stripped, so ``(3, 1, 0)`` and ``(3, 1)`` are the same
partition).  A dominant weight of rank n is a non-increasing tuple of
exactly n integers, negative entries allowed.  Everything here is pure and
immutable.

Every integer argument and tuple entry must be a plain ``int``: anything
else (a bool, ``4.0``, a numpy int) raises a ``ValueError`` naming it, from
``_check_ints``, the one home of that rule for the whole package.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import lt

Partition = tuple[int, ...]
Weight = tuple[int, ...]


_EXACT_INT = frozenset((int,))


def _check_ints(**named: object) -> None:
    """The integer-input rule: reject the first value that is not a plain
    int, naming its argument; nothing is coerced into an int."""
    for name, value in named.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def _integers(entries: Iterable[int]) -> tuple[int, ...]:
    """The entries as a tuple, each a plain int by ``_check_ints``."""
    t = tuple(entries)
    if not _EXACT_INT.issuperset(map(type, t)):
        _check_ints(**{f"entry {i}": v for i, v in enumerate(t)})
    return t


def partition(parts: Iterable[int]) -> Partition:
    """Normalize a partition, stripping trailing zeros.

    >>> partition([3, 1, 0])
    (3, 1)
    """
    t = _integers(parts)
    if any(map(lt, t, t[1:])):
        raise ValueError(f"parts are not non-increasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in partition: {t}")
    # parts are non-increasing and non-negative, so the zeros trail
    return t[:len(t) - t.count(0)]


def weight(entries: Iterable[int], rank: int | None = None) -> Weight:
    """Validate a dominant weight; with ``rank`` given, pad/check its length.

    Padding appends zeros, which is only legal while the result stays
    non-increasing (i.e. the last entry is >= 0).
    """
    t = _integers(entries)
    if any(map(lt, t, t[1:])):
        raise ValueError(f"entries are not non-increasing: {t}")
    if rank is not None:
        _check_ints(rank=rank)
        if len(t) > rank:
            raise ValueError(f"weight {t} has more than {rank} entries")
        if len(t) < rank:
            if t and t[-1] < 0:
                raise ValueError(f"cannot zero-pad {t} to rank {rank}")
            t = t + (0,) * (rank - len(t))
    return t


def size(z: Iterable[int]) -> int:
    """Sum of the entries."""
    return sum(z)


def padded(z: Iterable[int], length: int) -> tuple[int, ...]:
    """Pad with zeros on the right (or drop trailing zeros) to `length`."""
    t = tuple(z)
    if len(t) > length:
        if any(t[length:]):
            raise ValueError(f"{t} does not fit in {length} parts")
        return t[:length]
    return t + (0,) * (length - len(t))


def conjugate(z: Iterable[int]) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    """
    z = partition(z)
    if not z:
        return ()
    return tuple(sum(1 for a in z if a >= i) for i in range(1, z[0] + 1))


def dual(w: Iterable[int]) -> Weight:
    """The dual weight: dual(w)_i = -w_{n+1-i}.  An involution."""
    return tuple(-a for a in reversed(tuple(w)))


def doubled(z: Iterable[int]) -> Partition:
    """Multiply every part by two: (z1, z2, ...) -> (2*z1, 2*z2, ...)."""
    return tuple(2 * a for a in partition(z))


def duplicated(z: Iterable[int]) -> Partition:
    """Repeat every part twice: (z1, z2, ...) -> (z1, z1, z2, z2, ...)."""
    return tuple(a for a in partition(z) for _ in (0, 1))


def dominates(y: Iterable[int], z: Iterable[int]) -> bool:
    """Componentwise y_i >= z_i, padding the shorter with zeros."""
    y, z = tuple(y), tuple(z)
    length = max(len(y), len(z))
    y = y + (0,) * (length - len(y))
    z = z + (0,) * (length - len(z))
    return all(a >= b for a, b in zip(y, z))


def enumerate_box(rows: int, width: int) -> Iterator[Partition]:
    """All partitions with at most `rows` parts, each at most `width`.

    Lexicographically descending, by an iterative lex successor; yields
    comb(rows+width, rows) partitions.
    """
    _check_ints(rows=rows, width=width)
    if rows < 0 or width < 0:
        raise ValueError("box dimensions must be non-negative")
    a = [width] * rows
    parts = rows if width else 0
    while True:
        yield tuple(a[:parts])
        if not parts:
            return
        # lower the last nonzero part; later parts refill to it or it drops
        v = a[parts - 1] - 1
        if v:
            a[parts - 1:] = [v] * (rows - parts + 1)
            parts = rows
        else:
            parts -= 1


def partitions_of_size(total: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of `total` with at most `max_parts` parts.

    Lexicographically descending, by an iterative successor.
    """
    # inline first: the ring, ideal and layer characters call this once per size
    if not (type(total) is int and type(max_parts) is int):
        _check_ints(total=total, max_parts=max_parts)
    if max_parts < 0:
        raise ValueError("max_parts must be non-negative")
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    if not max_parts:
        return
    a = [total]
    while True:
        yield tuple(a)
        # the rightmost part v that can drop to v-1 with the rest of the
        # suffix still fitting in the remaining slots under v-1; the
        # trailing ones cannot drop
        i = len(a) - a.count(1)
        rest = len(a) - i
        while i:
            i -= 1
            rest += a[i]
            v = a[i] - 1
            if rest - v <= (max_parts - 1 - i) * v:
                break
        else:
            return
        q, r = divmod(rest - v, v)
        a[i:] = [v] * (q + 1) + [r] * (r > 0)


def enumerate_weights(rank: int, lo: int, hi: int) -> Iterator[Weight]:
    """All dominant weights of the given rank with entries in [lo, hi]:
    lo plus a partition of the rank x (hi-lo) box, zero-padded, in the
    box's (lexicographically descending) order."""
    _check_ints(rank=rank, lo=lo, hi=hi)
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    if lo > hi:
        return
    for z in enumerate_box(rank, hi - lo):
        yield tuple([lo + a for a in z] + [lo] * (rank - len(z)))
