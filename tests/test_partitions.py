"""Partition and weight primitives against direct diagram-level oracles."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccoh.partitions import (
    conjugate,
    dominates,
    doubled,
    dual,
    duplicated,
    enumerate_box,
    enumerate_weights,
    padded,
    partition,
    partitions_of_size,
    size,
    weight,
)


def diagram(z):
    """The Young diagram as a set of (row, col) cells; the brute oracle."""
    return {(r, c) for r, parts in enumerate(z) for c in range(parts)}


def conjugate_oracle(z):
    cells = {(c, r) for r, c in diagram(z)}
    rows = max((r for r, _ in cells), default=-1) + 1
    return tuple(sum(1 for rr, _ in cells if rr == r) for r in range(rows))


parts_strategy = st.lists(st.integers(0, 9), max_size=6).map(
    lambda xs: partition(sorted(xs, reverse=True))
)


def test_partition_normalizes_trailing_zeros():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([1, -1])


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)  # self-conjugate staircase
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(parts_strategy)
def test_conjugate_matches_diagram_transpose(z):
    assert conjugate(z) == conjugate_oracle(z)


@given(parts_strategy)
def test_conjugate_involution(z):
    assert conjugate(conjugate(z)) == z


def test_conjugate_swaps_boxes():
    for z in enumerate_box(2, 3):
        c = conjugate(z)
        assert len(c) <= 3 and (not c or c[0] <= 2)


def test_enumerate_box_examples():
    assert set(enumerate_box(2, 2)) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert list(enumerate_box(0, 5)) == [()]
    assert list(enumerate_box(3, 0)) == [()]


@pytest.mark.parametrize("rows,width", [(0, 0), (1, 4), (3, 2), (4, 4), (2, 7)])
def test_enumerate_box_count_and_uniqueness(rows, width):
    out = list(enumerate_box(rows, width))
    assert len(out) == len(set(out)) == comb(rows + width, rows)
    for z in out:
        assert len(z) <= rows and (not z or z[0] <= width)


def test_transforms():
    assert duplicated((3, 1)) == (3, 3, 1, 1)
    assert doubled((3, 1)) == (6, 2)
    assert duplicated(()) == () and doubled(()) == ()


def test_dominance():
    assert dominates((3, 2), (2, 2))
    assert not dominates((3, 0), (2, 2))
    assert dominates((2, 2), (2, 2))
    assert dominates((3,), (2,)) and dominates((1, 1), ())


def test_dual_examples():
    assert dual((3, 1, -2)) == (2, -1, -3)
    assert dual(()) == ()


@given(st.lists(st.integers(-6, 6), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True))))
def test_dual_involution_and_definition(lam):
    n = len(lam)
    d = dual(lam)
    assert dual(d) == lam
    assert all(d[i] == -lam[n - 1 - i] for i in range(n))


def test_weight_validation_and_padding():
    assert weight((3, 1), 4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        weight((1, 2))
    with pytest.raises(ValueError):
        weight((1, -1), 3)  # zero-padding would break dominance
    with pytest.raises(ValueError):
        weight((1, 1, 1), 2)


def test_non_integer_entries_rejected():
    # no silent truncation or bool-to-int coercion; the first bad entry is named
    for bad, entry in (([2.7], "entry 0"), ([2.7, 1.2], "entry 0"), ([True, False], "entry 0"),
                       ([2, True], "entry 1"), (["3"], "entry 0")):
        with pytest.raises(ValueError, match=f"^{entry} must be an int, got "):
            partition(bad)
        with pytest.raises(ValueError, match=f"^{entry} must be an int, got "):
            weight(bad)
    assert partition(iter([2, 2, 0])) == (2, 2)
    assert weight(x for x in (1, -1)) == (1, -1)


def test_padded():
    assert padded((2, 1), 4) == (2, 1, 0, 0)
    assert padded((2, 1, 0), 2) == (2, 1)
    with pytest.raises(ValueError):
        padded((2, 1), 1)


def test_partitions_of_size_matches_box_filter():
    for total in range(8):
        got = set(partitions_of_size(total, 3))
        expected = {z for z in enumerate_box(3, total) if size(z) == total}
        assert got == expected
    assert list(partitions_of_size(0, 0)) == [()]
    assert list(partitions_of_size(3, 0)) == []


def test_enumerate_weights():
    out = list(enumerate_weights(2, -1, 1))
    assert len(out) == len(set(out)) == comb(2 * 1 + 1 + 1, 2)
    assert all(a >= b and -1 <= b and a <= 1 for a, b in out)
    assert list(enumerate_weights(0, -3, 3)) == [()]


# The recursive generators the iterative enumerators replaced; the Bott
# sweep's counterexamples name the first failure in this order.
def box_reference(rows, width):
    if rows == 0 or width == 0:
        yield ()
        return
    for first in range(width, 0, -1):
        for rest in box_reference(rows - 1, first):
            yield (first,) + rest
    yield ()


def sized_reference(total, max_parts, max_part=None):
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    first_cap = total if max_part is None else min(total, max_part)
    for first in range(first_cap, 0, -1):
        for rest in sized_reference(total - first, max_parts - 1, first):
            yield (first,) + rest


def weights_reference(rank, lo, hi):
    if rank < 0 or lo > hi:
        return
    if rank == 0:
        yield ()
        return
    for first in range(hi, lo - 1, -1):
        for rest in weights_reference(rank - 1, lo, first):
            yield (first,) + rest


def test_enumerate_box_order_pinned():
    for rows in range(8):
        for width in range(8):
            assert list(enumerate_box(rows, width)) == list(box_reference(rows, width))


def test_partitions_of_size_order_pinned():
    for total in range(-1, 16):
        for max_parts in range(7):
            assert list(partitions_of_size(total, max_parts)) == list(
                sized_reference(total, max_parts)
            )
    # the reference ran unbounded below zero parts; the successor refuses
    with pytest.raises(ValueError):
        list(partitions_of_size(3, -1))


def test_enumerate_weights_order_pinned():
    for rank in range(5):
        for lo in range(-3, 2):
            for hi in range(lo - 1, 3):
                assert list(enumerate_weights(rank, lo, hi)) == list(
                    weights_reference(rank, lo, hi)
                )
