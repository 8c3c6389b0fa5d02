"""Ext multiplicities: closed forms, box enumeration, sheaf cohomology.

The frozen polynomials below were derived by hand from the displayed case
splits and double-checked by running the box enumeration; the test then
holds all three routes to them.
"""

from collections import Counter

import pytest

from loccoh import extmult
from loccoh.characters import SKEW, SYMM
from loccoh.extmult import (
    ext_character,
    witness_ext_bott,
    witness_ext_closed,
    witness_ext_enum,
)
from loccoh.qseries import LaurentPoly, gauss, gauss_enum

ROUTES = (witness_ext_closed, witness_ext_enum, witness_ext_bott)


@pytest.mark.parametrize("route", ROUTES)
def test_skew_examples(route):
    assert route(SKEW, 5, 1, 2) == LaurentPoly.q(5)
    assert route(SKEW, 5, 1, 1) == LaurentPoly.q(3)
    assert route(SKEW, 5, 1, 0).is_zero  # below the supported range
    assert route(SKEW, 4, 1, 1) == LaurentPoly.q(1)
    assert route(SKEW, 4, 1, 2) == LaurentPoly.q(1)


@pytest.mark.parametrize("route", ROUTES)
def test_skew_even_rank_with_tail(route):
    # n=6, p=1, s=3: two layers contribute, exponents 6 and 10
    assert route(SKEW, 6, 1, 3) == LaurentPoly({6: 1, 10: 1})


@pytest.mark.parametrize("route", ROUTES)
def test_symm_examples(route):
    assert route(SYMM, 3, 1, 2, 2) == LaurentPoly.q(3)
    assert route(SYMM, 3, 1, 3).is_zero  # parity exclusion at s=n
    assert route(SYMM, 5, 3, 4, 2) == LaurentPoly.q(5)
    assert route(SYMM, 3, 2, 1, 1) == LaurentPoly.q(1)
    assert route(SYMM, 6, 3, 5, 1) == LaurentPoly({6: 1, 10: 1})


@pytest.mark.parametrize("route", ROUTES)
def test_symm_flavor_parity_exclusion(route):
    # j must match the parity of s below s=n
    assert route(SYMM, 4, 1, 3, 2).is_zero
    assert not route(SYMM, 4, 1, 3, 1).is_zero


def test_symm_wrong_parity_of_s():
    for s in range(3, 5):
        for j in ((1, 2) if s < 4 else (None,)):
            vals = {route(SYMM, 4, 1, s, j) for route in ROUTES}
            assert len(vals) == 1


def test_range_validation():
    with pytest.raises(ValueError):
        witness_ext_closed(SKEW, 5, 2, 1)  # p >= floor(n/2)
    with pytest.raises(ValueError):
        witness_ext_closed(SKEW, 5, 1, 3)  # s > floor(n/2)
    with pytest.raises(ValueError):
        witness_ext_closed(SYMM, 4, 1, 2, 1)  # s < n-p
    with pytest.raises(ValueError):
        witness_ext_closed(SYMM, 4, 1, 3)  # missing flavor below s=n
    with pytest.raises(ValueError):
        witness_ext_closed(SKEW, 6, 1, 2, 1)  # flavor on a skew witness


@pytest.mark.parametrize("route", ROUTES)
def test_unknown_space_rejected(route):
    with pytest.raises(ValueError, match="^space must be 'skew' or 'symm', got 'general'$"):
        route("general", 3, 1, 2)


def test_closed_route_memoises_behind_validation():
    expected = extmult._witness_closed.__wrapped__(SYMM, 7, 4, 5, 1)
    assert witness_ext_closed(SYMM, 7, 4, 5, 1) == expected
    assert witness_ext_closed(SYMM, 7, 4, 5, 1) == expected
    witness_ext_closed(SYMM, 3, 1, 2, 2)
    with pytest.raises(ValueError, match="flavor must be an int"):
        witness_ext_closed(SYMM, 3, 1, 2, 2.0)
    witness_ext_closed(SKEW, 3, 0, 1)
    with pytest.raises(ValueError, match="n must be an int"):
        witness_ext_closed(SKEW, 3.0, 0, 1)


def test_forced_top_value_unique(monkeypatch):
    # the Bott route sweeps the top value up to the forced one plus 2:
    # widening that window (+6) cannot pick up extra contributions, and
    # stopping at the forced value itself (-2) keeps the answer
    real = extmult.Space.forced_top
    for step in (6, -2):
        monkeypatch.setattr(extmult.Space, "forced_top",
                            lambda self, n, p, s: real(self, n, p, s) + step)
        assert witness_ext_bott(SKEW, 5, 1, 2) == LaurentPoly.q(5)
        assert witness_ext_bott(SYMM, 3, 1, 2, 2) == LaurentPoly.q(3)


def test_forced_degree_guard_raises_on_a_second_top_value(monkeypatch):
    # a shape whose first part is always 2 builds the forced layer of
    # (SKEW, 5, 1, 2), whose tail box is empty, at every d: each d contributes
    real = extmult.Space.shape
    monkeypatch.setattr(extmult.Space, "shape", lambda self, z: real(self, (2,) + tuple(z[1:])))
    with pytest.raises(RuntimeError, match=r"multiple top values contribute \(\[0, 1, 2, 3, 4\]\)"):
        witness_ext_bott(SKEW, 5, 1, 2)


def test_enumeration_oracles_do_not_add_term_by_term(monkeypatch):
    # each oracle sums in a Counter and builds one polynomial at the end;
    # adding term by term copies the whole polynomial once per partition
    cases = [(SKEW, 12, 2, 6, None), (SKEW, 12, 0, 6, None), (SKEW, 11, 1, 5, None),
             (SYMM, 9, 5, 8, 2), (SYMM, 9, 8, 9, None), (SYMM, 8, 6, 8, None)]
    expected = [witness_ext_closed(*case) for case in cases]
    big_gauss = gauss(12, 6)
    split_gauss = gauss(16, 8)  # above gauss_enum's switch: half-sums convolved
    real = LaurentPoly.__add__
    calls = []

    def counting_add(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__add__", counting_add)
    assert gauss_enum(12, 6) == big_gauss and not calls
    assert gauss_enum(16, 8) == split_gauss and not calls
    assert witness_ext_enum(SKEW, 12, 2, 6) == expected[0] and not calls
    for case, closed in zip(cases, expected):
        calls.clear()
        assert witness_ext_bott(*case) == closed
        assert len(calls) <= 2, case


def test_ext_character_reproduces_worked_example():
    gc = ext_character(SYMM, 3, (2, 2, 0), 1, 14)
    assert gc.at(4) == Counter({(5, 5, 4): 1})
    assert gc.multiplicity(4, (5, 5, 4)) == 1
    assert gc.truncation == 14
    # degree 3 holds the infinite tail of the twisted family, window-limited
    assert gc.at(3)
    assert all(abs(sum(w)) <= 14 for d in gc.degrees() for w in gc.at(d))


def test_ext_character_full_ring_layers():
    # p = floor(n/2) together with x = 0 rebuilds the ring itself: its only
    # Ext sits in degree 0, and the trivial weight appears there
    gc = ext_character(SKEW, 3, (), 1, 6)
    assert gc.degrees() == [0]
    assert gc.multiplicity(0, (0, 0, 0)) == 1
    gc = ext_character(SYMM, 2, (), 2, 6)
    assert gc.degrees() == [0]
    assert gc.multiplicity(0, (0, 0)) == 1


def test_ext_character_zero_layer_below_full_rank():
    # for p < n the zero subquotient is supported on a proper locus, so
    # nothing reaches cohomological degree 0
    gc = ext_character(SYMM, 2, (), 1, 8)
    assert 0 not in gc.by_degree
    assert gc.degrees()


def test_ext_character_window_errors():
    with pytest.raises(ValueError):
        ext_character(SYMM, 3, (2, 2, 0), 1, -1)
    with pytest.raises(ValueError):
        ext_character(SYMM, 3, (2, 1, 0), 2, 10)  # malformed head
    with pytest.raises(ValueError):
        ext_character(SKEW, 5, (1, 0), 1, 10)  # first 2p parts differ


@pytest.mark.parametrize("space,n,x,p", [
    (SYMM, 3, (2, 2, 0), -1),
    (SYMM, 3, (), 4),  # quotient rank p above n
    (SKEW, 4, (), -1),
    (SKEW, 4, (), 3),  # quotient rank 2p above n
])
def test_ext_character_rejects_p_by_name(space, n, x, p):
    with pytest.raises(ValueError, match=f"p={p} for {space} n={n}"):
        ext_character(space, n, x, p, 6)


def test_witness_ext_bott_validates_each_layer_at_most_once(monkeypatch):
    import loccoh.characters
    import loccoh.extmult
    import loccoh.partitions
    from math import comb

    expected = witness_ext_closed(SKEW, 12, 2, 6)
    real = loccoh.partitions.partition
    calls = []

    def counting(parts):
        calls.append(parts)
        return real(parts)

    for module in (loccoh.partitions, loccoh.extmult, loccoh.characters):
        monkeypatch.setattr(module, "partition", counting, raising=False)
    assert witness_ext_bott(SKEW, 12, 2, 6) == expected
    # forced top value 5, so d runs to 7 over tails in the 3 x d box
    layers = sum(comb(3 + d, 3) for d in range(8))
    assert len(calls) <= layers


def _reference_character(space, n, x, p, bound):
    """``ext_character``'s listing rebuilt from exported pieces: every
    summand y of each size in the window, its alpha through ``Space.shape``
    and one ``bott`` call per y."""
    from collections import defaultdict

    from loccoh.bott import bott
    from loccoh.characters import SPACES
    from loccoh.partitions import padded, partitions_of_size

    sp = SPACES[space]
    k = sp.quotient_rank(p)
    xp = padded(x, n)
    twist, x2 = sp.twist(xp[0] if k else 0, p), xp[k:]
    shift = sp.det_shift(n)
    base_final = k * twist + sum(x2) + n * shift
    by_degree = defaultdict(Counter)
    for half in range((base_final + bound) // 2 + 1):
        if abs(base_final - 2 * half) > bound:
            continue
        for y in partitions_of_size(half, p):
            z = padded(sp.shape(y), k)
            res = bott(tuple(twist - a for a in reversed(z)), x2, n)
            if res is not None:
                weight = tuple(w + shift for w in res.weight)
                by_degree[sp.top_index(n, p) - res.degree][weight] += 1
    return dict(by_degree)


def test_ext_character_matches_a_summand_by_summand_reference():
    # every valid p, p = 0 (an empty head) included, over layers whose
    # window starts above summand size 0 (lo > 0) and at it
    from loccoh.characters import SPACES
    from loccoh.partitions import enumerate_box

    checked = above_zero = 0
    for space, top in ((SKEW, 6), (SYMM, 4)):
        sp = SPACES[space]
        for n in range(1, top + 1):
            for p in range(n + 1):
                k = sp.quotient_rank(p)
                if k > n:
                    continue
                for head in range(3):
                    for tail in enumerate_box(min(n - k, 2), head):
                        x = (head,) * k + tail
                        size = k * sp.twist(head, p) + sum(tail) + n * sp.det_shift(n)
                        for bound in (2, 7, 12):
                            if size < -bound:
                                with pytest.raises(ValueError, match="increase the bound"):
                                    ext_character(space, n, x, p, bound)
                                continue
                            gc = ext_character(space, n, x, p, bound)
                            assert gc.by_degree == _reference_character(space, n, x, p, bound)
                            checked += 1
                            above_zero += size > bound
    assert checked > 100 and above_zero > 50


def test_witness_ext_bott_inverts_the_kernel_only_where_a_head_exists(monkeypatch):
    # a layer whose tail has an entry outside the target is skipped before
    # ``bott_preimage``, so every call it gets returns a head
    real = extmult.bott_preimage
    results = []

    def counting(tail, target):
        results.append(real(tail, target))
        return results[-1]

    monkeypatch.setattr(extmult, "bott_preimage", counting)
    for case in ((SKEW, 12, 2, 6, None), (SYMM, 9, 5, 8, 2)):
        results.clear()
        assert witness_ext_bott(*case) == witness_ext_closed(*case)
        assert results and None not in results, case


def test_ext_character_degree_range():
    # Ext degrees of a subquotient live between the codimension of its rank
    # locus and the ambient polynomial degree count
    from math import comb

    cases = [
        (SYMM, 3, (2, 2, 0), 1),
        (SYMM, 4, (2, 2, 1), 2),
        (SKEW, 5, (2, 2, 2, 2), 1),
        (SKEW, 6, (1, 1, 1, 1), 2),
    ]
    for space, n, x, p in cases:
        gc = ext_character(space, n, x, p, 16)
        if space == SYMM:
            codim, top = comb(n - p + 1, 2), comb(n + 1, 2) - comb(p + 1, 2)
        else:
            codim, top = comb(n - 2 * p, 2), comb(n, 2) - comb(2 * p, 2)
        degrees = gc.degrees()
        assert degrees and min(degrees) >= codim and max(degrees) <= top
        for d in degrees:
            for w, mult in gc.at(d).items():
                assert mult > 0 and len(w) == n
                assert all(w[i] >= w[i + 1] for i in range(n - 1))


def test_ext_character_window_is_two_sided():
    wide = ext_character(SYMM, 3, (2, 2, 0), 1, 20)
    narrow = ext_character(SYMM, 3, (2, 2, 0), 1, 10)
    for d in narrow.degrees():
        for w, c in narrow.at(d).items():
            assert abs(sum(w)) <= 10
            assert wide.at(d)[w] == c
    # the size-14 weight is outside the narrow window
    assert narrow.multiplicity(4, (5, 5, 4)) == 0
    assert wide.multiplicity(4, (5, 5, 4)) == 1


def _witness_via_full_characters(space, n, p, s, flavor, window, d_bound=4):
    """Accumulate the full graded characters over the direct-sum layers and
    read off the witness weight: a fourth, API-level route."""
    from loccoh.characters import SimpleLabel, witness_weight
    from loccoh.partitions import doubled, duplicated, enumerate_box, padded, partition

    label = (
        SimpleLabel(space, n, s)
        if space == SKEW
        else SimpleLabel(SYMM, n, s, None if s == n else flavor)
    )
    target = witness_weight(label)
    tail_len = (n // 2 if space == SKEW else n) - p - 1
    total = LaurentPoly.zero()
    for d in range(d_bound + 1):
        for tail in enumerate_box(tail_len, d):
            y = partition((d,) * (p + 1) + padded(tail, tail_len))
            x = padded(duplicated(y) if space == SKEW else doubled(y), n)
            gc = ext_character(space, n, x, p, window)
            for deg in gc.degrees():
                mult = gc.at(deg).get(target, 0)
                if mult:
                    total = total + LaurentPoly.q(deg, mult)
    return total


@pytest.mark.parametrize(
    "space,n,p,s,flavor,window",
    [
        (SKEW, 5, 1, 2, None, 26),
        (SKEW, 6, 1, 3, None, 40),
        (SYMM, 3, 1, 2, 2, 14),
        (SYMM, 6, 3, 5, 1, 40),
        (SYMM, 4, 2, 3, 1, 20),  # parity-excluded: zero along every layer
    ],
)
def test_full_characters_reproduce_witness_polynomials(space, n, p, s, flavor, window):
    got = _witness_via_full_characters(space, n, p, s, flavor, window)
    assert got == witness_ext_closed(space, n, p, s, flavor)
