"""Weight sets, witnesses, dimensions, ring/ideal/layer characters."""

from collections import Counter
from math import comb

import pytest

from loccoh.characters import (
    SKEW,
    SPACES,
    SYMM,
    SimpleLabel,
    all_labels,
    enumerate_members,
    filtration_check,
    filtration_layers,
    ideal_character,
    layer_character,
    member,
    member_skew,
    member_symm,
    schur_dimension,
    space_character,
    witness_weight,
)
import loccoh.characters
from loccoh.partitions import doubled, dominates, duplicated, enumerate_box, padded, partition, size


def ssyt_count(shape, n):
    """Semistandard tableaux of the given shape with entries in 1..n:
    an independent oracle for the Weyl dimension formula."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]

    def fill(i, values):
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if c:
            lo = max(lo, values[(r, c - 1)])
        if r:
            lo = max(lo, values[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, n + 1):
            values[(r, c)] = v
            total += fill(i + 1, values)
        values.pop((r, c), None)
        return total

    return fill(0, {})


def test_label_counts():
    assert len(all_labels(SKEW, 7)) == 4
    assert len(all_labels(SYMM, 3)) == 7  # 2n+1


def test_label_validation():
    with pytest.raises(ValueError):
        SimpleLabel(SKEW, 5, 3)
    with pytest.raises(ValueError):
        SimpleLabel(SYMM, 4, 2)  # flavor required below s=n
    with pytest.raises(ValueError):
        SimpleLabel(SKEW, 4, 1, 1)
    # the two flavors of s=n are the same module: canonicalized
    assert SimpleLabel(SYMM, 4, 4, 1) == SimpleLabel(SYMM, 4, 4, 2) == SimpleLabel(SYMM, 4, 4)


@pytest.mark.parametrize("call,name", [
    (lambda: SimpleLabel(SYMM, 3, 1, True), "flavor"),
    (lambda: SimpleLabel(SYMM, 3, 1, 2.0), "flavor"),
    (lambda: SimpleLabel(SYMM, 3.0, 1, 2), "n"),
    (lambda: SimpleLabel(SKEW, True, 0), "n"),
    (lambda: SimpleLabel(SKEW, 4, 1.0), "s"),
    (lambda: SimpleLabel(SYMM, 3, False, 1), "s"),
    (lambda: all_labels(SYMM, 3.0), "n"),
    (lambda: member_symm((2, 2, 2), 1, True, 3), "flavor"),
    (lambda: member_symm((2, 2, 2), 1.0, 1, 3), "s"),
    (lambda: member_symm((2, 2, 2), 1, 1, 3.0), "n"),
    (lambda: member_skew((0, 0, 0, 0), True, 4), "s"),
    (lambda: member_skew((0, 0, 0, 0), 0, 4.0), "n"),
    (lambda: space_character(SKEW, 4.0, 2), "n"),
    (lambda: space_character(SYMM, 3, 6.0), "bound"),
    (lambda: ideal_character(SYMM, True, (1,), 4), "n"),
    (lambda: ideal_character(SYMM, 3, (1,), 4.0), "bound"),
    (lambda: layer_character(SYMM, 3, (2, 2), True, 8), "p"),
    (lambda: layer_character(SKEW, 4.0, (1, 1), 1, 8), "n"),
    (lambda: layer_character(SYMM, 3, (2, 2), 1, 8.0), "bound"),
    (lambda: filtration_layers(SKEW, 6, 1.0, 8), "p"),
    (lambda: filtration_check(SYMM, True, 0, 6), "n"),
    (lambda: filtration_check(SYMM, 3, 1.0, 6), "p"),
    (lambda: filtration_check(SYMM, 3, 1, True), "bound"),
])
def test_non_int_arguments_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        call()


@pytest.mark.parametrize("call", [
    lambda: SimpleLabel("general", 3, 0),
    lambda: all_labels("Skew", 4),
    lambda: space_character(["skew"], 4, 2),
    lambda: filtration_check("symm ", 3, 1, 6),
])
def test_unknown_space_rejected(call):
    with pytest.raises(ValueError, match="^space must be 'skew' or 'symm', got "):
        call()


@pytest.mark.parametrize("space", [SKEW, SYMM])
def test_space_record_matches_the_paper(space):
    # reference formulas written out per space, independently of the record
    sp = SPACES[space]
    for n in range(20):
        skew = space == SKEW
        assert sp.rows(n) == (n // 2 if skew else n)
        assert sp.ambient(n) == (comb(n, 2) if skew else comb(n + 1, 2))
        assert sp.det_shift(n) == (n - 1 if skew else n + 1)
        for p in range(sp.rows(n)):
            k = 2 * p if skew else p
            assert sp.quotient_rank(p) == k
            assert sp.top_index(n, p) == (
                comb(n, 2) - comb(2 * p, 2) if skew else comb(n + 1, 2) - comb(p + 1, 2)
            )
            for head in range(-3, 4):
                assert sp.twist(head, p) == (head - (2 * p - 1) if skew else head - (p + 1))
        for z in enumerate_box(min(sp.rows(n), 3), 3):
            assert sp.shape(z) == (duplicated(z) if skew else doubled(z))


def test_witness_weights():
    assert witness_weight(SimpleLabel(SKEW, 6, 2)) == (4, 4, 4, 4, 4, 4)
    assert witness_weight(SimpleLabel(SYMM, 3, 2, 2)) == (3, 3, 2)
    assert witness_weight(SimpleLabel(SYMM, 3, 2, 1)) == (3, 3, 3)
    assert witness_weight(SimpleLabel(SYMM, 4, 4)) == (5, 5, 5, 5)


def test_member_skew_even_constant_weights():
    n = 6
    for s in range(n // 2 + 1):
        lam = (2 * s,) * n
        hits = [t for t in range(n // 2 + 1) if member_skew(lam, t, n)]
        assert hits == [s]


def test_member_skew_odd():
    # rank-5 weights: the (2s)^5 witness lands in index s only
    n = 5
    for s in range(3):
        lam = (2 * s,) * n
        assert [t for t in range(3) if member_skew(lam, t, n)] == [s]
    # pairing pattern: head pairs for i <= s, tail pairs for i > s
    assert member_skew((4, 4, 2, 1, 1), 1, 5)
    assert not member_skew((4, 4, 2, 2, 1), 1, 5)


def test_member_symm_examples():
    # mixed parities can never satisfy the congruence conditions
    for L in all_labels(SYMM, 3):
        assert not member(L, (5, 5, 4))
    # constant weight (s+1)^n hits exactly flavor 1 at index s
    n = 4
    for s in range(n + 1):
        lam = (s + 1,) * n
        hits = [
            (t, j)
            for t in range(n + 1)
            for j in (1, 2)
            if member_symm(lam, t, j, n)
        ]
        if s == n:
            assert hits == [(n, 1), (n, 2)]
        else:
            assert hits == [(s, 1)]


def test_member_weight_set_structure():
    # every accepted skew weight has all entries paired for even rank
    n, s = 6, 1
    for lam in enumerate_members(SimpleLabel(SKEW, n, s), 4):
        assert all(lam[2 * i] == lam[2 * i + 1] for i in range(n // 2))
    # odd rank: the pairing switches sides at the pinned entry
    n, s = 5, 1
    members = enumerate_members(SimpleLabel(SKEW, n, s), 4)
    assert members
    for lam in members:
        assert lam[2 * s] == 2 * s
        assert all(lam[2 * i - 2] == lam[2 * i - 1] for i in range(1, s + 1))
        assert all(lam[2 * i - 1] == lam[2 * i] for i in range(s + 1, n // 2 + 1))
    # flavor-2 members keep the stated parities
    n, s = 3, 2
    for lam in enumerate_members(SimpleLabel(SYMM, n, s, 2), 4):
        assert all((lam[i] - s - 1) % 2 == 0 for i in range(s))
        assert all((lam[i] - s) % 2 == 0 for i in range(s, n))


def test_schur_dimension_examples():
    assert schur_dimension((5, 5, 4)) == 3
    assert schur_dimension((0, 0, 0, 0)) == 1
    assert schur_dimension((1, 0, 0)) == 3
    assert schur_dimension((3, 1), 2) == 3  # padding by rank


@pytest.mark.parametrize(
    "shape,n",
    [((5, 5, 4), 3), ((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 4), ((4,), 3), ((1, 1, 1), 3)],
)
def test_schur_dimension_matches_tableau_count(shape, n):
    assert schur_dimension(shape, n) == ssyt_count(shape, n)


def test_schur_dimension_translation_invariant():
    assert schur_dimension((0, -1), 2) == schur_dimension((1, 0), 2) == 2


def test_space_character_examples():
    assert space_character(SYMM, 2, 4) == Counter({(): 1, (2,): 1, (4,): 1, (2, 2): 1})
    assert space_character(SKEW, 4, 2) == Counter({(): 1, (1, 1): 1})
    assert space_character(SYMM, 3, 0) == Counter({(): 1})
    assert space_character(SKEW, 5, 0) == Counter({(): 1})


def test_ideal_character_examples():
    assert ideal_character(SYMM, 2, (1, 0), 4) == Counter({(2,): 1, (4,): 1, (2, 2): 1})
    assert ideal_character(SKEW, 4, (2, 0), 4) == Counter({(2, 2): 1})
    # the zero partition generates the whole ring
    for space, n in [(SYMM, 3), (SKEW, 4)]:
        assert ideal_character(space, n, (), 6) == space_character(space, n, 6)
    with pytest.raises(ValueError):
        ideal_character(SKEW, 4, (1, 1, 1), 4)


def test_ideal_character_antitone():
    # containment of generators reverses containment of ideals, and only
    # dominating pairs give containment (the generator of the larger ideal
    # witnesses the failure otherwise)
    for space, n in [(SYMM, 3), (SKEW, 6)]:
        zs = list(enumerate_box(3, 2))
        for y in zs:
            for z in zs:
                chi_y = ideal_character(space, n, y, 12)
                chi_z = ideal_character(space, n, z, 12)
                assert (set(chi_y) <= set(chi_z)) == dominates(y, z)


def test_ring_character_dimension_count():
    # summing Weyl dimensions over the degree-d slice of the ring character
    # must reproduce the monomial count in C(n+1,2) resp. C(n,2) variables:
    # ties the character combinatorics to the dimension formula
    from math import comb

    for space, n in [(SYMM, 3), (SYMM, 4), (SKEW, 4), (SKEW, 5)]:
        nvars = comb(n + 1, 2) if space == SYMM else comb(n, 2)
        chi = space_character(space, n, 8)
        for d in range(5):
            total = sum(schur_dimension(w, n) for w in chi if size(w) == 2 * d)
            assert total == comb(nvars + d - 1, d)


def test_layer_character_examples():
    assert layer_character(SYMM, 3, (2, 2, 0), 1, 8) == Counter(
        {(2, 2): 1, (4, 2): 1, (6, 2): 1}
    )
    assert layer_character(SKEW, 4, (1, 1, 0, 0), 1, 6) == Counter(
        {(1, 1): 1, (2, 2): 1, (3, 3): 1}
    )
    # the generating weight itself is always present
    assert (3, 2) in layer_character(SYMM, 3, (3, 2), 1, 5)
    # p=0 layers are a single irreducible
    assert layer_character(SYMM, 2, (2, 2), 0, 10) == Counter({(2, 2): 1})


def test_layer_character_validation():
    with pytest.raises(ValueError):
        layer_character(SYMM, 3, (2, 1, 0), 2, 8)  # first two parts differ
    with pytest.raises(ValueError):
        layer_character(SKEW, 4, (2, 1), 1, 8)  # first 2p parts differ


def test_layer_character_multiplicity_free():
    for space, n, x, p in [
        (SYMM, 4, (3, 3, 1), 2),
        (SKEW, 6, (2, 2, 1, 1), 1),
    ]:
        chi = layer_character(space, n, x, p, 14)
        assert chi and set(chi.values()) == {1}


def test_filtration_layers_order_is_dominance_compatible():
    layers = filtration_layers(SYMM, 3, 1, 10)
    assert layers[0] == ()
    for i, zi in enumerate(layers):
        for zj in layers[i + 1:]:
            assert not dominates(zi, zj) or zi == zj
    for z in layers:
        zp = z + (0,) * (3 - len(z))
        assert zp[0] == zp[1]
        assert 2 * size(z) <= 10


@pytest.mark.parametrize(
    "space,n,p,bound",
    [
        (SYMM, 2, 0, 8),
        (SYMM, 2, 0, 13),
        (SKEW, 4, 1, 8),
        (SYMM, 3, 1, 10),
        (SKEW, 6, 2, 10),
        (SYMM, 4, 3, 10),
    ],
)
def test_filtration_check_passes(space, n, p, bound):
    report = filtration_check(space, n, p, bound)
    assert report.ok, report.mismatch


def test_filtration_check_validation():
    with pytest.raises(ValueError):
        filtration_check(SYMM, 3, 3, 8)
    with pytest.raises(ValueError):
        filtration_check(SKEW, 4, 2, 8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: space_character(SYMM, 3, -1),
        lambda: ideal_character(SYMM, 3, (1,), -1),
        lambda: layer_character(SYMM, 3, (2, 2), 1, -1),
        lambda: layer_character(SKEW, 4, (), 0, -2),
        lambda: filtration_layers(SKEW, 6, 1, -1),
        lambda: filtration_check(SYMM, 3, 1, -1),
    ],
    ids=["space", "ideal", "layer_symm", "layer_skew", "layers", "check"],
)
def test_negative_bound_rejected_by_name(call):
    with pytest.raises(ValueError, match="^bound must be non-negative$"):
        call()


def test_layer_above_the_bound_is_empty():
    # a non-negative bound below |x| is a window holding nothing, not an error
    assert layer_character(SYMM, 3, (2, 2), 1, 3) == Counter()
    assert layer_character(SKEW, 4, (1, 1), 1, 0) == Counter()


# reference definitions: walk the whole rows x bound//2 box, then drop
# every z whose shape is larger than the bound


def _rows(space, n):
    return n if space == SYMM else n // 2


def _shape(space):
    return doubled if space == SYMM else duplicated


def _ring_by_box(space, n, bound):
    return [
        (z, _shape(space)(z))
        for z in enumerate_box(_rows(space, n), bound // 2)
        if 2 * size(z) <= bound
    ]


def _layer_by_box(space, n, x, p, bound):
    xp = padded(x, n)
    budget = bound - size(x)
    out = Counter()
    if budget < 0:
        return out
    for y in enumerate_box(p, budget // 2):
        if 2 * size(y) <= budget:
            add = padded(_shape(space)(y), n)
            out[partition(tuple(a + b for a, b in zip(xp, add)))] += 1
    return out


def _layers_by_box(space, n, p, bound):
    rows = _rows(space, n)
    out = [z for z, _ in _ring_by_box(space, n, bound) if len(set(padded(z, rows)[:p + 1])) == 1]
    return sorted(out, key=lambda z: (size(z), z))


@pytest.mark.parametrize("space", [SYMM, SKEW])
def test_ring_characters_equal_the_filtered_box(space):
    for n in range(1, 6):
        rows = _rows(space, n)
        for bound in range(15):
            ring = _ring_by_box(space, n, bound)
            assert space_character(space, n, bound) == Counter(w for _, w in ring)
            for z, _ in ring:
                assert ideal_character(space, n, z, bound) == Counter(
                    w for y, w in ring if dominates(y, z)
                ), (space, n, z, bound)
            for p in range(rows):
                layers = filtration_layers(space, n, p, bound)
                assert layers == _layers_by_box(space, n, p, bound), (space, n, p, bound)
                for lam in layers:
                    x = _shape(space)(lam)
                    assert layer_character(space, n, x, p, bound) == _layer_by_box(
                        space, n, x, p, bound
                    ), (space, n, x, p, bound)


def _dropping_one_weight(monkeypatch, space, n, p, bound, r):
    """Make layer_character lose one weight at layer r; returns that weight."""
    layer_x = _shape(space)(filtration_layers(space, n, p, bound)[r])
    real = loccoh.characters.layer_character
    dropped = max(real(space, n, layer_x, p, bound))

    def lossy(space_, n_, x, p_, bound_):
        out = real(space_, n_, x, p_, bound_)
        if x == layer_x:
            del out[dropped]
        return out

    monkeypatch.setattr(loccoh.characters, "layer_character", lossy)
    return dropped


def _suffix_differences(space, n, p, bound):
    """The r-th ideal quotient, by unions of ideal_character from the back."""
    layers = filtration_layers(space, n, p, bound)
    suffix = [set() for _ in range(len(layers) + 1)]
    for r in range(len(layers) - 1, -1, -1):
        suffix[r] = suffix[r + 1] | set(ideal_character(space, n, layers[r], bound))
    return [suffix[r] - suffix[r + 1] for r in range(len(layers))]


@pytest.mark.parametrize("space,n,p,bound", [(SYMM, 3, 1, 10), (SKEW, 6, 1, 10), (SYMM, 4, 0, 8)])
def test_filtration_quotients_are_ideal_suffix_differences(monkeypatch, space, n, p, bound):
    # a weight dropped at layer r makes the check print the quotient it
    # expected there, which must be the old suffix difference of ideals
    quotients = _suffix_differences(space, n, p, bound)
    for r, quotient in enumerate(quotients):
        with monkeypatch.context() as m:
            _dropping_one_weight(m, space, n, p, bound, r)
            report = filtration_check(space, n, p, bound)
        assert report.mismatch["layer"] == r
        assert report.mismatch["quotient_character"] == sorted(map(list, quotient))


def test_filtration_check_places_every_ring_partition(monkeypatch):
    # without the () layer the empty partition belongs to no quotient; the
    # check must say so, not drop it
    real = loccoh.characters.filtration_layers
    monkeypatch.setattr(loccoh.characters, "filtration_layers", lambda *args: real(*args)[1:])
    with pytest.raises(AssertionError, match=r"ring partition \(\) dominates no layer"):
        filtration_check(SYMM, 3, 1, 6)
