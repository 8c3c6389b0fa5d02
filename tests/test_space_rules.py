"""The skew/symm rules written once on the ``Space`` record: the boundary
check of n, the rank rule, the label rule and the shape with its inverse."""

from itertools import product

import pytest

from loccoh.characters import (
    SKEW,
    SPACES,
    SYMM,
    SimpleLabel,
    all_labels,
    filtration_check,
    filtration_layers,
    ideal_character,
    layer_character,
    member_skew,
    member_symm,
    space_character,
)
from loccoh.cli import main
from loccoh.extmult import WITNESS_ROUTES, ext_character
from loccoh.partitions import doubled, duplicated, partitions_of_size

ENTRY_POINTS = {
    "all_labels": lambda space, n: all_labels(space, n),
    "SimpleLabel": lambda space, n: SimpleLabel(space, n, 0),
    "member": lambda space, n: (member_skew((), 0, n) if space == SKEW
                                else member_symm((), 0, 1, n)),
    "space_character": lambda space, n: space_character(space, n, 4),
    "ideal_character": lambda space, n: ideal_character(space, n, (), 4),
    "layer_character": lambda space, n: layer_character(space, n, (), 0, 4),
    "filtration_layers": lambda space, n: filtration_layers(space, n, 0, 4),
    "filtration_check": lambda space, n: filtration_check(space, n, 0, 4),
    "ext_character": lambda space, n: ext_character(space, n, (), 0, 4),
    **{f"witness_ext_{route}": (lambda space, n, fn=fn: fn(space, n, 0, 0))
       for route, fn in WITNESS_ROUTES.items()},
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("space", [SKEW, SYMM])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_reject_nonpositive_n(entry, space, n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        ENTRY_POINTS[entry](space, n)


def _error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


@pytest.mark.parametrize("space,n,p,limit", [
    (SYMM, 4, 4, "n"),
    (SYMM, 4, -1, "n"),
    (SKEW, 5, 2, "floor(n/2)"),
    (SKEW, 4, -1, "floor(n/2)"),
    ("general", 3, 3, "n"),
])
def test_rank_rule_has_one_text(capsys, space, n, p, limit):
    expected = f"error: need 0 <= p < {limit}, got p={p}, n={n}"
    request = ["--space", space, "--n", str(n), "--p", str(p)]
    if space == "general":
        argvs = [["hpq", *request, "--m", "4"], ["lcd", *request, "--m", "4"]]
    else:
        argvs = [["hpq", *request], ["lcd", *request], ["ext", *request, "--s", str(n)],
                 ["filtration-check", *request, "--bound", "4"]]
    assert [_error(capsys, argv) for argv in argvs] == [expected] * len(argvs)


def _message(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("space,n,p,s,flavor", [
    (SYMM, 3, 2, 3, 7),
    (SYMM, 3, 2, 3, 0),
    (SYMM, 4, 3, 2, None),
    (SYMM, 4, 3, 2, 3),
    (SYMM, 4, 1, 5, 1),
    (SKEW, 4, 0, 3, None),
    (SKEW, 4, 0, -1, None),
    (SKEW, 4, 1, 1, 1),
])
def test_labels_and_witness_routes_share_the_label_rule(space, n, p, s, flavor):
    expected = _message(lambda: SimpleLabel(space, n, s, flavor))
    assert [_message(lambda fn=fn: fn(space, n, p, s, flavor))
            for fn in WITNESS_ROUTES.values()] == [expected] * len(WITNESS_ROUTES)


def test_flavor_at_s_equal_n_is_checked_not_dropped():
    with pytest.raises(ValueError, match="^flavor must be 1 or 2, got 7$"):
        SimpleLabel(SYMM, 3, 3, 7)
    assert SimpleLabel(SYMM, 3, 3, 2) == SimpleLabel(SYMM, 3, 3)


@pytest.mark.parametrize("space", [SKEW, SYMM])
def test_shape_and_its_inverse(space):
    sp = SPACES[space]
    reference = duplicated if space == SKEW else doubled
    for size in range(9):
        for z in partitions_of_size(size, 6):
            assert sp.shape(z) == reference(z)
            assert sp.unshape(sp.shape(z)) == z
    # every shape of a zero-padded partition with at most 4 parts, entries
    # <= 5, against every tuple of length <= 4 with entries in [-2, 5]
    shapes = {}
    for rows in range(5):
        for z in product(range(6), repeat=rows):
            if list(z) == sorted(z, reverse=True):
                shapes[sp.shape(z)] = z
    for length in range(5):
        for t in product(range(-2, 6), repeat=length):
            assert sp.unshape(t) == shapes.get(t), t
