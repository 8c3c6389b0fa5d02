"""One boundary audit for every export: an argument that names an integer
takes a plain int and nothing else.

``ROWS`` holds one valid call per callable of ``loccoh.__all__`` (and per
``LaurentPoly`` method that takes an argument), with the names of its int
parameters; a parameter is an int parameter when its annotation admits an
``int``, and the rows must name exactly those.  Each int parameter in turn
gets ``True``, a float equal to its valid value and an integer type that
converts only through ``__index__`` (as numpy ints do), and ``None`` where
its annotation does not admit None; every one must raise
``ValueError("<name> must be an int, got <value!r>")``.  Generator results
are consumed, since a generator validates when it is first advanced.  A
callable without a row fails the audit, unless ``EXEMPT`` says why it has
none.
"""

import inspect
from collections.abc import Generator

import pytest

import loccoh
from loccoh import (
    GENERAL,
    SKEW,
    SYMM,
    LaurentPoly,
    SimpleLabel,
    all_labels,
    ambient_dimension,
    bott,
    conjugate,
    doubled,
    duplicated,
    enumerate_box,
    enumerate_members,
    enumerate_weights,
    ext_character,
    filtration_check,
    filtration_layers,
    gauss,
    gauss_enum,
    ideal_character,
    layer_character,
    lcd,
    lcd_closed_form,
    member,
    member_skew,
    member_symm,
    partition,
    partitions_of_size,
    run_suite,
    schur_dimension,
    space_character,
    support_poly,
    support_poly_from_ext,
    top_support,
    trivial_isotypic,
    wedge_isotypic,
    weight,
    witness_ext_bott,
    witness_ext_closed,
    witness_ext_enum,
    witness_weight,
)


class IndexOnly:
    """An integer that is not an int, like a numpy int: it converts only
    through ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"IndexOnly({self.value})"


POLY = LaurentPoly({1: 1, 2: 3})
GENERAL_RANK_1 = dict(space=GENERAL, n=3, p=1, m=4)
SYMM_WITNESS = dict(space=SYMM, n=3, p=1, s=2, flavor=2)
FILTRATION = dict(space=SYMM, n=3, p=1, bound=6)
GAUSS = dict(a=4, b=2, variable_power=1)

# name -> (callable, valid keyword arguments, int parameters)
ROWS = {
    "LaurentPoly": (LaurentPoly, dict(coeffs=3), ("coeffs",)),
    "LaurentPoly.q": (LaurentPoly.q, dict(exponent=2, coefficient=1), ("exponent", "coefficient")),
    "LaurentPoly.coefficient": (POLY.coefficient, dict(exponent=1), ("exponent",)),
    "SimpleLabel": (SimpleLabel, dict(space=SYMM, n=3, s=1, flavor=2), ("n", "s", "flavor")),
    "all_labels": (all_labels, dict(space=SYMM, n=3), ("n",)),
    "ambient_dimension": (ambient_dimension, dict(space=GENERAL, n=3, m=4), ("n", "m")),
    "bott": (bott, dict(alpha=(1,), beta=(0,), n=2), ("n",)),
    "conjugate": (conjugate, dict(z=(3, 1)), ()),
    "doubled": (doubled, dict(z=(2, 1)), ()),
    "duplicated": (duplicated, dict(z=(2, 1)), ()),
    "enumerate_box": (enumerate_box, dict(rows=2, width=1), ("rows", "width")),
    "enumerate_members": (enumerate_members, dict(label=SimpleLabel(SKEW, 4, 1), entry_bound=1),
                          ("entry_bound",)),
    "enumerate_weights": (enumerate_weights, dict(rank=2, lo=0, hi=1), ("rank", "lo", "hi")),
    "ext_character": (ext_character, dict(space=SYMM, n=3, x=(2, 2, 0), p=1, bound=6),
                      ("n", "p", "bound")),
    "filtration_check": (filtration_check, FILTRATION, ("n", "p", "bound")),
    "filtration_layers": (filtration_layers, FILTRATION, ("n", "p", "bound")),
    "gauss": (gauss, GAUSS, ("a", "b", "variable_power")),
    "gauss_enum": (gauss_enum, GAUSS, ("a", "b", "variable_power")),
    "ideal_character": (ideal_character, dict(space=SYMM, n=3, z=(1,), bound=4), ("n", "bound")),
    "layer_character": (layer_character, dict(space=SYMM, n=3, x=(2, 2), p=1, bound=8),
                        ("n", "p", "bound")),
    "lcd": (lcd, GENERAL_RANK_1, ("n", "p", "m")),
    "lcd_closed_form": (lcd_closed_form, GENERAL_RANK_1, ("n", "p", "m")),
    "member": (member, dict(label=SimpleLabel(SYMM, 3, 1, 2), lam=(2, 2, 2)), ()),
    "member_skew": (member_skew, dict(lam=(0, 0, 0, 0), s=1, n=4), ("s", "n")),
    "member_symm": (member_symm, dict(lam=(2, 2, 2), s=1, flavor=1, n=3), ("s", "flavor", "n")),
    "partition": (partition, dict(parts=(3, 1, 0)), ()),
    "partitions_of_size": (partitions_of_size, dict(total=4, max_parts=2), ("total", "max_parts")),
    "run_suite": (run_suite, dict(suite="qseries", max_n=2, bound=1, threads=1),
                  ("max_n", "bound", "threads")),
    "schur_dimension": (schur_dimension, dict(lam=(2, 1), n=3), ("n",)),
    "space_character": (space_character, dict(space=SKEW, n=4, bound=2), ("n", "bound")),
    "support_poly": (support_poly, GENERAL_RANK_1, ("n", "p", "m")),
    "support_poly_from_ext": (support_poly_from_ext, dict(space=SKEW, n=5, p=1), ("n", "p")),
    "top_support": (top_support, GENERAL_RANK_1, ("n", "p", "m")),
    "trivial_isotypic": (trivial_isotypic, dict(beta=(1,), k=1, n=2), ("k", "n")),
    "wedge_isotypic": (wedge_isotypic, dict(beta=(1,), k=1, n=2, s=1), ("k", "n", "s")),
    "weight": (weight, dict(entries=(1,), rank=2), ("rank",)),
    "witness_ext_bott": (witness_ext_bott, SYMM_WITNESS, ("n", "p", "s", "flavor")),
    "witness_ext_closed": (witness_ext_closed, SYMM_WITNESS, ("n", "p", "s", "flavor")),
    "witness_ext_enum": (witness_ext_enum, SYMM_WITNESS, ("n", "p", "s", "flavor")),
    "witness_weight": (witness_weight, dict(label=SimpleLabel(SKEW, 4, 1)), ()),
}

_RECORD = "a result record the library builds from checked values, not an entry point"
_TRANSFORM = "a pure tuple transform on filtration_check's inner loop; its callers validate"
EXEMPT = {
    "Partition": "a type alias of tuple[int, ...]",
    "Weight": "a type alias of tuple[int, ...]",
    "BottCohomology": _RECORD,
    "FiltrationReport": _RECORD,
    "GradedCharacter": _RECORD,
    "SupportPoly": _RECORD,
    "VerifyReport": _RECORD,
    "dominates": _TRANSFORM,
    "dual": _TRANSFORM,
    "size": _TRANSFORM,
    "LaurentPoly.divexact": "takes a LaurentPoly, no int",
}


def _exports() -> set[str]:
    """The callables of ``loccoh.__all__`` and the ``LaurentPoly`` methods
    that take an argument."""
    names = {name for name in loccoh.__all__ if callable(getattr(loccoh, name))}
    for name in dir(LaurentPoly):
        method = getattr(POLY, name)
        if not name.startswith("_") and callable(method) and inspect.signature(method).parameters:
            names.add(f"LaurentPoly.{name}")
    return names


def _annotation_parts(parameter: inspect.Parameter) -> set[str]:
    assert isinstance(parameter.annotation, str), parameter  # postponed annotations
    return {part.strip() for part in parameter.annotation.split("|")}


def _call(fn, kwargs: dict):
    out = fn(**kwargs)
    if isinstance(out, Generator):
        out = list(out)
    return out


def test_every_export_has_a_row_or_a_reason():
    assert sorted(_exports() - ROWS.keys() - EXEMPT.keys()) == []
    assert sorted((ROWS.keys() | EXEMPT.keys()) - _exports()) == []
    assert sorted(ROWS.keys() & EXEMPT.keys()) == []


@pytest.mark.parametrize("row", list(ROWS))
def test_row_names_every_int_parameter(row):
    fn, kwargs, ints = ROWS[row]
    parameters = inspect.signature(fn).parameters
    assert set(ints) == {name for name, par in parameters.items()
                         if "int" in _annotation_parts(par)}
    assert set(ints) <= kwargs.keys()


@pytest.mark.parametrize("row", list(ROWS))
def test_valid_call_succeeds(row):
    fn, kwargs, _ = ROWS[row]
    _call(fn, kwargs)


def _cases():
    for row, (fn, kwargs, ints) in ROWS.items():
        parameters = inspect.signature(fn).parameters
        for name in ints:
            valid = kwargs[name]
            bads = {"bool": True, "float": float(valid), "index": IndexOnly(valid)}
            if "None" not in _annotation_parts(parameters[name]):
                bads["none"] = None
            for kind, bad in bads.items():
                yield pytest.param(fn, kwargs, name, bad, id=f"{row}-{name}-{kind}")


@pytest.mark.parametrize("fn,kwargs,name,bad", list(_cases()))
def test_int_parameter_rejects_a_non_int_by_name(fn, kwargs, name, bad):
    with pytest.raises(ValueError) as exc:
        _call(fn, {**kwargs, name: bad})
    assert str(exc.value) == f"{name} must be an int, got {bad!r}"


@pytest.mark.parametrize("call,message", [
    (lambda: partition((IndexOnly(3), 1)), "entry 0 must be an int, got IndexOnly(3)"),
    (lambda: weight((2, IndexOnly(1))), "entry 1 must be an int, got IndexOnly(1)"),
    (lambda: bott((IndexOnly(1),), (0,), 2), "entry 0 must be an int, got IndexOnly(1)"),
    (lambda: LaurentPoly({IndexOnly(1): 1}), "exponent must be an int, got IndexOnly(1)"),
    (lambda: LaurentPoly({1: IndexOnly(2)}), "coefficient must be an int, got IndexOnly(2)"),
    (lambda: LaurentPoly([(1, IndexOnly(2))]), "coefficient must be an int, got IndexOnly(2)"),
])
def test_index_only_entries_are_not_coerced(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_enumerate_weights_rejects_a_negative_rank_by_name():
    with pytest.raises(ValueError, match=r"^rank must be non-negative, got -1$"):
        list(enumerate_weights(-1, 0, 1))
    # an empty entry range is still an empty listing, not an error
    assert list(enumerate_weights(2, 1, 0)) == []


def test_bott_rejects_a_negative_n_by_name():
    # the fault is n itself, not the ranks of alpha and beta
    for alpha, beta in (((1,), (0,)), ((), ())):
        with pytest.raises(ValueError, match=r"^n must be non-negative, got -1$"):
            bott(alpha, beta, -1)


def test_enumerate_members_rejects_a_negative_entry_bound_by_name():
    with pytest.raises(ValueError, match=r"^entry_bound must be non-negative, got -1$"):
        enumerate_members(SimpleLabel(SKEW, 4, 1), -1)
