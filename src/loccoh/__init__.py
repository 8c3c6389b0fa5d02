"""Exact composition multiplicities of local cohomology with determinantal
and Pfaffian support, with the supporting combinatorics: the Bott algorithm
on Grassmannians, Gauss polynomials, equivariant characters and Ext
multiplicities, everything cross-checked against enumeration oracles.

The package attribute ``bott`` is the function, not its submodule, so
``import loccoh.bott as m`` binds the function; reach the module with
``importlib.import_module("loccoh.bott")``."""

from .partitions import (
    Partition,
    Weight,
    conjugate,
    dominates,
    doubled,
    dual,
    duplicated,
    enumerate_box,
    enumerate_weights,
    partition,
    partitions_of_size,
    size,
    weight,
)
from .qseries import LaurentPoly, gauss, gauss_enum
from .bott import BottCohomology, bott, trivial_isotypic, wedge_isotypic
from .characters import (
    GENERAL,
    SKEW,
    SYMM,
    FiltrationReport,
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
from .extmult import (
    GradedCharacter,
    ext_character,
    witness_ext_bott,
    witness_ext_closed,
    witness_ext_enum,
)
from .cohomology import (
    SupportPoly,
    ambient_dimension,
    lcd,
    lcd_closed_form,
    support_poly,
    support_poly_from_ext,
    top_support,
)
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BottCohomology",
    "FiltrationReport",
    "GENERAL",
    "GradedCharacter",
    "LaurentPoly",
    "Partition",
    "SKEW",
    "SYMM",
    "SimpleLabel",
    "SupportPoly",
    "VerifyReport",
    "Weight",
    "all_labels",
    "ambient_dimension",
    "bott",
    "conjugate",
    "dominates",
    "doubled",
    "dual",
    "duplicated",
    "enumerate_box",
    "enumerate_members",
    "enumerate_weights",
    "ext_character",
    "filtration_check",
    "filtration_layers",
    "gauss",
    "gauss_enum",
    "ideal_character",
    "layer_character",
    "lcd",
    "lcd_closed_form",
    "member",
    "member_skew",
    "member_symm",
    "partition",
    "partitions_of_size",
    "run_suite",
    "schur_dimension",
    "size",
    "space_character",
    "support_poly",
    "support_poly_from_ext",
    "top_support",
    "trivial_isotypic",
    "wedge_isotypic",
    "weight",
    "witness_ext_bott",
    "witness_ext_closed",
    "witness_ext_enum",
    "witness_weight",
]
