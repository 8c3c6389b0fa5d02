"""Mutants that ``verify`` must kill: each row replaces an exact piece of
one library function's source, and names the check that must then fail,
with its counterexample and where-text; unchanged, the check must pass.
This module imports without pytest (``pytest_generate_tests`` feeds the
rows to the test), so a standalone script can apply ``MUTANTS`` too."""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import sys
import textwrap
from contextlib import contextmanager
from typing import NamedTuple

from loccoh import characters, cohomology, extmult, verify


class Mutant(NamedTuple):
    id: str
    module: str
    function: str  # a qualname: a module function, or Class.method
    old: str  # occurs exactly once in the function and in its module
    new: str
    check: str  # a name in verify.CHECKS
    kwargs: dict
    where: str
    counterexample: dict


SWEEP, ASSEMBLY = "bott-predicate-agreement", "assembly-agreement"
HEAD_DEGREE = "yield sum(map(above, head)),"
PREIMAGE_DEGREE = "return sum(map(_CountAbove(tail).__getitem__, head)), head"
WEDGE = "return LaurentPoly.q(size(beta)), alpha"
AT_N1 = {"n": 1, "k": 1}
LONG_HEAD = [0, 0, 0, -1, -1]
GAUSS, TRIPLE, LCD = "gauss-identities", "ext-triple-agreement", "lcd-closed-forms"
EXAMPLE, NONDEGENERACY, FILTRATION = "example-reproduction", "nondegeneracy-witness", "filtration"
QS, EXT, CO, CH = (f"loccoh.{m}" for m in ("qseries", "extmult", "cohomology", "characters"))
SKEW_N2 = {"space": "skew", "n": 2, "p": 0, "s": 1}
LAYER_YS = "_partitions_up_to((bound - sum(xp)) // 2, p)"
LAYER_AT_N2 = {"layer": 0, "partition": [], "quotient_character": [[], [2], [4]]}

MUTANTS = (
    # the sweep reads its predicted alphas and degrees off wedge_isotypic;
    # s = n is the trivial weight
    Mutant("wedge-alpha-at-s-equal-n", "loccoh.bott", "wedge_isotypic", WEDGE,
           WEDGE + " if s < n else (alpha[0] + 1, *alpha[1:])", SWEEP, {"max_n": 3}, "n<=3",
           {**AT_N1, "alpha": [1], "beta": [], "predicate_s": 1, "algorithm_s": None}),
    Mutant("wedge-degree-plus-one", "loccoh.bott", "wedge_isotypic", WEDGE,
           WEDGE.replace("(beta))", "(beta) + 1)"), SWEEP, {"max_n": 3}, "n<=3",
           {**AT_N1, "alpha": [0], "beta": [], "degree": 0, "expected_degree": 1}),
    # a kernel that never reports a repeated entry hits no wrong target;
    # only the nonzero count catches it: at beta=(3,), 8 of the 9 heads miss
    Mutant("kernel-never-none", "loccoh.bott", "bott_kernel", "if isdisjoint(head):", "if True:",
           SWEEP, {"max_n": 3}, "n<=3",
           {"n": 2, "k": 1, "beta": [3], "nonzero": 9, "expected_nonzero": 8}),
    # one more degree for heads over 3 above the tail keeps every count and
    # target at n <= 3; only the degree tally catches it (head (5,) at beta=(1,))
    Mutant("kernel-degree-above-tail", "loccoh.bott", "bott_kernel", HEAD_DEGREE,
           HEAD_DEGREE[:-1] + " + (bool(tail) and head[0] > tail[0] + 3),", SWEEP, {"max_n": 3},
           "n<=3", {"n": 2, "k": 1, "beta": [1], "degree": 0, "count": 3, "expected_count": 4}),
    # the summary runs the kernel on the two halves of each head, at most
    # three entries at n <= 5, so only bott() on a full head sees heads of
    # five entries
    Mutant("kernel-degree-long-heads", "loccoh.bott", "bott_kernel", HEAD_DEGREE,
           HEAD_DEGREE[:-1] + " + (len(head) >= 5),", SWEEP, {"max_n": 5}, "n<=5",
           {"n": 5, "k": 5, "beta": [], "alpha": LONG_HEAD,
            "summary": {"degree": 0, "weight": LONG_HEAD},
            "bott": {"degree": 1, "weight": LONG_HEAD}}),
    # a degree reaches k(n-k) = 12 only at n = 7, k = 3 or 4, where each
    # half of a head stays below 12; only bott() on the full head sees it
    Mutant("kernel-degree-capped-at-11", "loccoh.bott", "bott_kernel", HEAD_DEGREE,
           "yield min(sum(map(above, head)), 11),", SWEEP, {}, "n<=7",
           {"n": 7, "k": 3, "beta": [3, 3, 3, 3], "alpha": [-4, -4, -5],
            "summary": {"degree": 12, "weight": [0] * 6 + [-1]},
            "bott": {"degree": 11, "weight": [0] * 6 + [-1]}}),
    # dropping the prefix groups that end in a tail entry at k = 5 loses only
    # heads that meet the tail; only the heads covered catch it.  At beta=(7,)
    # the group ending in 7 held comb(6, 2) * comb(14, 2) = 1365 heads
    Mutant("summary-drops-tail-groups", "loccoh.bott", "bott_span_summary",
           "for i in range(k - m - 1, len(span) - m))",
           "for i in range(k - m - 1, len(span) - m) if not (k == 5 and span[i] in tail))",
           SWEEP, {"max_n": 6}, "n<=6",
           {"n": 6, "k": 5, "beta": [7], "covered": 18984, "expected_covered": 20349}),
    Mutant("preimage-degree-plus-one", "loccoh.bott", "bott_preimage", PREIMAGE_DEGREE,
           PREIMAGE_DEGREE.replace(")), head", ")) + 1, head"), SWEEP, {"max_n": 3}, "n<=3",
           {**AT_N1, "beta": [], "s": 0, "preimage": {"alpha": [-1], "degree": 1},
            "kernel": {"alpha": [-1], "degree": 0}}),
    Mutant("preimage-none", "loccoh.bott", "bott_preimage",
           "if len(head) + len(tail) != len(target):", "if True:", SWEEP, {"max_n": 3}, "n<=3",
           {**AT_N1, "beta": [], "s": 0, "preimage": None, "kernel": {"alpha": [-1], "degree": 0}}),
    # with the symm flavors swapped, every symm class below index n reads a
    # witness of the wrong parity, zero on both routes, so the assemblies
    # agree; only the bottom term D_p, missing at symm n=2, p=1, shows it
    Mutant("class-label-flavor-swap", "loccoh.characters", "Space.class_label",
           "else 2 - index % 2", "else 1 + index % 2", ASSEMBLY, {"max_n": 4}, "bottom term",
           {"space": "symm", "n": 2, "p": 1}),
    Mutant("witness-skew-base-plus-two", "loccoh.extmult", "_witness_closed",
           "(2 * s if n % 2 else 0)", "(2 * s if n % 2 else 0) + 2", ASSEMBLY, {"max_n": 4},
           "p=0 shape", {"space": "skew", "n": 2, "p": 0}),
    # the Gauss factor is 1 at the bottom term; skew n=6, p=1 is the first
    # rank with a class whose factor is larger
    Mutant("witness-skew-gauss-power-two", "loccoh.extmult", "_witness_closed",
           "gauss(s - 1, s - (m - p), 4)", "gauss(s - 1, s - (m - p), 2)", ASSEMBLY,
           {"max_n": 6}, "assembly", {"space": "skew", "n": 6, "p": 1}),
    Mutant("lcd-skew-p1-plus-one", "loccoh.cohomology", "lcd_closed_form",
           "comb(2 * p + 2, 2) + 1", "comb(2 * p + 2, 2) + 1 + (p == 1)", ASSEMBLY,
           {"max_n": 6}, "lcd", {"space": "skew", "n": 4, "p": 1, "top_degree": 1}),
    Mutant("gauss-enum-shifted", QS, "gauss_enum", "b * (b - 1) // 2", "b * (b + 1) // 2", GAUSS,
           {"max_n": 3}, "a<=3", {"a": 1, "b": 1, "v": 1, "closed": [(0, 1)], "enum": [(-1, 1)]}),
    Mutant("gauss-zero-above-half", QS, "gauss", "b > a:", "2 * b > a + 1:", GAUSS,
           {"max_n": 3}, "a<=3", {"a": 2, "b": 0, "v": 1, "identity": "symmetry"}),
    # without the `width and` guard the box never ends
    Mutant("box-empty-one-column", "loccoh.partitions", "enumerate_box", "if width else",
           "if width and (width > 1 or rows < 2) else", GAUSS, {"max_n": 4}, "a<=4",
           {"a": 3, "b": 1, "v": 1, "identity": "complement"}),
    # a box's size distribution is palindromic, so only a wrong reader fails here
    Mutant("coefficient-at-zero-plus-one", QS, "LaurentPoly.coefficient", "get(exponent, 0)",
           "get(exponent, 0) + (exponent == 0)", GAUSS, {"max_n": 3}, "a<=3",
           {"a": 2, "b": 1, "identity": "palindromic"}),
    Mutant("enum-skew-counts-twice", EXT, "witness_ext_enum", "comb(2 * p, 2) - sum(beta)] += 1",
           "comb(2 * p, 2) - sum(beta)] += 2", TRIPLE, {"max_n": 3}, "skew n<=3, symm n<=3",
           {**SKEW_N2, "flavor": None, "closed": [(1, 1)], "enum": [(1, 2)], "bott": [(1, 1)]}),
    # the enumeration route only counts, so only a wrong reader fails positivity
    Mutant("pairs-negated", QS, "LaurentPoly.pairs", "sorted(self._c.items())",
           "sorted((e, -c) for e, c in self._c.items())", TRIPLE, {"max_n": 3}, "positivity",
           {**SKEW_N2, "poly": [(1, -1)]}),
    Mutant("lcd-general-plus-one", CO, "lcd_closed_form", "(p + 1) ** 2 + 1", "(p + 1) ** 2 + 2",
           LCD, {"max_n": 3}, "n,m<=3", {"space": "general", "n": 1, "m": 1, "p": 0}),
    Mutant("top-support-adds-n", CO, "top_support", ".top_labels()", ".top_labels() + [n]", LCD,
           {"max_n": 4}, "n<=4", {"space": "symm", "n": 3, "p": 1, "top_support": [1, 3]}),
    Mutant("ext-character-counts-twice", EXT, "ext_character", "offsets))] += 1",
           "offsets))] += 2", EXAMPLE, {}, "D=14", {"ext4": [([5, 5, 4], 2)]}),
    Mutant("schur-dimension-plus-one", CH, "schur_dimension", "return num // den",
           "return num // den + 1", EXAMPLE, {}, "D=14", {"dim": 4}),
    Mutant("member-skew-below-2s", CH, "member_skew", "if lam[2 * s] != 2 * s:",
           "if lam[2 * s] < 2 * s:", "witness-exclusivity", {"max_n": 4}, "n<=4",
           {"n": 3, "space": "skew", "L": "SimpleLabel(space='skew', n=3, s=1, flavor=None)",
            "Lprime": "SimpleLabel(space='skew', n=3, s=0, flavor=None)", "witness": [2, 2, 2]}),
    Mutant("witness-skew-odd-base-plus-one", EXT, "_witness_closed", "(2 * s if",
           "(2 * s + 1 if", "skew-exponent-parity", {"max_n": 4}, "n<=4",
           {"n": 3, "p": 0, "s": 1, "exponents": [4]}),
    Mutant("ext-character-drops-554", EXT, "ext_character", "res is not None:",
           "res and res[1] != (3, 2, 0):", NONDEGENERACY, {}, "D=14", {"missing": [5, 5, 4]}),
    Mutant("member-symm-upper-bound-plus-two", CH, "member_symm", "lam[s] > s:",
           "lam[s] > s + 2:", NONDEGENERACY, {}, "7 labels", {"accepted_by": 5}),
    Mutant("layer-drops-y-1", CH, "layer_character", LAYER_YS,
           f"[y for y in {LAYER_YS} if y != (1,)]", FILTRATION, {"max_n": 2, "bound": 4},
           "symm n=2 p=1 D=4", {**LAYER_AT_N2, "cyclic_character": [[], [4]]}),
    Mutant("layer-counts-y-1-twice", CH, "layer_character", LAYER_YS,
           f"[*{LAYER_YS}, *[(1,)] * (p > 0)]", FILTRATION, {"max_n": 2, "bound": 4},
           "symm n=2 p=1 D=4", {**LAYER_AT_N2, "cyclic_character": [[], [2], [2], [4]]}),
    Mutant("ring-extra-weight", CH, "space_character", "bound))", "bound)) + Counter({(99,): 1})",
           FILTRATION, {"max_n": 1, "bound": 2}, "symm n=1 p=0 D=2",
           {"layer": None, "union_of_layers": [[], [2]], "ring_character": [[], [2], [99]]}),
)

# the memos a mutant can poison, held before any patch replaces them
_CACHES = (cohomology._support_terms, extmult._witness_closed)


@contextmanager
def applied(mutant: Mutant):
    """Run the body with ``mutant.function`` rebuilt from its source with
    ``old`` replaced by ``new``: on the class for a method, else on every
    ``loccoh`` module attribute bound to the original.  An anchor that does
    not occur exactly once is an error, so a stale row fails."""
    module = importlib.import_module(mutant.module)
    *path, name = mutant.function.split(".")
    owner = functools.reduce(getattr, path, module)
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(inspect.unwrap(original)))
    for text, place in ((source, mutant.function), (inspect.getsource(module), mutant.module)):
        count = text.count(mutant.old)
        if count != 1:
            raise AssertionError(f"{mutant.id}: {mutant.old!r} occurs {count} times in {place}")
    namespace = dict(vars(module))
    exec(source.replace(mutant.old, mutant.new), namespace)
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "loccoh"]
    bound = [owner] if path else [m for m in modules if getattr(m, name, None) is original]
    for cache in _CACHES:
        cache.cache_clear()
    try:
        for target in bound:
            setattr(target, name, namespace[name])
        yield
    finally:
        for target in bound:
            setattr(target, name, original)
        for cache in _CACHES:
            cache.cache_clear()


@functools.cache
def _passes_unpatched(check: str, kwargs: tuple) -> bool:
    return verify.CHECKS[check][0](**dict(kwargs))[0]


def pytest_generate_tests(metafunc):
    if "mutant" in metafunc.fixturenames:
        metafunc.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])


# the modules that write a failure report: verify.py returns (False, ...),
# and characters.filtration_check builds FiltrationReport(False, ...),
# which check_filtration hands on through a single return
REPORTERS = {verify: "return (False,", characters: "FiltrationReport(False,"}
_FILES = {module.__file__ for module in REPORTERS}
_ran: dict[str, set[tuple[str, int]]] = {}  # row id -> the (file, line)s of REPORTERS it ran


def _run_patched(mutant: Mutant):
    lines = _ran[mutant.id] = set()

    def local(frame, event, arg):
        lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, *_: local if frame.f_code.co_filename in _FILES else None)
    try:
        with applied(mutant):
            return verify.CHECKS[mutant.check][0](**mutant.kwargs)
    finally:
        sys.settrace(previous)


def test_mutant_fails_its_check(mutant):
    assert _passes_unpatched(mutant.check, tuple(sorted(mutant.kwargs.items())))
    assert _run_patched(mutant) == (False, mutant.counterexample, mutant.where)


def test_every_verify_fail_site_has_a_row():
    for mutant in MUTANTS:
        if mutant.id not in _ran:  # a -k selection skipped its row
            _run_patched(mutant)
    ran = set().union(*_ran.values())
    sites = [(module.__file__, range(node.lineno, node.end_lineno + 1))
             for module, report in REPORTERS.items()
             for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, (ast.Return, ast.Call)) and ast.unparse(node).startswith(report)]
    assert len(sites) >= 27
    assert [(file, lines) for file, lines in sites
            if all((file, line) not in ran for line in lines)] == []


def test_a_raising_check_is_a_fail_and_the_suite_runs_on():
    # the flavor swap leaves symm n=2, p=1 with no class at all, so
    # lcd-closed-forms raises from SupportPoly.top_degree
    (swap,) = (m for m in MUTANTS if m.id == "class-label-flavor-swap")
    with applied(swap):
        reports = verify.run_suite("loccoh", max_n=4)
    message = "no class D_s occurs for symm n=2 p=1, but every valid rank has one"
    assert [(r.name, r.passed, r.counterexample, r.params) for r in reports] == [
        ("assembly-agreement", False, {"space": "symm", "n": 2, "p": 1}, "bottom term"),
        ("lcd-closed-forms", False, {"exception": "ValueError", "message": message}, "raised")]
