"""Mutants that ``verify`` must kill: each row replaces an exact piece of
one library function's source, and names the check that must then fail,
with its counterexample and where-text; unchanged, the check must pass.
This module imports without pytest (``pytest_generate_tests`` feeds the
rows to the test), so a standalone script can apply ``MUTANTS`` too."""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import textwrap
from contextlib import contextmanager
from typing import NamedTuple

from loccoh import cohomology, extmult, verify


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
LONG_HEAD = [0, 0, -1, -1, -1]

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
    # the summary runs the kernel on prefixes and three-entry suffixes only,
    # so only bott() on a full head sees heads of five or more entries
    Mutant("kernel-degree-long-heads", "loccoh.bott", "bott_kernel", HEAD_DEGREE,
           HEAD_DEGREE[:-1] + " + (len(head) >= 5),", SWEEP, {"max_n": 5}, "n<=5",
           {"n": 5, "k": 5, "beta": [], "alpha": LONG_HEAD,
            "summary": {"degree": 0, "weight": LONG_HEAD},
            "bott": {"degree": 1, "weight": LONG_HEAD}}),
    # dropping the prefix groups that end in a tail entry at k = 5 loses only
    # heads that meet the tail; only the heads covered catch it.  At beta=(7,)
    # the group ending in 7 held 6 * comb(14, 3) = 2184 heads
    Mutant("summary-drops-tail-groups", "loccoh.bott", "bott_span_summary",
           "for i in range(k - m - 1, len(span) - m))",
           "for i in range(k - m - 1, len(span) - m) if not (k == 5 and span[i] in tail))",
           SWEEP, {"max_n": 6}, "n<=6",
           {"n": 6, "k": 5, "beta": [7], "covered": 18165, "expected_covered": 20349}),
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


def test_mutant_fails_its_check(mutant):
    assert _passes_unpatched(mutant.check, tuple(sorted(mutant.kwargs.items())))
    with applied(mutant):
        got = verify.CHECKS[mutant.check][0](**mutant.kwargs)
    assert got == (False, mutant.counterexample, mutant.where)


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
