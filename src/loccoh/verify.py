"""Self-verification suites: every closed form against its oracle.

Each check sweeps a stated parameter range and either passes or produces a
machine-readable counterexample.  A check's ranges are its keyword
arguments, defaulting to the acceptance ranges, and one rule (``_ranges``)
maps the runner's ``max_n`` and ``bound`` onto them: ``max_n`` sets every
n (or m) ceiling, each parameter named ``max_n`` or ending in ``_n``;
``bound`` sets every truncation window, each parameter named ``bound``;
nothing sets the Gauss range ``max_a``.  The ranks and labels come from the
``Space`` record and ``all_labels``, through ``_ranks`` and
``_witness_cases``, so a check has one loop body for all its spaces.  A
range below a check's ``MINIMUMS`` is a ``ValueError`` before any check
runs: the worked example needs a window of 14, the size of its weight
(5,5,4), and skew parity needs n >= 2, as skew n = 1 has no rank.
``nondegeneracy-witness`` takes its Ext side from ``example-reproduction``.
With ``threads`` above 1 the runner runs independent checks in that many
worker processes; output order is always declaration order.  A raising
check is a FAIL whose counterexample names the exception; the suite runs on.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb

from .bott import (BottCohomology, bott, bott_preimage, bott_span_summary, shifted,
                   unshifted, wedge_isotypic)
from .characters import (
    SKEW,
    SPACES,
    SYMM,
    all_labels,
    filtration_check,
    member,
    schur_dimension,
    witness_weight,
)
from .cohomology import (
    GENERAL,
    ambient_dimension,
    lcd,
    lcd_closed_form,
    support_poly,
    support_poly_from_ext,
    top_support,
)
from .extmult import ext_character, witness_ext_bott, witness_ext_closed, witness_ext_enum
from .partitions import _check_ints, enumerate_box, padded, size
from .qseries import LaurentPoly, gauss, gauss_enum

Check = tuple[bool, dict | None, str]
EXAMPLE_WEIGHT = (5, 5, 4)  # of the worked example, in Ext^4


def check_gauss_identities(max_a: int = 12) -> Check:
    """Product formula vs box enumeration, complement, symmetry and
    palindromicity of the Gauss polynomials."""
    powers = (1, 2, 4, -4)
    for a in range(max_a + 1):
        for b in range(a + 1):
            area = (a - b) * b
            # complement exponent -> number of partitions in the box
            sizes = Counter(area - size(z) for z in enumerate_box(a - b, b))
            for v in powers:
                closed = gauss(a, b, v)
                enum = gauss_enum(a, b, v)
                if closed != enum:
                    return False, {"a": a, "b": b, "v": v, "closed": closed.pairs(),
                                   "enum": enum.pairs()}, f"a<={max_a}"
                if closed != gauss(a, a - b, v):
                    return False, {"a": a, "b": b, "v": v, "identity": "symmetry"}, f"a<={max_a}"
                if closed != LaurentPoly([(v * e, count) for e, count in sizes.items()]):
                    return False, {"a": a, "b": b, "v": v, "identity": "complement"}, f"a<={max_a}"
            plain = gauss(a, b, 1)
            if any(plain.coefficient(e) != plain.coefficient(area - e)
                   for e in range(area + 1)):
                return False, {"a": a, "b": b, "identity": "palindromic"}, f"a<={max_a}"
    return True, None, f"0 <= b <= a <= {max_a}, v in {powers}"


def _alpha_and_degree(res: tuple | None, tail: tuple[int, ...], k: int) -> dict | None:
    """A (degree, shifted head) outcome as {"alpha", "degree"} for a report."""
    if res is None:
        return None
    return {"alpha": list(unshifted(res[1] + tail)[:k]), "degree": res[0]}


def _cohomology(res: BottCohomology | None) -> dict | None:
    """A ``bott`` outcome as {"degree", "weight"} for a report."""
    return None if res is None else {"degree": res.degree, "weight": list(res.weight)}


def _degree_tally(tail: tuple[int, ...], span: Sequence[int], k: int) -> Counter:
    """Degree -> number of k-subsets of ``span`` disjoint from ``tail`` whose
    entries have that many tail entries above them in all, without the
    Bott kernel: the x^k coefficient of the product of (1 + x q^a(v)) over
    the span entries v off the tail, where a(v) tail entries lie above v."""
    # rows[i]: the x^i coefficient of the product over the entries so far
    rows = [Counter({0: 1})] + [Counter() for _ in range(k)]
    for v in span:
        if v not in tail:
            a = sum(t > v for t in tail)
            for i in range(k, 0, -1):
                for degree, count in rows[i - 1].items():
                    rows[i][degree + a] += count
    return rows[k]


def check_bott_predicate_agreement(max_n: int = 7) -> Check:
    """Sweep the Bott kernel against the closed-form isotypic predicates.

    For every k <= n, every beta with at most n-k parts of size at most
    k+2 and every dominant alpha with entries in [-n-2, n+2], the kernel
    hits the wedge weight of index s, where the predicate applies, for
    exactly the alpha that ``wedge_isotypic`` names, in the degree its
    polynomial gives; s = n is the trivial weight, where ``wedge_isotypic``
    is ``trivial_isotypic``.

    The heads of one beta are the k-subsets of the span, and
    ``bott_span_summary`` covers them from kernel runs on three pieces of a
    head (a prefix, one pivot entry and a suffix of half the head): it
    returns the number of heads, their degree tally and the targets some
    head reaches, with that head's degree, and takes no step per head.  The
    heads it covered must number comb(len(span), k), every k-subset once.
    The degree tally must equal ``_degree_tally``, a product over the span
    entries off the tail that never runs the kernel, and a counterexample
    names the first degree whose count differs.  That product counts the
    k-subsets of the span off the tail, comb(n+2k+4, k) of them since every
    tail lies in the span, so the tally also fixes the number of nonzero
    outcomes.

    Then, by target s in increasing order: since the summary joins its
    outcomes from three pieces, ``bott()`` re-derives a reached target on
    the full head, with the same degree; ``bott_preimage`` of the target
    must name the head the kernel sent there, with its degree, or no head
    inside the span when the kernel sent none; and the alpha and degree
    that ``wedge_isotypic`` predicts must be that head's.  Counterexamples
    name the first failing s of the first failing beta.  The pair count in
    the params sums the heads covered.
    """
    checked = 0
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            r = n - k
            # shifted wedge weights (0^s, (-1)^(n-s)); s = n is the trivial one
            wedges = {s: shifted((0,) * s + (-1,) * (n - s), n) for s in range(r, n + 1)}
            # shifted alpha entries; the k-subsets of the span, in
            # combinations order, are the heads of
            # enumerate_weights(k, -n-2, n+2) in the same order
            span = range(2 * n + 1, -k - 3, -1)
            heads = comb(len(span), k)
            for beta in enumerate_box(r, k + 2):
                bp = padded(beta, r)
                targets = {s: t for s, t in wedges.items() if all(b >= n - s for b in bp)}
                tail = shifted(bp, r)
                covered, tally, reached = bott_span_summary(tail, span, k, targets.values())
                if covered != heads:
                    return False, {"n": n, "k": k, "beta": list(beta), "covered": covered,
                                   "expected_covered": heads}, f"n<={max_n}"
                # checked counts every (alpha, beta) pair, one outcome each
                checked += covered
                expected = _degree_tally(tail, span, k)
                if tally != expected:
                    degree = min(d for d in tally.keys() | expected.keys()
                                 if tally[d] != expected[d])
                    return False, {"n": n, "k": k, "beta": list(beta), "degree": degree,
                                   "count": tally[degree], "expected_count": expected[degree]
                                   }, f"n<={max_n}"
                for s, target in targets.items():
                    hit = reached.get(target)
                    found = hit and unshifted(hit[1] + tail)[:k]
                    if hit:
                        summary = BottCohomology(hit[0], unshifted(target))
                        got = bott(found, bp, n)
                        if got != summary:
                            return False, {"n": n, "k": k, "beta": list(beta), "s": s,
                                           "alpha": list(found), "summary": _cohomology(summary),
                                           "bott": _cohomology(got)}, f"n<={max_n}"
                    pre = bott_preimage(tail, target)
                    if pre is not None and not span[-1] <= pre[1][-1] <= pre[1][0] <= span[0]:
                        pre = None
                    if pre != hit:
                        return False, {"n": n, "k": k, "beta": list(beta), "s": s,
                                       "preimage": _alpha_and_degree(pre, tail, k),
                                       "kernel": _alpha_and_degree(hit, tail, k)}, f"n<={max_n}"
                    poly, alpha = wedge_isotypic(beta, k, n, s)
                    if alpha != found:
                        return False, {"n": n, "k": k, "beta": list(beta), "s": s,
                                       "predicate_alpha": alpha and list(alpha),
                                       "algorithm_alpha": found and list(found)}, f"n<={max_n}"
                    if hit and LaurentPoly.q(hit[0]) != poly:
                        return False, {"n": n, "k": k, "beta": list(beta), "s": s, "degree": hit[0],
                                       "expected_degree": poly.top_degree()}, f"n<={max_n}"
    return True, None, (f"n<={max_n}, beta in P(n-k,k+2), alpha entries in [-n-2,n+2]"
                        f" ({checked} pairs)")


def check_example_reproduction(bound: int = 14) -> Check:
    """The symmetric n=3, x=(2,2,0), p=1 subquotient: its fourth Ext module
    is exactly the irreducible of highest weight ``EXAMPLE_WEIGHT``, of dimension 3."""
    got = ext_character(SYMM, 3, (2, 2, 0), 1, bound).at(4)
    if got != Counter({EXAMPLE_WEIGHT: 1}):
        return False, {"ext4": sorted((list(w), c) for w, c in got.items())}, f"D={bound}"
    if schur_dimension(EXAMPLE_WEIGHT) != 3:
        return False, {"dim": schur_dimension(EXAMPLE_WEIGHT)}, f"D={bound}"
    return True, None, f"symm n=3 x=(2,2,0) p=1, window D={bound}"


def _ranks(*tops: tuple[str, int]) -> Iterator[tuple[str, int, int, int | None]]:
    """(space, n, p, m) for each (space, top) in turn, 1 <= n <= top, by
    the rank rule 0 <= p < rows(n) (rows(n) = n for general matrices); m
    runs from n to top for general matrices and is None otherwise."""
    for space, top in tops:
        sp = SPACES.get(space)
        for n in range(1, top + 1):
            for m in (None,) if sp else range(n, top + 1):
                for p in range(sp.rows(n) if sp else n):
                    yield space, n, p, m


def _witness_cases(*tops: tuple[str, int]) -> Iterator[tuple[str, int, int, int, int | None]]:
    """(space, n, p, s, flavor) for each rank of ``_ranks`` and each label of
    ``all_labels`` with s at least ``Space.lowest_witness``, as the witness
    routes require."""
    for space, n, p, _ in _ranks(*tops):
        lowest = SPACES[space].lowest_witness(n, p)
        for label in all_labels(space, n):
            if label.s >= lowest:
                yield space, n, p, label.s, label.flavor


def _where(space: str, n: int, p: int, m: int | None) -> dict:
    """A rank's counterexample keys; m only for general matrices."""
    return {"space": space, "n": n, **({} if m is None else {"m": m}), "p": p}


def check_ext_triple_agreement(skew_n: int = 8, symm_n: int = 7) -> Check:
    """Closed form == box enumeration == sheaf cohomology for every witness
    multiplicity, over every valid index."""
    count = 0
    for space, n, p, s, j in _witness_cases((SKEW, skew_n), (SYMM, symm_n)):
        closed = witness_ext_closed(space, n, p, s, j)
        enum = witness_ext_enum(space, n, p, s, j)
        via_bott = witness_ext_bott(space, n, p, s, j)
        if not closed == enum == via_bott:
            return False, {
                "space": space, "n": n, "p": p, "s": s, "flavor": j,
                "closed": closed.pairs(), "enum": enum.pairs(), "bott": via_bott.pairs(),
            }, f"skew n<={skew_n}, symm n<={symm_n}"
        if any(c < 0 for _, c in closed.pairs()):
            return False, {"space": space, "n": n, "p": p, "s": s,
                           "poly": closed.pairs()}, "positivity"
        count += 1
    return True, None, f"skew n<={skew_n}, symm n<={symm_n} ({count} index tuples)"


def check_assembly_agreement(general_n: int = 10, skew_n: int = 8, symm_n: int = 7) -> Check:
    """Skew/symm closed forms against the ``bott`` route of the Ext assembly;
    for all three spaces, the forced single-term shape at p=0 and, at every
    p, D_p alone in the codimension."""
    for space, n, p, m in _ranks((GENERAL, general_n), (SKEW, skew_n), (SYMM, symm_n)):
        hp = support_poly(space, n, p, m)
        if not p and hp.terms != {0: LaurentPoly.q(ambient_dimension(space, n, m))}:
            return False, _where(space, n, 0, m), "p=0 shape"
        # the rank-p locus has the codimension of matrices p (skew: 2p) rows smaller
        codim = ambient_dimension(space, n - (2 * p if space == SKEW else p), m and m - p)
        if hp.terms.get(p) != LaurentPoly.q(codim) or min(
                min(t.exponents()) for t in hp.terms.values()) < codim:
            return False, _where(space, n, p, m), "bottom term"
        if space != GENERAL and hp.terms != support_poly_from_ext(space, n, p, "bott").terms:
            return False, _where(space, n, p, m), "assembly"
    return True, None, f"skew n<={skew_n}, symm n<={symm_n}, general m,n<={general_n}"


def check_lcd_closed_forms(max_n: int = 10) -> Check:
    """Top degree of the main displays against the one-line dimension
    formulas, and the top-degree support for symmetric odd p < n-1."""
    for space, n, p, m in _ranks((GENERAL, max_n), (SKEW, max_n), (SYMM, max_n)):
        where = f"n<={max_n}" if m is None else f"n,m<={max_n}"
        if lcd(space, n, p, m) != lcd_closed_form(space, n, p, m):
            return False, _where(space, n, p, m), where
        if space == SYMM and p % 2 and p < n - 1 and top_support(space, n, p) != [1]:
            return False, {**_where(space, n, p, m), "top_support": top_support(space, n, p)}, where
    return True, None, f"all spaces, n,m <= {max_n}, every valid p"


def check_witness_exclusivity(max_n: int = 10) -> Check:
    """witness_weight(L) lies in the weight set of L' iff L == L'."""
    for n in range(1, max_n + 1):
        for space in (SKEW, SYMM):
            labels = all_labels(space, n)
            for L in labels:
                w = witness_weight(L)
                for Lp in labels:
                    if member(Lp, w) != (L == Lp):
                        return False, {"n": n, "space": space, "L": repr(L),
                                       "Lprime": repr(Lp), "witness": list(w)}, f"n<={max_n}"
    return True, None, f"skew and symm, n<={max_n}, all label pairs"


def check_skew_exponent_parity(max_n: int = 8) -> Check:
    """Every exponent of every skew witness multiplicity is congruent to
    m-p mod 2 (the degeneration argument at witness level)."""
    for space, n, p, s, j in _witness_cases((SKEW, max_n)):
        m = SPACES[space].rows(n)
        poly = witness_ext_closed(space, n, p, s, j)
        if any((e - (m - p)) % 2 for e in poly.exponents()):
            return False, {"n": n, "p": p, "s": s, "exponents": poly.exponents()}, f"n<={max_n}"
    return True, None, f"skew n<={max_n}, all valid (p, s)"


def check_nondegeneracy_witness() -> Check:
    """``EXAMPLE_WEIGHT`` lies in no simple module's weight set, so it must
    cancel in every assembled local cohomology class.  Its Ext side, that it
    occurs in Ext^4 of the example, is ``example-reproduction``'s."""
    rejecting = [not member(L, EXAMPLE_WEIGHT) for L in all_labels(SYMM, 3)]
    if not all(rejecting):
        return False, {"accepted_by": rejecting.index(False)}, "7 labels"
    return True, None, f"{EXAMPLE_WEIGHT} against all 7 simple labels of n=3"


def check_filtration(symm_n: int = 4, skew_n: int = 6, bound: int = 10) -> Check:
    """Truncated filtration consistency for symm n<=4 and skew n<=6."""
    for space, n, p, _ in _ranks((SYMM, symm_n), (SKEW, skew_n)):
        rep = filtration_check(space, n, p, bound)
        if not rep.ok:
            return False, rep.mismatch, f"{space} n={n} p={p} D={bound}"
    return True, None, f"symm n<={symm_n}, skew n<={skew_n}, D={bound}"


CHECKS: dict[str, tuple] = {
    "gauss-identities": (check_gauss_identities, "qseries"),
    "bott-predicate-agreement": (check_bott_predicate_agreement, "bott"),
    "example-reproduction": (check_example_reproduction, "ext"),
    "ext-triple-agreement": (check_ext_triple_agreement, "ext"),
    "assembly-agreement": (check_assembly_agreement, "loccoh"),
    "lcd-closed-forms": (check_lcd_closed_forms, "loccoh"),
    "witness-exclusivity": (check_witness_exclusivity, "characters"),
    "skew-exponent-parity": (check_skew_exponent_parity, "ext"),
    "nondegeneracy-witness": (check_nondegeneracy_witness, "ext"),
    "filtration": (check_filtration, "filtration"),
}

MINIMUMS = {"example-reproduction": {"bound": size(EXAMPLE_WEIGHT)},
            "skew-exponent-parity": {"max_n": 2}}

SUITES = ("all", "qseries", "bott", "characters", "ext", "loccoh", "filtration")


@dataclass
class VerifyReport:
    """One line of the verification report."""

    name: str
    params: str
    passed: bool
    counterexample: dict | None
    seconds: float


def _ranges(fn, max_n: int | None, bound: int | None) -> dict[str, int]:
    """The ranges of ``fn`` that the module docstring's rule sets; None sets none."""
    rule = {p: max_n if p == "max_n" or p.endswith("_n") else bound if p == "bound" else None
            for p in inspect.signature(fn).parameters}
    return {p: v for p, v in rule.items() if v is not None}


def _run_one(item: tuple[str, dict[str, int]]) -> VerifyReport:
    name, ranges = item
    t0 = time.perf_counter()
    try:
        passed, counterexample, params = CHECKS[name][0](**ranges)
    except Exception as exc:  # a raising check is a FAIL, and the suite runs on
        passed, counterexample, params = False, {
            "exception": type(exc).__name__, "message": str(exc)}, "raised"
    return VerifyReport(name, params, passed, counterexample, time.perf_counter() - t0)


def run_suite(
    suite: str = "all",
    max_n: int | None = None,
    bound: int | None = None,
    threads: int = 1,
) -> list[VerifyReport]:
    """Run the named suite and return reports in declaration order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    # None picks a check's own range; threads has no such default
    ranges = {name: v for name, v in (("max_n", max_n), ("bound", bound), ("threads", threads))
              if v is not None or name == "threads"}
    _check_ints(**ranges)
    for name, value in ranges.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    items = [(name, _ranges(fn, max_n, bound)) for name, (fn, tag) in CHECKS.items()
             if suite in ("all", tag)]
    for name, given in items:
        for param, least in MINIMUMS.get(name, {}).items():
            if given.get(param, least) < least:
                raise ValueError(f"{param} must be at least {least} for {name}, got {given[param]}")
    if threads > 1 and len(items) > 1:
        # imported here, so a serial run and the CLI never load the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(_run_one, items))
    return [_run_one(item) for item in items]
