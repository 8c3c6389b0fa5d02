"""Self-verification suites: every closed form against its oracle.

Each check sweeps a stated parameter range and either passes or produces a
machine-readable counterexample.  The ranges default to the acceptance
ranges and can be scaled with ``max_n`` / ``bound``; the ranks and labels in
them come from the ``Space`` record and ``all_labels``, through ``_ranks``
and ``_witness_cases``, so a check has one loop body for all its spaces.
With ``threads`` above 1 the runner runs independent checks in that many
worker processes; output order is always declaration order.  A check that
raises is a FAIL whose counterexample names the exception, and the suite
runs on.
"""

from __future__ import annotations

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


def check_gauss_identities(max_n: int | None = None, bound: int | None = None) -> Check:
    """Product formula vs box enumeration, complement, symmetry and
    palindromicity of the Gauss polynomials."""
    top = 12 if max_n is None else max_n
    powers = (1, 2, 4, -4)
    for a in range(top + 1):
        for b in range(a + 1):
            area = (a - b) * b
            # complement exponent -> number of partitions in the box
            sizes = Counter(area - size(z) for z in enumerate_box(a - b, b))
            for v in powers:
                closed = gauss(a, b, v)
                enum = gauss_enum(a, b, v)
                if closed != enum:
                    return False, {"a": a, "b": b, "v": v, "closed": closed.pairs(),
                                   "enum": enum.pairs()}, f"a<={top}"
                if closed != gauss(a, a - b, v):
                    return False, {"a": a, "b": b, "v": v, "identity": "symmetry"}, f"a<={top}"
                if closed != LaurentPoly([(v * e, count) for e, count in sizes.items()]):
                    return False, {"a": a, "b": b, "v": v, "identity": "complement"}, f"a<={top}"
            plain = gauss(a, b, 1)
            if any(plain.coefficient(e) != plain.coefficient(area - e)
                   for e in range(area + 1)):
                return False, {"a": a, "b": b, "identity": "palindromic"}, f"a<={top}"
    return True, None, f"0 <= b <= a <= {top}, v in {powers}"


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
    Bott kernel: the x^k coefficient of prod_j (1 + x q^j)^(g_j), where g_j
    span entries off the tail have exactly j tail entries above them."""
    runs = Counter(sum(t > v for t in tail) for v in span if v not in tail)
    # rows[i]: the x^i coefficient of the product over the runs so far
    rows = [Counter({0: 1})]
    for j, g in runs.items():
        new = [Counter() for _ in range(min(len(rows) + g, k + 1))]
        for i, row in enumerate(rows):
            for taken in range(min(g, k - i) + 1):
                ways = comb(g, taken)
                for degree, count in row.items():
                    new[i + taken][degree + j * taken] += ways * count
        rows = new
    return rows[k] if k < len(rows) else Counter()


def check_bott_predicate_agreement(max_n: int | None = None, bound: int | None = None) -> Check:
    """Sweep the Bott kernel against the closed-form isotypic predicates.

    For every k <= n, every beta with at most n-k parts of size at most
    k+2 and every dominant alpha with entries in [-n-2, n+2], the kernel
    hits the wedge weight of index s, where the predicate applies, for
    exactly the alpha that ``wedge_isotypic`` names, in the degree its
    polynomial gives; s = n is the trivial weight, where ``wedge_isotypic``
    is ``trivial_isotypic``.  Counterexamples name the first failing alpha
    in enumeration order.  Each beta also needs exactly comb(n+2k+4, k)
    nonzero outcomes, one per head disjoint from its shifted tail, and
    ``bott_preimage`` of each applicable target must name the head the
    kernel sent there, with its degree, or no head inside the span when the
    kernel sent none.

    The degree tally of each beta's nonzero outcomes must equal
    ``_degree_tally``, a product of binomials that never runs the kernel,
    and a counterexample names the first degree whose count differs.

    The heads of one beta are the k-subsets of the span, and
    ``bott_span_summary`` covers them from kernel runs on prefixes and on
    suffixes of half a head: it returns the number of heads, their degree
    tally and the targets some head reaches, with that head's degree, and
    takes no step per head.  The heads it covered must number
    comb(len(span), k), every k-subset once.  Since it joins those outcomes
    from two pieces, ``bott()`` re-derives every target it reached on the
    full head, with the same degree.  The pair count in the params sums the
    heads covered.
    """
    top = 7 if max_n is None else max_n
    checked = 0
    for n in range(1, top + 1):
        for k in range(1, n + 1):
            r = n - k
            # shifted wedge weights (0^s, (-1)^(n-s)); s = n is the trivial one
            targets = {shifted((0,) * s + (-1,) * (n - s), n): s for s in range(r, n + 1)}
            # shifted alpha entries; the k-subsets of the span, in
            # combinations order, are the heads of
            # enumerate_weights(k, -n-2, n+2) in the same order
            span = range(2 * n + 1, -k - 3, -1)
            # every tail lies inside the span, so n+2k+4 entries stay free
            free_heads = comb(n + 2 * k + 4, k)
            heads = comb(len(span), k)
            for beta in enumerate_box(r, k + 2):
                bp = padded(beta, r)
                applicable = [s for s in range(r, n + 1) if all(b >= n - s for b in bp)]
                predicted = {}
                for s in applicable:
                    poly, alpha = wedge_isotypic(beta, k, n, s)
                    if alpha is not None:
                        predicted[shifted(alpha, n)] = (s, poly)
                tail = shifted(bp, r)
                covered, tally, reached = bott_span_summary(
                    tail, span, k, [t for t, s in targets.items() if s in applicable])
                if covered != heads:
                    return False, {"n": n, "k": k, "beta": list(beta), "covered": covered,
                                   "expected_covered": heads}, f"n<={top}"
                # checked counts every (alpha, beta) pair, one outcome each
                checked += covered
                nonzero = tally.total()
                if nonzero != free_heads:
                    return False, {"n": n, "k": k, "beta": list(beta), "nonzero": nonzero,
                                   "expected_nonzero": free_heads}, f"n<={top}"
                expected = _degree_tally(tail, span, k)
                if tally != expected:
                    degree = min(d for d in tally.keys() | expected.keys()
                                 if tally[d] != expected[d])
                    return False, {"n": n, "k": k, "beta": list(beta), "degree": degree,
                                   "count": tally[degree], "expected_count": expected[degree]
                                   }, f"n<={top}"
                for target, (degree, head) in reached.items():
                    alpha = unshifted(head + tail)[:k]
                    summary = BottCohomology(degree, unshifted(target))
                    got = bott(alpha, bp, n)
                    if got != summary:
                        return False, {"n": n, "k": k, "beta": list(beta), "alpha": list(alpha),
                                       "summary": _cohomology(summary), "bott": _cohomology(got)
                                       }, f"n<={top}"
                hit_by_s = {targets[t]: hit for t, hit in reached.items()}
                hits = {head: (s, degree) for s, (degree, head) in hit_by_s.items()}
                for target, s in targets.items():
                    if s not in applicable:
                        continue
                    pre = bott_preimage(tail, target)
                    if pre is not None and not span[-1] <= pre[1][-1] <= pre[1][0] <= span[0]:
                        pre = None
                    if pre != hit_by_s.get(s):
                        return False, {"n": n, "k": k, "beta": list(beta), "s": s,
                                       "preimage": _alpha_and_degree(pre, tail, k),
                                       "kernel": _alpha_and_degree(hit_by_s.get(s), tail, k)
                                       }, f"n<={top}"
                # heads run in decreasing lexicographic order
                for head in sorted(hits.keys() | predicted.keys(), reverse=True):
                    pred_s, poly = predicted.get(head, (None, None))
                    alg_s, degree = hits.get(head, (None, None))
                    if pred_s != alg_s:
                        failure = {"predicate_s": pred_s, "algorithm_s": alg_s}
                    elif LaurentPoly.q(degree) != poly:
                        failure = {"degree": degree, "expected_degree": poly.top_degree()}
                    else:
                        continue
                    alpha = list(unshifted(head + tail)[:k])
                    return False, {"n": n, "k": k, "alpha": alpha, "beta": list(beta),
                                   **failure}, f"n<={top}"
    return True, None, f"n<={top}, beta in P(n-k,k+2), alpha entries in [-n-2,n+2] ({checked} pairs)"


def check_example_reproduction(max_n: int | None = None, bound: int | None = None) -> Check:
    """The symmetric n=3, x=(2,2,0), p=1 subquotient: its fourth Ext module
    is exactly the irreducible of highest weight (5,5,4), of dimension 3."""
    window = 14 if bound is None else bound
    gc = ext_character(SYMM, 3, (2, 2, 0), 1, window)
    got = gc.at(4)
    if got != Counter({(5, 5, 4): 1}):
        return False, {"ext4": sorted((list(w), c) for w, c in got.items())}, f"D={window}"
    if schur_dimension((5, 5, 4)) != 3:
        return False, {"dim": schur_dimension((5, 5, 4))}, f"D={window}"
    return True, None, f"symm n=3 x=(2,2,0) p=1, window D={window}"


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


def check_ext_triple_agreement(max_n: int | None = None, bound: int | None = None) -> Check:
    """Closed form == box enumeration == sheaf cohomology for every witness
    multiplicity, over every valid index."""
    skew_top = 8 if max_n is None else max_n
    symm_top = 7 if max_n is None else max_n
    count = 0
    for space, n, p, s, j in _witness_cases((SKEW, skew_top), (SYMM, symm_top)):
        closed = witness_ext_closed(space, n, p, s, j)
        enum = witness_ext_enum(space, n, p, s, j)
        via_bott = witness_ext_bott(space, n, p, s, j)
        if not closed == enum == via_bott:
            return False, {
                "space": space, "n": n, "p": p, "s": s, "flavor": j,
                "closed": closed.pairs(), "enum": enum.pairs(), "bott": via_bott.pairs(),
            }, f"skew n<={skew_top}, symm n<={symm_top}"
        if any(c < 0 for _, c in closed.pairs()):
            return False, {"space": space, "n": n, "p": p, "s": s,
                           "poly": closed.pairs()}, "positivity"
        count += 1
    return True, None, f"skew n<={skew_top}, symm n<={symm_top} ({count} index tuples)"


def check_assembly_agreement(max_n: int | None = None, bound: int | None = None) -> Check:
    """Skew/symm closed forms against the ``bott`` route of the Ext assembly,
    whose top degree must be ``lcd_closed_form``; for all three spaces, the
    forced single-term shape at p=0 and, at every p, D_p alone in the codimension."""
    skew_top = 8 if max_n is None else max_n
    symm_top = 7 if max_n is None else max_n
    for space, n, p, m in _ranks((GENERAL, 10), (SKEW, skew_top), (SYMM, symm_top)):
        hp = support_poly(space, n, p, m)
        if not p and hp.terms != {0: LaurentPoly.q(ambient_dimension(space, n, m))}:
            return False, _where(space, n, 0, m), "p=0 shape"
        # the rank-p locus has the codimension of matrices p (skew: 2p) rows smaller
        codim = ambient_dimension(space, n - (2 * p if space == SKEW else p), m and m - p)
        if hp.terms.get(p) != LaurentPoly.q(codim) or min(
                min(t.exponents()) for t in hp.terms.values()) < codim:
            return False, _where(space, n, p, m), "bottom term"
        if space != GENERAL:
            via_bott = support_poly_from_ext(space, n, p, "bott")
            if hp.terms != via_bott.terms:
                return False, _where(space, n, p, m), "assembly"
            if via_bott.top_degree() != lcd_closed_form(space, n, p):
                return False, {**_where(space, n, p, m), "top_degree": via_bott.top_degree()}, "lcd"
    return True, None, f"skew n<={skew_top}, symm n<={symm_top}, general m,n<=10"


def check_lcd_closed_forms(max_n: int | None = None, bound: int | None = None) -> Check:
    """Top degree of the main displays against the one-line dimension
    formulas, and the top-degree support for symmetric odd p < n-1."""
    top = 10 if max_n is None else max_n
    for space, n, p, m in _ranks((GENERAL, top), (SKEW, top), (SYMM, top)):
        where = f"n<={top}" if m is None else f"n,m<={top}"
        if lcd(space, n, p, m) != lcd_closed_form(space, n, p, m):
            return False, _where(space, n, p, m), where
        if space == SYMM and p % 2 and p < n - 1 and top_support(space, n, p) != [1]:
            return False, {**_where(space, n, p, m), "top_support": top_support(space, n, p)}, where
    return True, None, f"all spaces, n,m <= {top}, every valid p"


def check_witness_exclusivity(max_n: int | None = None, bound: int | None = None) -> Check:
    """witness_weight(L) lies in the weight set of L' iff L == L'."""
    top = 10 if max_n is None else max_n
    for n in range(1, top + 1):
        for space in (SKEW, SYMM):
            labels = all_labels(space, n)
            for L in labels:
                w = witness_weight(L)
                for Lp in labels:
                    if member(Lp, w) != (L == Lp):
                        return False, {"n": n, "space": space, "L": repr(L),
                                       "Lprime": repr(Lp), "witness": list(w)}, f"n<={top}"
    return True, None, f"skew and symm, n<={top}, all label pairs"


def check_skew_exponent_parity(max_n: int | None = None, bound: int | None = None) -> Check:
    """Every exponent of every skew witness multiplicity is congruent to
    m-p mod 2 (the degeneration argument at witness level)."""
    top = 8 if max_n is None else max_n
    for space, n, p, s, j in _witness_cases((SKEW, top)):
        m = SPACES[space].rows(n)
        poly = witness_ext_closed(space, n, p, s, j)
        if any((e - (m - p)) % 2 for e in poly.exponents()):
            return False, {"n": n, "p": p, "s": s, "exponents": poly.exponents()}, f"n<={top}"
    return True, None, f"skew n<={top}, all valid (p, s)"


def check_nondegeneracy_witness(max_n: int | None = None, bound: int | None = None) -> Check:
    """(5,5,4) shows up in the Ext character of the symmetric n=3 p=1
    subquotient yet belongs to no simple module's weight set, so it must
    cancel in every assembled local cohomology class."""
    window = 14 if bound is None else bound
    gc = ext_character(SYMM, 3, (2, 2, 0), 1, window)
    seen = any((5, 5, 4) in gc.at(d) for d in gc.degrees())
    if not seen:
        return False, {"missing": [5, 5, 4]}, f"D={window}"
    rejecting = [not member(L, (5, 5, 4)) for L in all_labels(SYMM, 3)]
    if not all(rejecting):
        return False, {"accepted_by": rejecting.index(False)}, "7 labels"
    return True, None, f"window D={window}, all 7 simple labels of n=3"


def check_filtration(max_n: int | None = None, bound: int | None = None) -> Check:
    """Truncated filtration consistency for symm n<=4 and skew n<=6."""
    window = 10 if bound is None else bound
    symm_top = 4 if max_n is None else max_n
    skew_top = 6 if max_n is None else max_n
    for space, n, p, _ in _ranks((SYMM, symm_top), (SKEW, skew_top)):
        rep = filtration_check(space, n, p, window)
        if not rep.ok:
            return False, rep.mismatch, f"{space} n={n} p={p} D={window}"
    return True, None, f"symm n<={symm_top}, skew n<={skew_top}, D={window}"


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

SUITES = ("all", "qseries", "bott", "characters", "ext", "loccoh", "filtration")


@dataclass
class VerifyReport:
    """One line of the verification report."""

    name: str
    params: str
    passed: bool
    counterexample: dict | None
    seconds: float


def _run_one(item: tuple[str, int | None, int | None]) -> VerifyReport:
    name, max_n, bound = item
    fn = CHECKS[name][0]
    t0 = time.perf_counter()
    try:
        passed, counterexample, params = fn(max_n=max_n, bound=bound)
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
    names = [n for n, (_, tag) in CHECKS.items() if suite in ("all", tag)]
    items = [(name, max_n, bound) for name in names]
    if threads > 1 and len(items) > 1:
        # imported here, so a serial run and the CLI never load the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(_run_one, items))
    return [_run_one(item) for item in items]
