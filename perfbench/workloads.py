"""The three workloads, each a list of operations built from a seed.

An operation is ``Op(kind, call, check, key)``: ``call()`` is the timed
request into the library, ``check(result)`` verifies its output once every
operation of the pass has run, and ``key`` names its inputs, so repeats can be
counted.  Every library function is looked up on the ``loccoh``
modules at call time, so the tracer's wrappers see the benchmark's own
calls as well as the library's internal ones.

* ``verify-all``: one serial ``run_suite("all")`` at the acceptance ranges,
  the end-to-end run the project documents; 95% of it is the Bott sweep.
  It has no random inputs, so the seed does not change it.
* ``oracle-routes``: a seeded shuffle of a fixed list of enumeration and
  sheaf-cohomology oracle calls, each checked against a closed form.  No
  input repeats, so a cache cannot help.
* ``query-mix``: a closed loop of one client sending ``QUERIES_PER_SECOND``
  x ``--seconds`` small closed-form requests drawn from a finite parameter
  space, so some repeat, in an order the seed chooses.  It never
  enumerates.

The request mix is synthetic: no recorded usage exists.  Each of the seven
request kinds gets the same share, and every size is drawn uniformly up to
``MAX_QUERY_N``; see ``query_mix``.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stdout
from math import comb
from typing import Any, Callable, NamedTuple

import loccoh as L
from loccoh import cli
from loccoh.characters import GENERAL, SKEW, SYMM

# sized so that a run's raw work lasts about --seconds on a 2-vCPU host
QUERIES_PER_SECOND = 2000
MIN_QUERIES = 1000
MAX_QUERY_N = 16
QUERY_POOL_SEED = 1509
QUERY_KINDS = ("hpq_json", "hpq_cli", "lcd", "top_support", "from_ext", "bott", "member")
# share of bott requests whose alpha is one that trivial_isotypic or
# wedge_isotypic predicts; uniform alphas almost never are, and then the
# predicate cross-check would almost never run
PREDICTED_ALPHA_SHARE = 0.5


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    key: tuple


def sweep_pairs(top: int) -> int:
    """(alpha, beta) pairs the Bott sweep visits for n <= top: beta in the
    (n-k) x (k+2) box, alpha dominant of rank k with entries in [-n-2, n+2]."""
    return sum(
        comb(n + 2, n - k) * comb(k + 2 * n + 4, k)
        for n in range(1, top + 1) for k in range(1, n + 1)
    )


SWEEP_PAIRS = sweep_pairs(7)
_PAIRS_RE = re.compile(r"\((\d+) pairs\)")


def reported_pairs(reports) -> int | None:
    """Pair count the Bott sweep states in its report, if it ran."""
    for rep in reports:
        if rep.name == "bott-predicate-agreement":
            found = _PAIRS_RE.search(rep.params)
            return int(found.group(1)) if found else None
    return None


def warm_up() -> None:
    """Set-up work before timing: one small call into most layers, so the
    interpreter has run each code path once.  Every input lies outside
    what any workload computes (n = 17 is above query-mix's sizes, symm
    n = 10 above oracle-routes' and the verify suite's), so a cache could
    not carry warm-up work into a timed call.  Small partitions and Bott
    pairs are shared by every computation and cannot be avoided."""
    L.support_poly(GENERAL, 17, 1, 17)
    L.support_poly_from_ext(SKEW, 17, 1)
    L.support_poly_from_ext(SYMM, 10, 1, route="enum")
    L.lcd(SYMM, 17, 2)
    L.top_support(SKEW, 17, 2)
    L.bott((40,), (0,) * 12, 13)
    L.gauss_enum(18, 2)
    for fn in (L.witness_ext_closed, L.witness_ext_enum, L.witness_ext_bott):
        fn(SYMM, 10, 9, 10)
    L.ext_character(SYMM, 5, (2, 2, 0, 0, 0), 1, 8)
    L.filtration_check(SKEW, 8, 3, 4)
    L.member(L.SimpleLabel(SYMM, 17, 1, 2), L.witness_weight(L.SimpleLabel(SYMM, 17, 2, 1)))
    with redirect_stdout(io.StringIO()):
        cli.main(["hpq", "--space", "symm", "--n", "17", "--p", "1"])


# -- verify-all -------------------------------------------------------------

def _check_suite(reports) -> bool:
    return (
        len(reports) == len({rep.name for rep in reports}) > 0
        and all(rep.passed for rep in reports)
        and reported_pairs(reports) == SWEEP_PAIRS
    )


def verify_all(seed: int, seconds: int) -> list[Op]:
    return [Op("run_suite", lambda: L.run_suite("all", threads=1), _check_suite, ("all",))]


# -- oracle-routes -----------------------------------------------------------

def witness_cases(skew_top: int, symm_top: int):
    """Every valid witness index (space, n, p, s, flavor)."""
    for n in range(2, skew_top + 1):
        m = n // 2
        for p in range(m):
            for s in range(m + 1):
                yield SKEW, n, p, s, None
    for n in range(1, symm_top + 1):
        for p in range(n):
            for s in range(n - p, n + 1):
                for j in ((1, 2) if s < n else (None,)):
                    yield SYMM, n, p, s, j


def witness_via_ext_character(space: str, n: int, p: int, s: int, j: int | None):
    """The witness multiplicity inside Ext(J_p, S), summed layer by layer
    from full ``ext_character`` windows (the layers are those the Bott
    route sweeps: top value d up to two beyond the forced one)."""
    label = L.SimpleLabel(space, n, s) if space == SKEW else L.SimpleLabel(
        SYMM, n, s, None if s == n else j)
    target = L.witness_weight(label)
    if space == SKEW:
        forced, tail_len = 2 * s + 2 * p - n + 1, n // 2 - p - 1
    else:
        forced, tail_len = ((s + p - n) // 2 if (s + p - n) % 2 == 0 else 0), n - p - 1
    shape = L.duplicated if space == SKEW else L.doubled
    total = L.LaurentPoly.zero()
    for d in range(max(forced, 0) + 3):
        for tail in L.enumerate_box(tail_len, d):
            y = L.partition((d,) * (p + 1) + tail + (0,) * (tail_len - len(tail)))
            x = shape(y)
            x = x + (0,) * (n - len(x))
            try:
                gc = L.ext_character(space, n, x, p, sum(target))
            except ValueError:
                # the window lies above every output of this layer
                continue
            for degree in gc.degrees():
                mult = gc.multiplicity(degree, target)
                if mult:
                    total = total + L.LaurentPoly.q(degree, mult)
    return total


def _witness_op(route: str, case) -> Op:
    if route == "closed":
        def check(got, case=case):
            return got == L.witness_ext_enum(*case)
    else:
        def check(got, case=case):
            return got == L.witness_ext_closed(*case)
    fn_name = f"witness_ext_{route}"
    return Op(fn_name, lambda: getattr(L, fn_name)(*case), check, (fn_name, case))


def oracle_routes(seed: int, seconds: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_witness_op(route, case)
           for case in witness_cases(12, 9) for route in ("closed", "enum", "bott")]
    boxes = [(a, b) for a in range(17) for b in range(a + 1)] + [(20, 10)]
    for a, b in boxes:
        v = rng.choice((1, 2, 4, -4))
        ops.append(Op("gauss_enum", lambda a=a, b=b, v=v: L.gauss_enum(a, b, v),
                      lambda got, a=a, b=b, v=v: got == L.gauss(a, b, v), ("gauss_enum", a, b, v)))
    example = Counter({(5, 5, 4): 1})
    for window in (16, 18, 20, 22, 24):
        ops.append(Op("ext_character",
                      lambda w=window: L.ext_character(SYMM, 3, (2, 2, 0), 1, w),
                      lambda got: got.at(4) == example, ("ext_character", window)))
    for case in witness_cases(7, 4):
        ops.append(Op("ext_character_witness",
                      lambda case=case: witness_via_ext_character(*case),
                      lambda got, case=case: got == L.witness_ext_closed(*case),
                      ("ext_character_witness", case)))
    for window in (12, 14):
        for space, top in ((SYMM, 4), (SKEW, 6)):
            for n in range(1, top + 1):
                rows = n if space == SYMM else n // 2
                for p in range(rows):
                    args = (space, n, p, window)
                    ops.append(Op("filtration_check", lambda args=args: L.filtration_check(*args),
                                  lambda got: got.ok and bool(got.layers), ("filtration_check", args)))
    rng.shuffle(ops)
    return ops


# -- query-mix ---------------------------------------------------------------

def _space_params(rng: random.Random, spaces=(GENERAL, SKEW, SYMM)):
    space = rng.choice(spaces)
    if space == GENERAL:
        n = rng.randint(1, MAX_QUERY_N)
        return space, n, rng.randrange(n), rng.randint(n, MAX_QUERY_N)
    if space == SKEW:
        n = rng.randint(2, MAX_QUERY_N)
        return space, n, rng.randrange(n // 2), None
    n = rng.randint(1, MAX_QUERY_N)
    return space, n, rng.randrange(n), None


def _check_hpq_json(space, n, p, m, got: dict) -> bool:
    """skew/symm against the Ext assembly; general matrices against the
    codimension and the one-line lcd formula."""
    if space != GENERAL:
        return got == L.support_poly_from_ext(space, n, p, "closed").to_json_dict()
    codim = (m - p) * (n - p)
    terms = got["terms"]
    exponents = [e for t in terms for e, _ in t["poly"]]
    return (
        (got["space"], got["n"], got["p"], got["m"]) == (space, n, p, m)
        and [t["label"]["s"] for t in terms] == list(range(p + 1))
        and terms[p]["poly"] == [[codim, 1]]
        and min(exponents) == codim
        and max(exponents) == L.lcd_closed_form(space, n, p, m)
    )


def _check_top_support(space, n, p, m, got: list) -> bool:
    if space == GENERAL:
        terms = L.support_poly(space, n, p, m).terms
    else:
        terms = L.support_poly_from_ext(space, n, p, "closed").terms
    top = L.lcd_closed_form(space, n, p, m)
    return got == sorted(s for s, t in terms.items() if t.top_degree() == top)


def bott_reference(alpha, beta, n):
    """Bott's algorithm written out directly: (degree, weight) or None."""
    gamma = tuple(alpha) + tuple(beta)
    c = [g + n - 1 - i for i, g in enumerate(gamma)]
    if len(set(c)) < n:
        return None
    degree = sum(1 for x in range(n) for y in range(x + 1, n) if c[x] < c[y])
    c.sort(reverse=True)
    return degree, tuple(v - (n - 1 - i) for i, v in enumerate(c))


def _predicate_alphas(beta, k, n) -> dict[tuple, tuple]:
    """alpha -> (degree, weight) that trivial_isotypic / wedge_isotypic
    predict for this beta, where they apply."""
    out = {}
    poly, alpha = L.trivial_isotypic(beta, k, n)
    if alpha is not None:
        out[alpha] = (poly.top_degree(), (0,) * n)
    for s in range(n - k, n):
        if all(b >= n - s for b in beta):
            poly, alpha = L.wedge_isotypic(beta, k, n, s)
            if alpha is not None:
                out[alpha] = (poly.top_degree(), (0,) * s + (-1,) * (n - s))
    return out


def _bott_request(rng: random.Random):
    """A pair from the verify sweep's pair space (see sweep_pairs), with n
    up to MAX_QUERY_N."""
    n = rng.randint(1, MAX_QUERY_N)
    k = rng.randint(0, n)
    beta = tuple(sorted((rng.randint(0, k + 2) for _ in range(n - k)), reverse=True))
    predicted = _predicate_alphas(beta, k, n)
    if predicted and rng.random() < PREDICTED_ALPHA_SHARE:
        alpha = rng.choice(sorted(predicted))
    else:
        alpha = tuple(sorted((rng.randint(-n - 2, n + 2) for _ in range(k)), reverse=True))
    # trivial and wedge weights whose predicate applies to this beta
    applicable = {(0,) * s + (-1,) * (n - s)
                  for s in range(n - k, n + 1) if all(b >= n - s for b in beta)}

    def check(got):
        ref = bott_reference(alpha, beta, n)
        got_pair = None if got is None else (got.degree, got.weight)
        if got_pair != ref:
            return False
        if alpha in predicted:
            return got_pair == predicted[alpha]
        # only the predicted alphas may land on an applicable weight
        return got_pair is None or got_pair[1] not in applicable

    return Op("bott", lambda: L.bott(alpha, beta, n), check, ("bott", alpha, beta, n))


def _member_request(rng: random.Random):
    space = rng.choice((SKEW, SYMM))
    labels = L.all_labels(space, rng.randint(1, MAX_QUERY_N))
    a, b = rng.choice(labels), rng.choice(labels)
    return Op("member", lambda: L.member(a, L.witness_weight(b)),
              lambda got: got is (a == b), ("member", a, b))


def _cli_hpq(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"exit status {status}")
    return buf.getvalue()


def _query(rng: random.Random) -> Op:
    kind = rng.choice(QUERY_KINDS)
    if kind == "bott":
        return _bott_request(rng)
    if kind == "member":
        return _member_request(rng)
    if kind == "from_ext":
        space, n, p, m = _space_params(rng, (SKEW, SYMM))
        return Op(kind, lambda: L.support_poly_from_ext(space, n, p, "closed"),
                  lambda got: got.terms == L.support_poly(space, n, p).terms,
                  (kind, space, n, p))
    space, n, p, m = _space_params(rng)
    key = (kind, space, n, p, m)
    if kind == "hpq_json":
        return Op(kind, lambda: json.dumps(L.support_poly(space, n, p, m).to_json_dict()),
                  lambda got: _check_hpq_json(space, n, p, m, json.loads(got)), key)
    if kind == "hpq_cli":
        argv = ["hpq", "--space", space, "--n", str(n), "--p", str(p), "--format", "json"]
        if m is not None:
            argv += ["--m", str(m)]
        return Op(kind, lambda: _cli_hpq(argv),
                  lambda got: _check_hpq_json(space, n, p, m, json.loads(got)), key)
    if kind == "lcd":
        return Op(kind, lambda: L.lcd(space, n, p, m),
                  lambda got: got == L.lcd_closed_form(space, n, p, m), key)
    return Op(kind, lambda: L.top_support(space, n, p, m),
              lambda got: _check_top_support(space, n, p, m, got), key)


def query_mix(seed: int, seconds: int) -> list[Op]:
    """A seeded order of a fixed multiset of requests.  The multiset is
    drawn once from the finite parameter space (so some requests repeat);
    the seed only orders it.  Drawing the multiset from the seed as well
    made the work per run vary by +-10% between seeds, because a few
    requests (cli, general n near 16) cost a hundred times the median.

    Each kind in QUERY_KINDS is equally likely; space, n, p and general m
    (n <= m <= MAX_QUERY_N) are uniform.  These are synthetic choices, not
    measured traffic: equal shares favour no layer over another."""
    pool = random.Random(QUERY_POOL_SEED)
    ops = [_query(pool) for _ in range(max(MIN_QUERIES, QUERIES_PER_SECOND * seconds))]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOAD_OPS = {"verify-all": verify_all, "oracle-routes": oracle_routes, "query-mix": query_mix}
WORKLOADS = tuple(WORKLOAD_OPS)


def build(workload: str, seed: int, seconds: int) -> list[Op]:
    return WORKLOAD_OPS[workload](seed, seconds)


def repeat_share(ops: list[Op]) -> float:
    """Share of operations whose inputs already occurred earlier in the run."""
    seen: set = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats / len(ops)
