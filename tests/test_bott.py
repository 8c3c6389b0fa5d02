"""The Bott algorithm and its closed-form isotypic predicates."""

import importlib
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import loccoh.verify as verify_mod
from loccoh.bott import (
    BottCohomology,
    bott,
    bott_kernel,
    bott_preimage,
    bott_span_summary,
    shifted,
    trivial_isotypic,
    unshifted,
    wedge_isotypic,
)
from loccoh.partitions import enumerate_box, enumerate_weights, padded, size
from loccoh.qseries import LaurentPoly

# the package exports a function named bott, which hides the module
bott_module = importlib.import_module("loccoh.bott")


def test_symmetric_square_of_subbundle_on_p2():
    # H^1(P^2, Sym^2 R) is the second wedge of the ambient space
    res = bott((0,), (2, 0), 3)
    assert res is not None
    assert res.degree == 1 and res.weight == (1, 1, 0)


def test_repeated_entry_kills_cohomology():
    assert bott((0,), (1, 0), 3) is None


def test_trivial_bundle_has_global_sections_only():
    for k, n in [(1, 3), (2, 4), (3, 3)]:
        res = bott((0,) * k, (0,) * (n - k), n)
        assert res.degree == 0 and res.weight == (0,) * n


def test_extreme_ranks():
    res = bott((), (3, 1, 0), 3)
    assert res.degree == 0 and res.weight == (3, 1, 0)
    res = bott((2, 1, -1), (), 3)
    assert res.degree == 0 and res.weight == (2, 1, -1)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        bott((0, 0), (0, 0), 3)
    with pytest.raises(ValueError):
        bott((1, 2), (0,), 3)  # not dominant


def test_degree_bounded_by_grassmannian_dimension():
    for n in range(1, 6):
        for k in range(n + 1):
            for alpha in enumerate_weights(k, -2, 2):
                for beta in enumerate_weights(n - k, -2, 2):
                    res = bott(alpha, beta, n)
                    if res is not None:
                        assert 0 <= res.degree <= k * (n - k)
                        assert sum(res.weight) == sum(alpha) + sum(beta)


def test_serre_duality():
    # H^i(G, E) is dual to H^(dim-i)(G, E* (x) omega) with
    # omega = det(R)^k (x) det(Q)^(k-n): an independent consistency check
    # of the whole algorithm
    from loccoh.partitions import dual

    for n in range(1, 6):
        for k in range(n + 1):
            dim = k * (n - k)
            for alpha in enumerate_weights(k, -3, 3):
                for beta in enumerate_weights(n - k, -3, 3):
                    twisted_alpha = tuple(a + (k - n) for a in dual(alpha))
                    twisted_beta = tuple(b + k for b in dual(beta))
                    res = bott(alpha, beta, n)
                    res_dual = bott(twisted_alpha, twisted_beta, n)
                    assert (res is None) == (res_dual is None)
                    if res is not None:
                        assert res_dual.degree == dim - res.degree
                        assert res_dual.weight == dual(res.weight)


def test_trivial_isotypic_examples():
    poly, alpha = trivial_isotypic((2, 1), 2, 4)
    assert poly == LaurentPoly.q(3) and alpha == (-1, -2)
    res = bott(alpha, (2, 1), 4)
    assert res.weight == (0, 0, 0, 0) and res.degree == 3

    poly, alpha = trivial_isotypic((3, 0), 2, 4)  # box violation
    assert poly.is_zero and alpha is None

    poly, alpha = trivial_isotypic((), 1, 3)
    assert poly == 1 and alpha == (0,)


def test_wedge_isotypic_example():
    poly, alpha = wedge_isotypic((2, 2), 2, 4, 3)
    assert poly == LaurentPoly.q(4) and alpha == (-2, -3)
    res = bott(alpha, (2, 2), 4)
    assert res.weight == (0, 0, 0, -1) and res.degree == 4


def test_wedge_isotypic_precondition_violations():
    with pytest.raises(ValueError):
        wedge_isotypic((2, 2), 2, 4, 1)  # s < n-k
    with pytest.raises(ValueError):
        wedge_isotypic((1, 0), 2, 4, 3)  # beta_i < n-s
    with pytest.raises(ValueError):
        trivial_isotypic((1, 1, 1), 2, 4)  # too many parts


def test_wedge_with_s_equal_n_is_trivial():
    # the 2 x 3 box at k = 2, n = 4: q^|beta| and dual(beta'), or zero once
    # beta_1 exceeds k; wedge_isotypic at s = n gives the trivial answer
    zero = (LaurentPoly.zero(), None)
    expected = {
        (3, 3): zero, (3, 2): zero, (3, 1): zero, (3,): zero,
        (2, 2): (LaurentPoly.q(4), (-2, -2)), (2, 1): (LaurentPoly.q(3), (-1, -2)),
        (2,): (LaurentPoly.q(2), (-1, -1)), (1, 1): (LaurentPoly.q(2), (0, -2)),
        (1,): (LaurentPoly.q(1), (0, -1)), (): (LaurentPoly.q(0), (0, 0)),
    }
    box = list(enumerate_box(2, 3))
    assert {beta: wedge_isotypic(beta, 2, 4, 4) for beta in box} == expected
    assert {beta: trivial_isotypic(beta, 2, 4) for beta in box} == expected


def test_predicate_against_algorithm_small():
    # every hit of the trivial weight is the predicate's (alpha, beta), n<=4
    for n in range(1, 5):
        for k in range(1, n + 1):
            for beta in enumerate_box(n - k, k + 2):
                poly, alpha_pred = trivial_isotypic(beta, k, n)
                for alpha in enumerate_weights(k, -n - 2, n + 2):
                    res = bott(alpha, padded(beta, n - k), n)
                    hit = res is not None and res.weight == (0,) * n
                    assert hit == (not poly.is_zero and alpha == alpha_pred)
                    if hit:
                        assert res.degree == size(beta)


def test_kernel_batch_matches_bott():
    # one tail against a whole batch of heads equals the public bott, pair
    # by pair, and both equal sort-and-count written out directly; n<=6
    for n in range(1, 7):
        for k in range(n + 1):
            alphas = list(enumerate_weights(k, -3, 3))
            for beta in enumerate_weights(n - k, -3, 3):
                batch = bott_kernel(shifted(beta, n - k), (shifted(a, n) for a in alphas))
                for alpha, res in zip(alphas, batch, strict=True):
                    single = bott(alpha, beta, n)
                    c = [g + n - 1 - i for i, g in enumerate(alpha + beta)]
                    if len(set(c)) < n:
                        assert res is None and single is None
                        continue
                    degree = sum(1 for x in range(n) for y in range(x + 1, n) if c[x] < c[y])
                    assert res == (degree, tuple(sorted(c, reverse=True)))
                    assert single == BottCohomology(degree, unshifted(res[1]))


def test_span_summary_matches_the_drained_kernel():
    # bott_span_summary against the kernel drained over every k-subset of
    # contiguous and non-contiguous spans of length 0-12: k = 1 runs the
    # kernel on whole heads, larger k splits each head into a prefix, one
    # pivot entry and a suffix of k // 2 entries, and k = len(span) + 1 has
    # no heads.  The targets
    # are outcomes of up to three drawn heads, so hits occur, and one that
    # no head reaches; the verify sweep's closed-form degree tally agrees
    rng = random.Random(1718)
    pick = random.Random(19)
    spans = [range(lo + length - 1, lo - 1, -1) for length, lo in zip(range(13), range(-6, 7))]
    spans += [tuple(sorted(rng.sample(range(-9, 21), length), reverse=True))
              for length in range(13)]
    for span in spans:
        entries = list(span)
        gaps = [v for v in range(-12, 24) if v not in entries]
        tails = [
            (),
            # inside the span, outside it, and both
            tuple(sorted(rng.sample(entries, min(3, len(entries))), reverse=True)),
            tuple(sorted(rng.sample(gaps, 4), reverse=True)),
            tuple(sorted(rng.sample(entries[:2] + gaps, 5), reverse=True)),
        ]
        # an entry equal to each possible pivot h (a suffix has at least
        # one entry below it), which is then not free, beside one entry off
        # the span
        tails += [tuple(sorted({h, rng.choice(gaps)}, reverse=True)) for h in entries[:-1]]
        for tail in tails:
            for k in range(len(span) + 2):
                heads = list(combinations(span, k))
                free = [(head, res) for head, res in zip(heads, bott_kernel(tail, heads))
                        if res is not None]
                targets = [res[1] for _, res in pick.sample(free, min(3, len(free)))]
                # entries off every span and tail
                targets.append(tuple(range(99, 99 - k - len(tail), -1)) or (99,))
                tally = Counter(res[0] for _, res in free)
                reached = {res[1]: (res[0], head) for head, res in free if res[1] in targets}
                assert bott_span_summary(tail, span, k, targets) == (
                    len(heads), tally, reached), (tail, span, k)
                assert verify_mod._degree_tally(tail, span, k) == tally, (tail, span, k)


def test_degree_tally_counts_every_head_off_the_tail():
    # at every beta of the verify sweep, n<=7, the closed-form tally sums to
    # the k-subsets of the span off the tail, comb(n+2k+4, k) since every
    # tail lies in the span; so the sweep's tally comparison also fixes the
    # number of nonzero outcomes
    for n in range(1, 8):
        for k in range(1, n + 1):
            span = range(2 * n + 1, -k - 3, -1)
            for beta in enumerate_box(n - k, k + 2):
                tail = shifted(padded(beta, n - k), n - k)
                assert set(tail) <= set(span)
                assert verify_mod._degree_tally(tail, span, k).total() == comb(n + 2 * k + 4, k)


def test_span_summary_drains_one_outcome_per_piece(monkeypatch):
    # at the verify sweep's spans and tails, n<=5, the summary drains one
    # kernel outcome per suffix of m = k // 2 entries (m = k = 1 keeps the
    # head whole), one per pivot and one per prefix of j = k - m - 1
    # entries above the lowest pivot (the empty prefix of k = 2 runs no
    # kernel), and no more; at n<=4 it equals the drained kernel, with the
    # sweep's own targets
    drained = 0

    def counting(tail, heads):
        nonlocal drained
        for outcome in bott_kernel(tail, heads):
            drained += 1
            yield outcome

    monkeypatch.setattr(bott_module, "bott_kernel", counting)
    for n in range(1, 6):
        for k in range(1, n + 1):
            span = range(2 * n + 1, -k - 3, -1)
            m = k // 2 or k
            j = k - m - 1
            expected = comb(len(span), m)
            if k > m:
                expected += len(span) - m - j + (comb(len(span) - m - 1, j) if j else 0)
            targets = [shifted((0,) * s + (-1,) * (n - s), n) for s in range(n - k, n + 1)]
            for beta in enumerate_box(n - k, k + 2):
                tail = shifted(padded(beta, n - k), n - k)
                drained = 0
                summary = bott_span_summary(tail, span, k, targets)
                assert drained == expected, (n, k, beta)
                if n > 4:
                    continue
                heads = list(combinations(span, k))
                free = [(head, res) for head, res in zip(heads, bott_kernel(tail, heads))
                        if res is not None]
                assert summary == (len(heads), Counter(res[0] for _, res in free),
                                   {res[1]: (res[0], head) for head, res in free
                                    if res[1] in targets}), (n, k, beta)


def test_preimage_inverts_the_kernel():
    # over random strictly decreasing tails and targets, n<=8, entries in
    # [-6, 12], bott_preimage names a head exactly when some head in that
    # range makes the kernel yield the target, and with the same degree
    rng = random.Random(2015)
    span = range(12, -7, -1)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        k = rng.randint(0, min(n, 5))
        target = tuple(sorted(rng.sample(span, n), reverse=True))
        # most tails lie inside the target, the rest anywhere in the range
        pool = target if rng.random() < 0.8 else span
        tail = tuple(sorted(rng.sample(pool, n - k), reverse=True))
        heads = list(combinations(span, k))
        hits = [
            (res[0], head)
            for head, res in zip(heads, bott_kernel(tail, heads), strict=True)
            if res is not None and res[1] == target
        ]
        assert len(hits) <= 1
        assert bott_preimage(tail, target) == (hits[0] if hits else None), (tail, target)
        found += bool(hits)
    assert 100 < found < 300
