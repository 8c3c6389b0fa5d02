"""Command-line front end.

Subcommands: hpq, lcd, ext, bott, character, filtration-check, verify.
All output is deterministic: labels are sorted by index (then flavor) and
polynomial pairs by exponent.  Exit status is 0 on success, 1 on a
verification failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bott import bott
from .characters import (
    SKEW,
    SPACES,
    SYMM,
    SimpleLabel,
    enumerate_members,
    filtration_check,
)
from .cohomology import GENERAL, lcd, support_poly
from .extmult import WITNESS_ROUTES
from .verify import SUITES, run_suite


def _dump(payload) -> None:
    print(json.dumps(payload, separators=(", ", ": ")))


def _add_space(parser: argparse.ArgumentParser, with_general: bool) -> None:
    choices = [GENERAL, SKEW, SYMM] if with_general else [SKEW, SYMM]
    parser.add_argument("--space", required=True, choices=choices)
    parser.add_argument("--n", required=True, type=int)
    if with_general:
        parser.add_argument("--m", type=int, default=None,
                            help="row count, general matrices only (m >= n)")


def _non_negative(text: str) -> int:
    """argparse type for ``--bound``: an int that is at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _check_flavor(args) -> None:
    """Reject a ``--j`` that names no flavor: skew labels and symm s = n
    carry none, and it must not be dropped in silence."""
    if args.j is not None and not SPACES[args.space].flavored(args.n, args.s):
        which = "skew labels carry" if args.space == SKEW else f"the label s = n = {args.n} carries"
        raise ValueError(f"--j applies only to symm with s < n; {which} no flavor")


def _cmd_hpq(args) -> int:
    hp = support_poly(args.space, args.n, args.p, args.m)
    if args.format == "json":
        _dump(hp.to_json_dict())
    elif args.format == "csv":
        print("s,flavor,exponent,coefficient")
        for s in sorted(hp.terms):
            simple = hp.simple_label(s)
            flavor = "" if simple is None or simple.flavor is None else simple.flavor
            for e, c in hp.terms[s].pairs():
                print(f"{s},{flavor},{e},{c}")
    else:
        for s in sorted(hp.terms):
            print(f"D_{s}: {hp.terms[s]}")
    return 0


def _cmd_lcd(args) -> int:
    print(lcd(args.space, args.n, args.p, args.m))
    return 0


def _cmd_ext(args) -> int:
    _check_flavor(args)
    poly = WITNESS_ROUTES[args.route](args.space, args.n, args.p, args.s, args.j)
    _dump([list(pair) for pair in poly.pairs()])
    return 0


def _cmd_bott(args) -> int:
    res = bott(tuple(args.alpha), tuple(args.beta), args.n)
    if res is None:
        _dump({"zero": True})
    else:
        _dump({"zero": False, "degree": res.degree, "weight": list(res.weight)})
    return 0


def _cmd_character(args) -> int:
    _check_flavor(args)
    label = SimpleLabel(args.space, args.n, args.s, args.j)
    _dump([list(w) for w in enumerate_members(label, args.bound)])
    return 0


def _cmd_filtration(args) -> int:
    rep = filtration_check(args.space, args.n, args.p, args.bound)
    _dump({
        "ok": rep.ok,
        "space": rep.space, "n": rep.n, "p": rep.p, "bound": rep.bound,
        "layers": [list(z) for z in rep.layers],
        "mismatch": rep.mismatch,
    })
    return 0 if rep.ok else 1


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.max_n, args.bound, args.threads)
    failed = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status}  {rep.name}  [{rep.params}]  ({rep.seconds:.2f}s)")
        if not rep.passed:
            failed += 1
            print("      counterexample:", json.dumps(rep.counterexample))
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccoh",
        description="Composition multiplicities of local cohomology with "
                    "determinantal and Pfaffian support, plus the supporting "
                    "Grassmannian cohomology and q-series combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hpq", help="local cohomology classes along the rank-p locus")
    _add_space(p, with_general=True)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--format", choices=["json", "table", "csv"], default="json")
    p.set_defaults(fn=_cmd_hpq)

    p = sub.add_parser("lcd", help="local cohomological dimension")
    _add_space(p, with_general=True)
    p.add_argument("--p", required=True, type=int)
    p.set_defaults(fn=_cmd_lcd)

    p = sub.add_parser(
        "ext",
        help="witness multiplicity inside Ext(J_p, S); the Ext machinery "
             "covers skew/symm matrices (general matrices have only the "
             "closed hpq/lcd displays here)",
    )
    _add_space(p, with_general=False)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--j", type=int, default=None, choices=[1, 2],
                   help="flavor, symmetric case with s < n")
    p.add_argument("--route", choices=list(WITNESS_ROUTES), default="closed")
    p.set_defaults(fn=_cmd_ext)

    p = sub.add_parser("bott", help="cohomology of S_beta(R) (x) S_alpha(Q) on G(k, V)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--alpha", required=True, type=int, nargs="*",
                   help="dominant weight of rank k (may be empty)")
    p.add_argument("--beta", required=True, type=int, nargs="*",
                   help="dominant weight of rank n-k (may be empty)")
    p.set_defaults(fn=_cmd_bott)

    p = sub.add_parser("character", help="list a simple module's weight set")
    _add_space(p, with_general=False)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--j", type=int, default=None, choices=[1, 2],
                   help="flavor, symmetric case with s < n")
    p.add_argument("--bound", required=True, type=_non_negative,
                   help="list weights with every |entry| <= bound")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("filtration-check", help="truncated filtration consistency")
    _add_space(p, with_general=False)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--bound", required=True, type=_non_negative)
    p.set_defaults(fn=_cmd_filtration)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=list(SUITES), default="all")
    p.add_argument("--max-n", dest="max_n", type=int, default=None,
                   help="override the sweep ceilings")
    p.add_argument("--bound", type=int, default=None,
                   help="override the truncation windows")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for independent checks (default: 1)")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and then reused: it
    holds no per-call state, as ``parse_args`` returns a new namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", None) is not None and len(args.alpha) != args.k:
        parser.error(f"--alpha must have exactly k={args.k} entries")
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
