"""Pin what ``loccoh verify`` answers: run ``loccoh.cli.main`` in-process
over a fixed grid of arguments and write ``tests/data/answers.jsonl``, one
compact ``[argv, exit status, stdout]`` line per run, with the seconds of
each report line masked.

    PYTHONPATH=src python3 tools/answers.py

``tests/test_answers.py`` regenerates the grid and compares it with the
file line by line.  Rewrite the file only with a change that means to
change an answer, and list each changed line with its reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from loccoh.cli import main
from loccoh.characters import GENERAL, SKEW, SYMM
from loccoh.extmult import WITNESS_ROUTES
from loccoh.verify import SUITES, _ranks, _witness_cases

PATH = Path(__file__).resolve().parents[1] / "tests" / "data" / "answers.jsonl"
SECONDS = re.compile(r"\(\d+\.\d+s\)$", re.MULTILINE)


def _option(flag: str, value: int | None) -> list[str]:
    return [] if value is None else [flag, str(value)]


def grid() -> list[list[str]]:
    """Every ``--max-n`` up to 6 on the whole suite, the windows around the
    worked example's weight size 14, each named suite at ``--max-n 2``;
    ``lcd`` at every rank with n, m <= 12, and ``ext`` on every route at
    every witness index of ``verify``'s ranges (skew n <= 8, symm n <= 7);
    ``hpq`` as a table at every rank with n, m <= 12, and in json and csv
    at every rank with n, m <= 4."""
    return ([["verify", "--max-n", str(k)] for k in range(1, 7)]
            + [["verify", "--max-n", "3", "--bound", str(b)] for b in (13, 14, 20)]
            + [["verify", "--suite", s, "--max-n", "2"] for s in SUITES if s != "all"]
            + [["lcd", "--space", space, "--n", str(n), *_option("--m", m), "--p", str(p)]
               for space, n, p, m in _ranks((GENERAL, 12), (SKEW, 12), (SYMM, 12))]
            + [["ext", "--space", space, "--n", str(n), "--p", str(p), "--s", str(s),
                *_option("--j", j), "--route", route]
               for space, n, p, s, j in _witness_cases((SKEW, 8), (SYMM, 7))
               for route in WITNESS_ROUTES]
            + [["hpq", "--space", space, "--n", str(n), *_option("--m", m), "--p", str(p),
                "--format", form]
               for form, top in (("table", 12), ("json", 4), ("csv", 4))
               for space, n, p, m in _ranks((GENERAL, top), (SKEW, top), (SYMM, top))])


def answer(argv: list[str]) -> str:
    """One line of the file: argv, exit status and masked stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return json.dumps([argv, status, SECONDS.sub("(s)", out.getvalue())])


if __name__ == "__main__":
    PATH.write_text("".join(answer(argv) + "\n" for argv in grid()))
