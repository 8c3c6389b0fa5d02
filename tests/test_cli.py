"""Command-line interface: outputs, determinism, exit codes."""

import functools
import inspect
import json
import os
import subprocess
import sys

import pytest

import loccoh
import loccoh.cli as cli
from loccoh.cli import main
import loccoh.verify as verify_mod


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_hpq_json(capsys):
    code, out = run(capsys, "hpq", "--space", "symm", "--n", "3", "--p", "1",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "space": "symm", "n": 3, "p": 1,
        "terms": [{"label": {"s": 1, "flavor": 2}, "poly": [[3, 1]]}],
    }


def test_hpq_table_and_csv(capsys):
    code, out = run(capsys, "hpq", "--space", "skew", "--n", "5", "--p", "1",
                    "--format", "table")
    assert code == 0 and out == "D_0: q^5\nD_1: q^3\n"
    code, out = run(capsys, "hpq", "--space", "skew", "--n", "5", "--p", "1",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["s,flavor,exponent,coefficient", "0,,5,1", "1,,3,1"]


def test_lcd(capsys):
    code, out = run(capsys, "lcd", "--space", "general", "--m", "4", "--n", "3", "--p", "1")
    assert code == 0 and out.strip() == "9"
    code, out = run(capsys, "lcd", "--space", "skew", "--n", "9", "--p", "3")
    assert code == 0 and out.strip() == "9"  # C(9,2) - C(8,2) + 1


def test_bott(capsys):
    code, out = run(capsys, "bott", "--n", "3", "--k", "1",
                    "--alpha", "0", "--beta", "2", "0")
    assert code == 0
    assert json.loads(out) == {"zero": False, "degree": 1, "weight": [1, 1, 0]}
    code, out = run(capsys, "bott", "--n", "3", "--k", "1",
                    "--alpha", "0", "--beta", "1", "0")
    assert json.loads(out) == {"zero": True}


def test_bott_negative_entries(capsys):
    code, out = run(capsys, "bott", "--n", "4", "--k", "2",
                    "--alpha", "-1", "-2", "--beta", "2", "1")
    assert json.loads(out) == {"zero": False, "degree": 3, "weight": [0, 0, 0, 0]}


def test_ext_routes_agree(capsys):
    outputs = set()
    for route in ("closed", "enum", "bott"):
        code, out = run(capsys, "ext", "--space", "symm", "--n", "3", "--p", "1",
                        "--s", "2", "--j", "2", "--route", route)
        assert code == 0
        outputs.add(out)
    assert outputs == {"[[3, 1]]\n"}


def test_character(capsys):
    code, out = run(capsys, "character", "--space", "symm", "--n", "3",
                    "--s", "2", "--j", "2", "--bound", "4")
    assert code == 0
    assert json.loads(out) == [[3, 3, 2], [3, 3, 0], [3, 3, -2], [3, 3, -4]]


def test_filtration_check(capsys):
    code, out = run(capsys, "filtration-check", "--space", "skew", "--n", "6",
                    "--p", "1", "--bound", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["mismatch"] is None
    assert payload["layers"][0] == []


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "qseries")
    assert code == 0
    assert out.startswith("PASS  gauss-identities")
    assert "1/1 checks passed" in out


def test_verify_scaled_down(capsys):
    code, out = run(capsys, "verify", "--suite", "filtration", "--max-n", "3",
                    "--bound", "8")
    assert code == 0 and "1/1 checks passed" in out


def test_verify_rejects_non_positive_ranges(capsys):
    # an explicit 0 must not fall back to the default range
    for option in ("--max-n", "--bound", "--threads"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "qseries", option, "0"])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("check,option,least", [
    ("example-reproduction", "--bound", 14),  # the size of the example weight (5,5,4)
    ("skew-exponent-parity", "--max-n", 2),  # skew n = 1 has no rank
])
def test_verify_rejects_a_range_below_a_checks_minimum(capsys, check, option, least):
    # one below the minimum exits 2 before any check runs; at it, the check passes
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "ext", option, str(least - 1)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"must be at least {least} for {check}, got {least - 1}" in err
    code, out = run(capsys, "verify", "--suite", "ext", option, str(least))
    assert code == 0 and f"PASS  {check}  [" in out


@pytest.mark.parametrize("name,value", [
    ("max_n", True), ("max_n", 2.5), ("bound", 8.0), ("threads", None), ("threads", 1.0),
])
def test_run_suite_rejects_non_int_ranges_by_name(name, value):
    # a bool or float range is not coerced into a sweep ceiling
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        verify_mod.run_suite("qseries", **{name: value})


def test_every_check_range_is_one_the_rule_names():
    # a range with another name, or with no default, would ignore --max-n
    for name, (fn, _) in verify_mod.CHECKS.items():
        for param in inspect.signature(fn).parameters.values():
            assert param.default is not param.empty, (name, param.name)
            assert param.name in ("max_a", "bound") or param.name.endswith("_n"), (name, param.name)


def test_run_suite_hands_max_n_to_every_ceiling_and_bound_to_every_window(monkeypatch):
    seen = {}

    def recorder(name, fn):
        @functools.wraps(fn)  # the rule reads fn's signature through __wrapped__
        def record(**ranges):
            seen[name] = ranges
            return True, None, ""
        return record

    for name, (fn, tag) in list(verify_mod.CHECKS.items()):
        monkeypatch.setitem(verify_mod.CHECKS, name, (recorder(name, fn), tag))
    verify_mod.run_suite()
    assert seen == dict.fromkeys(verify_mod.CHECKS, {})
    verify_mod.run_suite(max_n=3, bound=14)
    assert seen == {
        "gauss-identities": {},
        "bott-predicate-agreement": {"max_n": 3},
        "example-reproduction": {"bound": 14},
        "ext-triple-agreement": {"skew_n": 3, "symm_n": 3},
        "assembly-agreement": {"general_n": 3, "skew_n": 3, "symm_n": 3},
        "lcd-closed-forms": {"max_n": 3},
        "witness-exclusivity": {"max_n": 3},
        "skew-exponent-parity": {"max_n": 3},
        "nondegeneracy-witness": {},
        "filtration": {"symm_n": 3, "skew_n": 3, "bound": 14},
    }


def test_verify_reports_failures(capsys, monkeypatch):
    def broken():
        return False, {"witness": 1}, "injected"

    monkeypatch.setitem(verify_mod.CHECKS, "gauss-identities", (broken, "qseries"))
    code, out = run(capsys, "verify", "--suite", "qseries")
    assert code == 1
    assert "FAIL  gauss-identities" in out and '"witness": 1' in out


def test_verify_reports_a_raising_check_and_runs_on(capsys, monkeypatch):
    def raising():
        raise RuntimeError("injected")

    monkeypatch.setitem(verify_mod.CHECKS, "assembly-agreement", (raising, "loccoh"))
    code, out = run(capsys, "verify", "--suite", "loccoh", "--max-n", "2")
    assert code == 1 and [line.rsplit("  (", 1)[0] for line in out.splitlines()] == [
        "FAIL  assembly-agreement  [raised]",
        '      counterexample: {"exception": "RuntimeError", "message": "injected"}',
        "PASS  lcd-closed-forms  [all spaces, n,m <= 2, every valid p]",
        "1/2 checks passed",
    ]


def test_output_determinism(capsys):
    _, first = run(capsys, "hpq", "--space", "symm", "--n", "5", "--p", "3")
    _, second = run(capsys, "hpq", "--space", "symm", "--n", "5", "--p", "3")
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hpq", "--space", "symm", "--n", "3"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hpq", "--space", "symm", "--n", "3", "--p", "7"])  # out of range
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--n", "3", "--k", "2", "--alpha", "0", "--beta", "1", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ext", "--space", "general", "--n", "3", "--p", "1", "--s", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ext", "--space", "symm", "--n", "3", "--p", "2", "--s", "3", "--j", "2"],
    ["ext", "--space", "skew", "--n", "4", "--p", "1", "--s", "1", "--j", "1"],
    ["character", "--space", "symm", "--n", "3", "--s", "3", "--j", "2", "--bound", "1"],
    ["character", "--space", "skew", "--n", "4", "--s", "1", "--j", "1", "--bound", "1"],
])
def test_flavor_without_a_flavored_label_rejected(capsys, argv):
    # an explicit --j that names no flavor is an error, not dropped
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--j" in err
    # without it the same request runs
    code, _ = run(capsys, *argv[:argv.index("--j")], *argv[argv.index("--j") + 2:])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["character", "--space", "symm", "--n", "3", "--s", "2", "--j", "1", "--bound", "-1"],
    ["filtration-check", "--space", "skew", "--n", "6", "--p", "1", "--bound", "-3"],
])
def test_negative_bound_rejected_by_name(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--bound" in err and "non-negative" in err


def test_bott_negative_n_rejected_by_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bott", "--n", "-1", "--k", "0", "--alpha", "--beta"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: n must be non-negative, got -1\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    real = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for n in range(4, 10):
            code, out = run(capsys, "lcd", "--space", "skew", "--n", str(n), "--p", "1")
            assert code == 0 and out.strip()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def _python(*args):
    """``python *args`` in a new process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(loccoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _fresh_process(argv):
    """(exit status, stdout, stderr) of ``python -m loccoh`` in a new process."""
    proc = _python("-m", "loccoh", *argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a parallel verify run needs the pool, so no CLI start pays for its import
    proc = _python("-c", "import sys, loccoh.cli; "
                         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_back_to_back_calls_carry_no_state(capsys):
    # each call on the shared parser prints what a fresh process prints: an
    # option given once (--m) or a usage error is not remembered by the
    # next call
    calls = [
        ["hpq", "--space", "general", "--m", "5", "--n", "4", "--p", "2"],
        ["hpq", "--space", "symm", "--n", "4", "--p", "2"],
        ["hpq", "--space", "symm", "--n", "3"],
        ["bott", "--n", "3", "--k", "2", "--alpha", "0", "--beta", "1", "0"],
        ["bott", "--n", "3", "--k", "1", "--alpha", "0", "--beta", "2", "0"],
    ]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv), argv
        codes.append(code)
    assert codes == [0, 0, 2, 2, 0]


@pytest.mark.parametrize("suite,threads,workers", [
    ("ext", 2, 2),
    ("ext", 6, 4),
    ("loccoh", 64, 2),
])
def test_run_suite_sizes_the_pool_to_the_work(monkeypatch, suite, threads, workers):
    import concurrent.futures

    seen = []

    class SerialPool:
        """Records its size and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    reports = verify_mod.run_suite(suite, max_n=2, bound=14, threads=threads)
    assert seen == [workers]
    assert [r.name for r in reports] == [
        name for name, (_, tag) in verify_mod.CHECKS.items() if tag == suite
    ]


def test_parallel_runner_preserves_order():
    serial = verify_mod.run_suite("loccoh", max_n=4, threads=1)
    parallel = verify_mod.run_suite("loccoh", max_n=4, threads=2)
    assert [r.name for r in serial] == [r.name for r in parallel]
    assert all(r.passed for r in parallel)
