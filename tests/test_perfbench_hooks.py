"""The benchmark's tracing hooks name what the library defines.

``perfbench/tracing.py`` wraps library functions by name and derives the
per-layer metrics of ``BENCHMARK.json`` from them; a layer whose target
is renamed or removed would read zero without an error.  Both files are
only read here.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from loccoh.qseries import LaurentPoly
from loccoh.verify import CHECKS

ROOT = Path(__file__).resolve().parents[1]


def _tracing_tables() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("MODULES", "FUNCTIONS", "METHODS")
    }


TABLES = _tracing_tables()


@pytest.mark.parametrize("layer,home,attr,kind", TABLES["FUNCTIONS"])
def test_traced_functions_resolve(layer, home, attr, kind):
    assert home in TABLES["MODULES"]
    target = getattr(importlib.import_module(f"loccoh.{home}"), attr)
    assert callable(target)
    assert inspect.isgeneratorfunction(target) == (kind == "gen")


@pytest.mark.parametrize("layer,names", TABLES["METHODS"])
def test_traced_methods_exist(layer, names):
    for name in names:
        assert callable(getattr(LaurentPoly, name))


def test_verify_metrics_name_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    checks = [m.group(1) for m in map(re.compile(r"verify\.(.+)\.s").fullmatch, names) if m]
    assert checks
    assert set(checks) <= set(CHECKS)
