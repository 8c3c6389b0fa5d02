"""The ``>>>`` examples in the module docstrings stay true."""

import doctest
import importlib

import pytest

import loccoh.partitions
import loccoh.qseries

# the package exports a function named bott, which hides the module
bott_module = importlib.import_module("loccoh.bott")


@pytest.mark.parametrize("module", [bott_module, loccoh.partitions, loccoh.qseries],
                         ids=lambda module: module.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0
