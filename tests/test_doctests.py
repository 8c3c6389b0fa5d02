"""The ``>>>`` examples in the module docstrings stay true."""

import doctest

import pytest

import loccoh.partitions
import loccoh.qseries


@pytest.mark.parametrize("module", [loccoh.partitions, loccoh.qseries],
                         ids=lambda module: module.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0
