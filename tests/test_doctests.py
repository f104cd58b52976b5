import doctest
import importlib

import pytest

from richtoric import compat, initial, perms, tableaux

# by module path: the package re-exports a function named ``polytope``
polytope = importlib.import_module("richtoric.polytope")


@pytest.mark.parametrize("module", [perms, tableaux, compat, initial, polytope])
def test_doctests(module):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    assert attempted > 0
