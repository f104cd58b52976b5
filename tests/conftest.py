import itertools
import os
import sys
from functools import lru_cache

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from richtoric.initial import TermOrder  # noqa: E402
from richtoric.perms import all_perms, bruhat_leq  # noqa: E402


def pytest_make_parametrize_id(config, val, argname):
    """Name a parametrized order by its value ("diagonal"), not by the
    enum's default str ("TermOrder.DIAGONAL"), so test ids stay short and
    stable."""
    if isinstance(val, TermOrder):
        return val.value
    return None


@lru_cache(maxsize=None)
def _comparable_pairs(n):
    return tuple(
        (v, w) for v, w in itertools.product(all_perms(n), repeat=2) if bruhat_leq(v, w)
    )


@pytest.fixture(scope="session")
def comparable_pairs():
    """n -> every pair v <= w of S_n by the tuple Bruhat test, in product
    order, built once per n for the whole run."""
    return _comparable_pairs
