import itertools
import os
import sys
from functools import lru_cache

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from richtoric.initial import TermOrder  # noqa: E402
from richtoric.perms import all_perms, bruhat_leq, subset_bits  # noqa: E402


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


@lru_cache(maxsize=None)
def _cones(P, n):
    bit = subset_bits(n)
    down = up = 0
    for J in itertools.combinations(range(1, n + 1), len(P)):
        if all(j <= p for j, p in zip(J, P)):
            down |= bit[J]
        if all(p <= j for p, j in zip(P, J)):
            up |= bit[J]
    return down, up


@pytest.fixture(scope="session")
def cones():
    """(P, n) -> the masks of the subsets J of size |P| with J <= P and with
    P <= J, by the definition, for a sorted subset P of [n]."""
    return _cones
