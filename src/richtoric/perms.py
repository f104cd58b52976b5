"""
Permutations of [n] = {1, ..., n}, subsets of [n], and the partial orders
connecting them.

Conventions used throughout the package:

- a permutation w in S_n is the tuple ``(w(1), ..., w(n))`` of the values
  1..n in one-line notation;
- a subset of [n] is a strictly increasing tuple of its elements;
- comparison functions are non-strict and return ``False`` on incomparable
  arguments (the orders are partial, incomparability is not an error).

The subset order is dominance on sorted elements,

    {i_1 < ... < i_s} <= {j_1 < ... < j_t}   iff   s >= t and
                                                   i_k <= j_k for all k <= t,

the Bruhat order on S_n holds between v and w iff every prefix set
{v_1, ..., v_k} is dominated by {w_1, ..., w_k}, and the mixed comparisons
truncate the permutation to the subset's size:

    I <= w   iff   I <= {w_1, ..., w_|I|},
    v <= I   iff   {v_1, ..., v_|I|} <= I.

Permutations serialise as digit strings for n <= 9 ("2314") and as
comma-separated values otherwise; subsets serialise as sorted digit strings
("234").  These formats are shared by the CLI and all report files.

Sets of subsets are also held as bit masks: bit i stands for the i-th
nonempty proper subset of [n] in :func:`all_subsets` order (by size, then
lexicographically), so the least significant bit is {1}.  Each permutation
carries three masks (:func:`perm_masks`): ``prefix`` (its prefix sets
{w_1, ..., w_k} for k < n), ``below`` (the subsets J <= w) and ``above``
(the subsets J >= w).  The surviving coordinates of a pair are then

    T_w^v = above[v] & below[w],

and the Bruhat order is the tableau criterion on prefix sets,

    v <= w   iff   prefix[v] & ~below[w] == 0.

>>> [subset_str(J) for J in all_subsets(3)]
['1', '2', '3', '12', '13', '23']
>>> bin(interval_mask((1, 3, 2), (3, 1, 2)))
'0b10111'
>>> subsets_of(0b10111, 3)
[(1,), (2,), (3,), (1, 3)]

The tuple comparisons below (:func:`bruhat_leq`, :func:`subset_leq_perm`,
:func:`perm_leq_subset` and their ``_bruhat`` twins) stay the reference
that the masks are tested against.
"""

from __future__ import annotations

import itertools
import operator
from bisect import insort
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

#: Largest n accepted for single instances (permutations, subsets).
MAX_N = 8

#: Largest n for exhaustive S_n x S_n sweeps unless forced.
SWEEP_MAX_N = 6


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


Perm = tuple[int, ...]
Subset = tuple[int, ...]


# ---------------------------------------------------------------------------
# construction and validation


def check_perm(w: Iterable[int]) -> Perm:
    """Return ``w`` as a tuple, raising ValueError if it is not a bijection on [n].

    >>> check_perm([2, 3, 1])
    (2, 3, 1)
    """
    w = tuple(w)
    n = len(w)
    if n == 0 or sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..n: {w!r}")
    return w


def check_subset(I: Iterable[int], n: int | None = None) -> Subset:
    """Return ``I`` as a sorted tuple of distinct positive integers within [n]."""
    I = tuple(sorted(I))
    if not I or I[0] < 1 or any(a == b for a, b in zip(I, I[1:])):
        raise ValueError(f"not a nonempty set of positive integers: {I!r}")
    if n is not None and I[-1] > n:
        raise ValueError(f"subset {I!r} does not fit inside [{n}]")
    return I


def check_same_n(v: Sequence[int], w: Sequence[int]) -> None:
    if len(v) != len(w):
        raise ValueError(f"mismatched sizes: {len(v)} vs {len(w)}")


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The order-reversing permutation w0 = (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def reverse(w: Perm) -> Perm:
    """Right-multiply by w0, i.e. reverse the one-line notation."""
    return tuple(reversed(w))


def complement(I: Subset, n: int) -> Subset:
    members = set(I)
    return tuple(x for x in range(1, n + 1) if x not in members)


# ---------------------------------------------------------------------------
# basic statistics


def inversions(w: Perm) -> int:
    """Number of pairs i < j with w(i) > w(j).

    >>> inversions((4, 2, 3, 1))
    5
    >>> inversions((1, 2, 3))
    0
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def induced(w: Perm) -> Perm:
    """Delete the entry equal to n, keeping the relative order of the rest.

    >>> induced((1, 3, 4, 2))
    (1, 3, 2)
    >>> induced((2, 4, 3, 1))
    (2, 3, 1)
    """
    n = len(w)
    if n < 2:
        raise ValueError("induced permutation requires n >= 2")
    return tuple(x for x in w if x != n)


# ---------------------------------------------------------------------------
# partial orders


def gale_leq(I: Subset, J: Subset) -> bool:
    """Subset dominance: |I| >= |J| and the k-th smallest elements compare.

    >>> gale_leq((1, 2), (2,))
    True
    >>> gale_leq((2, 3), (1, 3))
    False
    >>> gale_leq((1, 3), (1, 3))
    True
    """
    return len(I) >= len(J) and all(map(operator.le, I, J))


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Bruhat order: every prefix set of v is dominated by that of w.

    >>> bruhat_leq((1, 3, 2), (3, 1, 2))
    True
    >>> bruhat_leq((3, 2, 1), (1, 2, 3))
    False
    """
    check_same_n(v, w)
    sv: list[int] = []
    sw: list[int] = []
    for k in range(len(v) - 1):
        insort(sv, v[k])
        insort(sw, w[k])
        for a, b in zip(sv, sw):
            if a > b:
                return False
    return True


def subset_leq_perm(I: Subset, w: Perm) -> bool:
    """I <= w, comparing I against the first |I| entries of w.

    >>> subset_leq_perm((2, 3), (2, 4, 3, 1))
    True
    """
    if not I or I[-1] > len(w):
        raise ValueError(f"subset {I!r} does not fit inside [{len(w)}]")
    prefix = sorted(w[: len(I)])
    return all(i <= p for i, p in zip(I, prefix))


def perm_leq_subset(v: Perm, I: Subset) -> bool:
    """v <= I, comparing the first |I| entries of v against I.

    >>> perm_leq_subset((2, 3, 1, 4), (1, 2))
    False
    """
    if not I or I[-1] > len(v):
        raise ValueError(f"subset {I!r} does not fit inside [{len(v)}]")
    prefix = sorted(v[: len(I)])
    return all(p <= i for p, i in zip(prefix, I))


def subset_leq_perm_bruhat(I: Subset, w: Perm) -> bool:
    """I <= w evaluated through the Bruhat order.

    Appends the complement of I in ascending order and compares the
    resulting permutation against w.  Cross-check oracle for
    :func:`subset_leq_perm`; both must always agree.
    """
    u = tuple(I) + complement(I, len(w))
    return bruhat_leq(u, w)


def perm_leq_subset_bruhat(v: Perm, I: Subset) -> bool:
    """v <= I evaluated through the Bruhat order (mirror recipe).

    Compares v against I in descending order followed by the complement in
    descending order.  Cross-check oracle for :func:`perm_leq_subset`.
    """
    u = tuple(reversed(I)) + tuple(reversed(complement(I, len(v))))
    return bruhat_leq(v, u)


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic order."""
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def all_subsets(n: int) -> tuple[Subset, ...]:
    """All nonempty proper subsets of [n], by size then lexicographically.

    These index the coordinates of the flag variety; the empty set and the
    full set [n] are excluded.
    """
    out = []
    for k in range(1, n):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return tuple(out)


def enumerate_T(v: Perm, w: Perm) -> list[Subset]:
    """All nonempty proper subsets J with v <= J <= w, in canonical order.

    Raises ValueError when v is not below w in Bruhat order (the
    corresponding Richardson variety is empty).
    """
    return subsets_of(interval_mask(v, w), len(v))


def degree_columns(v: Perm, w: Perm, d: int, budget: int | None) -> list[Subset]:
    """T_w^v as the columns of degree-d monomials, refused for d < 1 and,
    before any monomial is built, when |T|^d exceeds ``budget``."""
    if d < 1:
        raise ValueError("degree must be positive")
    cols = enumerate_T(v, w)
    if budget is not None and len(cols) ** d > budget:
        raise BudgetError(f"|T|^d = {len(cols)}^{d} exceeds budget {budget}")
    return cols


def enumerate_S(v: Perm, w: Perm) -> list[Subset]:
    """The complementary set of vanishing coordinates, in canonical order."""
    n = len(v)
    return subsets_of(~interval_mask(v, w) & ((1 << len(all_subsets(n))) - 1), n)


# ---------------------------------------------------------------------------
# bit masks over all_subsets(n)


@lru_cache(maxsize=None)
def subset_bits(n: int) -> dict[Subset, int]:
    """The bit of each nonempty proper subset of [n], in all_subsets order.

    >>> subset_bits(3)[(1, 3)]
    16
    """
    return {J: 1 << i for i, J in enumerate(all_subsets(n))}


def subsets_of(mask: int, n: int) -> list[Subset]:
    """Decode a mask into its subsets, in canonical order."""
    subs = all_subsets(n)
    out = []
    while mask:
        low = mask & -mask
        out.append(subs[low.bit_length() - 1])
        mask ^= low
    return out


@lru_cache(maxsize=None)
def _cones(P: Subset, n: int) -> tuple[int, int]:
    """Masks of the subsets J of size |P| with J <= P, and with P <= J."""
    bit = subset_bits(n)
    down = up = 0
    for J in itertools.combinations(range(1, n + 1), len(P)):
        if all(j <= p for j, p in zip(J, P)):
            down |= bit[J]
        if all(p <= j for p, j in zip(P, J)):
            up |= bit[J]
    return down, up


class PermMasks(NamedTuple):
    prefix: int  # the prefix sets {w_1, ..., w_k}, 1 <= k < n
    below: int  # the subsets J <= w
    above: int  # the subsets J >= w


@lru_cache(maxsize=None)
def perm_masks(w: Perm) -> PermMasks:
    """The prefix, below and above masks of a permutation.

    J <= w compares J with the prefix set of w of the same size, so each
    mask is a union over the prefix sets of w.

    >>> m = perm_masks((2, 3, 1))
    >>> subsets_of(m.prefix, 3), subsets_of(m.below, 3)
    ([(2,), (2, 3)], [(1,), (2,), (1, 2), (1, 3), (2, 3)])
    """
    n = len(w)
    bit = subset_bits(n)
    prefix = below = above = 0
    for k in range(1, n):
        P = tuple(sorted(w[:k]))
        down, up = _cones(P, n)
        prefix |= bit[P]
        below |= down
        above |= up
    return PermMasks(prefix, below, above)


def bruhat_leq_mask(v: Perm, w: Perm) -> bool:
    """Bruhat order by the tableau criterion: every prefix set of v is <= w.

    Agrees with :func:`bruhat_leq` on every pair of the same size.

    >>> bruhat_leq_mask((1, 3, 2), (3, 1, 2)), bruhat_leq_mask((3, 2, 1), (1, 2, 3))
    (True, False)
    """
    return not perm_masks(v).prefix & ~perm_masks(w).below


def interval_mask(v: Perm, w: Perm) -> int:
    """The mask of T_w^v = {J : v <= J <= w}.

    Raises ValueError when v is not below w in Bruhat order (the
    corresponding Richardson variety is empty).
    """
    check_same_n(v, w)
    mv, mw = perm_masks(v), perm_masks(w)
    if mv.prefix & ~mw.below:
        raise ValueError("empty Richardson variety: v is not below w in Bruhat order")
    return mv.above & mw.below


# ---------------------------------------------------------------------------
# permutations built from ordered set partitions


def partition_perm(parts: Sequence[Iterable[int]], dirs: Sequence[str]) -> Perm:
    """Concatenate the parts of an ordered set partition of [n].

    Each part is written in ascending ("up") or descending ("down") order.

    >>> partition_perm([(1, 3), (2, 4)], ["up", "up"])
    (1, 3, 2, 4)
    >>> partition_perm([(2, 5), (1, 3, 4)], ["down", "down"])
    (5, 2, 4, 3, 1)
    """
    parts = [tuple(sorted(p)) for p in parts]
    if len(parts) != len(dirs):
        raise ValueError("one direction flag per part is required")
    flat = [x for p in parts for x in p]
    if sorted(flat) != list(range(1, len(flat) + 1)):
        raise ValueError("parts must be disjoint, nonempty and cover 1..n")
    out: list[int] = []
    for p, d in zip(parts, dirs):
        if d == "up":
            out.extend(p)
        elif d == "down":
            out.extend(reversed(p))
        else:
            raise ValueError(f"direction must be 'up' or 'down', got {d!r}")
    return tuple(out)


def ascending_completion(J: Subset, n: int) -> Perm:
    """The minimum permutation whose first |J| entries form the set J."""
    return tuple(J) + complement(J, n)


def descending_completion(J: Subset, n: int) -> Perm:
    """The maximum permutation whose first |J| entries form the set J."""
    return tuple(reversed(J)) + tuple(reversed(complement(J, n)))


# ---------------------------------------------------------------------------
# serialisation


def perm_str(w: Perm) -> str:
    """Serialise a permutation ("2314" for n <= 9, comma-separated beyond)."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def parse_perm(s: str) -> Perm:
    """Inverse of :func:`perm_str`.

    >>> parse_perm("2314")
    (2, 3, 1, 4)
    """
    s = s.strip()
    if not s:
        raise ValueError("empty permutation string")
    vals = [int(t) for t in s.split(",")] if "," in s else [int(c) for c in s]
    return check_perm(vals)


def subset_str(I: Subset) -> str:
    """Serialise a subset as its sorted digit string ("234")."""
    if I and I[-1] > 9:
        return ",".join(str(x) for x in I)
    return "".join(str(x) for x in I)


def parse_subset(s: str, n: int | None = None) -> Subset:
    s = s.strip()
    if not s:
        raise ValueError("empty subset string")
    vals = [int(t) for t in s.split(",")] if "," in s else [int(c) for c in s]
    return check_subset(vals, n)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
