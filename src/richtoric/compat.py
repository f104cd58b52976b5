"""
Compatible pairs of permutations, the recursive family T_n they generate,
and the block structure carried by its members.

Writing t, t' for the positions of n in v and w, and s, s' for the positions
of n-1, the pair (v, w) is compatible when t = t', or when t' < t together
with s' <= t, t' <= s, w strictly decreasing on [t', t] and v strictly
increasing on [t', t].  The family T_n consists of the pairs that stay
compatible all the way down the recursion (v, w) -> (induced v, induced w),
with T_1 = {(id, id)}.

``_compatible`` is the one statement of that rule: it returns the positions
of n in v and w, or None.  ``is_compatible``, ``extensions_in_Tn`` and the
membership walk all call it.  The walk runs down the induced pairs in one
loop and cuts each out of its parent at the positions ``_compatible``
returned, so no level searches for n twice.

A block of a pair in T_n is a window [i, j] of positions on which v and w
carry the same entry set, produced by one of three rules: creation (the
shared position of n), persistence of a block of the induced pair, or
expansion of a block of the induced pair across the positions of n.  A
window that avoids n but sits strictly between the two deletion points
shifts differently in v and w when n is removed, so it cannot persist; only
windows entirely before or entirely after both deletion points do.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import gt, lt
from typing import NamedTuple

from .perms import (
    MAX_N,
    Perm,
    check_same_n,
    induced,
    perm_str,
)

#: in_Tn results are memoised for pairs at or below this size.  Without the
#: memo, re-checking all 3,781 comparable pairs of S_5 takes about 9x as
#: long (0.79 -> 6.8-7.4 ms), and a seeded S_6 pair about 1.25x (1.2-1.3 ->
#: 1.6 us).  A cap of 6 would store every pair that the ``verify`` block
#: suite queries (518,400 pairs of S_6): that pass then peaks at 69.6 MB RSS
#: against 18.4 MB, and takes 1.65 s against 0.80 s.
_MEMO_MAX_N = 5

_tn_memo: dict[tuple[Perm, Perm], bool] = {}


def is_compatible(v: Perm, w: Perm) -> bool:
    """Compatibility of a pair, via the positions of n and n-1.

    >>> is_compatible((1, 3, 4, 2), (2, 4, 3, 1))
    True
    >>> is_compatible((1, 3, 2), (3, 1, 2))
    False
    """
    check_same_n(v, w)
    return _compatible(v, w, len(v)) is not None


def _compatible(v: Perm, w: Perm, n: int) -> tuple[int, int] | None:
    """The 0-based positions of n in v and w when the pair, already known to
    be of size n, is compatible; None when it is not."""
    t, tp = v.index(n), w.index(n)
    if t == tp:
        return t, tp
    if tp > t or w.index(n - 1) > t or tp > v.index(n - 1):
        return None
    # w strictly decreasing and v strictly increasing on [tp, t]
    if all(map(gt, w[tp:t], w[tp + 1 : t + 1])) and all(
        map(lt, v[tp:t], v[tp + 1 : t + 1])
    ):
        return t, tp
    return None


def in_Tn(v: Perm, w: Perm) -> bool:
    """Membership in the recursive family T_n.

    The memo holds only pairs of one size, so it is read before the size
    check: a hit needs no check.

    >>> in_Tn((1, 3, 4, 2), (2, 4, 3, 1))
    True
    >>> in_Tn((1, 3, 2), (3, 1, 2))
    False
    """
    if len(v) <= _MEMO_MAX_N:
        cached = _tn_memo.get((v, w))
        if cached is not None:
            return cached
    check_same_n(v, w)
    return _in_Tn(v, w, len(v))


def _in_Tn(v: Perm, w: Perm, n: int) -> bool:
    """:func:`in_Tn` on a pair already known to be of size n: one walk down
    the induced pairs, each cut out of its parent at the positions of n.
    Every pair visited at or below ``_MEMO_MAX_N`` is memoised with the
    walk's verdict."""
    visited = []
    while n > 1:
        if n <= _MEMO_MAX_N:
            result = _tn_memo.get((v, w))
            if result is not None:
                break
            visited.append((v, w))
        positions = _compatible(v, w, n)
        if positions is None:
            result = False
            break
        t, tp = positions
        v, w, n = v[:t] + v[t + 1 :], w[:tp] + w[tp + 1 :], n - 1
    else:
        result = v == (1,) and w == (1,)
    for key in visited:
        _tn_memo[key] = result
    return result


def extensions_in_Tn(vbar: Perm, wbar: Perm) -> list[tuple[Perm, Perm]]:
    """All pairs of T_n inducing the given pair of T_{n-1}, in canonical order.

    Inserts n at every pair of positions and keeps the compatible results.
    """
    if not in_Tn(vbar, wbar):
        raise ValueError(f"({perm_str(vbar)}, {perm_str(wbar)}) is not in the family")
    n = len(vbar) + 1
    vs = [vbar[:a] + (n,) + vbar[a:] for a in range(n)]
    ws = [wbar[:b] + (n,) + wbar[b:] for b in range(n)]
    out = [(v, w) for v in vs for w in ws if _compatible(v, w, n) is not None]
    out.sort()
    return out


def tn_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    """All of T_n, built by extending T_{n-1}, in canonical order (cached per n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_N:
        raise ValueError(f"n={n} is outside the supported range 1..{MAX_N}")
    return _tn_pairs(n)


@lru_cache(maxsize=None)
def _tn_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    if n == 1:
        return (((1,), (1,)),)
    out: list[tuple[Perm, Perm]] = []
    for vbar, wbar in _tn_pairs(n - 1):
        out.extend(extensions_in_Tn(vbar, wbar))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# blocks


class Block(NamedTuple):
    i: int
    j: int
    provenance: str  # "creation" | "persistence" | "expansion"

    @property
    def size(self) -> int:
        return self.j - self.i + 1


def blocks(v: Perm, w: Perm) -> tuple[Block, ...]:
    """All blocks of a pair in T_n, sorted by window.

    Raises ValueError outside the family; blocks are only defined there.
    """
    if not in_Tn(v, w):
        raise ValueError(
            f"blocks are defined only on the family; "
            f"({perm_str(v)}, {perm_str(w)}) is not a member"
        )
    return _blocks(v, w)


@lru_cache(maxsize=None)
def _blocks(v: Perm, w: Perm) -> tuple[Block, ...]:
    n = len(v)
    if n == 1:
        return (Block(1, 1, "creation"),)
    d = v.index(n) + 1
    e = w.index(n) + 1
    sub = _blocks(induced(v), induced(w))
    out: list[Block] = []
    if e == d:
        out.append(Block(d, d, "creation"))
    lo, hi = min(d, e), max(d, e)
    for b in sub:
        # persistence: both deletions shift the window identically
        if b.j < lo:
            out.append(Block(b.i, b.j, "persistence"))
        elif b.i >= hi:
            out.append(Block(b.i + 1, b.j + 1, "persistence"))
        # expansion: the window [b.i, b.j + 1] swallows both copies of n
        if b.i <= e <= b.j and b.i < d <= b.j + 1:
            out.append(Block(b.i, b.j + 1, "expansion"))
    out.sort(key=lambda b: (b.i, b.j))
    return tuple(out)


def maximum_block(v: Perm, w: Perm) -> Block:
    """The inclusion-minimal block containing the entry n."""
    n = len(v)
    holding = [b for b in blocks(v, w) if n in v[b.i - 1 : b.j]]
    if not holding:
        raise RuntimeError(f"no block of ({perm_str(v)}, {perm_str(w)}) contains {n}")
    holding.sort(key=lambda b: b.size)
    smallest = holding[0]
    for b in holding:
        if not (b.i <= smallest.i and smallest.j <= b.j):
            raise RuntimeError("blocks containing n are not nested")
    return smallest


# ---------------------------------------------------------------------------
# the adjacent-swap moves on a pair with split positions of n


def _positions_of_n(v: Perm, w: Perm) -> tuple[int, int]:
    n = len(v)
    return v.index(n) + 1, w.index(n) + 1


def raise_v(v: Perm, w: Perm) -> Perm:
    """Swap v at the two positions left of and at n, pushing n one step left.

    Defined for family members whose positions of n differ; the result pairs
    with w to stay inside the family and gains one inversion.
    """
    d, e = _swap_preconditions(v, w)
    out = list(v)
    out[d - 2], out[d - 1] = out[d - 1], out[d - 2]
    return tuple(out)


def lower_w(v: Perm, w: Perm) -> Perm:
    """Swap w at the position of n and the next one, pushing n one step right."""
    d, e = _swap_preconditions(v, w)
    out = list(w)
    out[e - 1], out[e] = out[e], out[e - 1]
    return tuple(out)


def _swap_preconditions(v: Perm, w: Perm) -> tuple[int, int]:
    if not in_Tn(v, w):
        raise ValueError("the swap moves are defined only on the family")
    d, e = _positions_of_n(v, w)
    if d == e:
        raise ValueError("positions of n coincide; no swap move applies")
    return d, e


# ---------------------------------------------------------------------------
# pattern avoidance


def is_312_avoiding(w: Perm) -> bool:
    """No triple i < j < k realises the pattern 312 (w_j < w_k < w_i)."""
    n = len(w)
    for i, j, k in itertools.combinations(range(n), 3):
        if w[j] < w[k] < w[i]:
            return False
    return True


def is_213_avoiding(v: Perm) -> bool:
    """No triple i < j < k realises the pattern 213 (v_j < v_i < v_k)."""
    n = len(v)
    for i, j, k in itertools.combinations(range(n), 3):
        if v[j] < v[i] < v[k]:
            return False
    return True

