"""
Semi-standard Young tableaux over subsets of [n], their defining chains, and
the standard-monomial test for Richardson varieties.

A tableau is a tuple of columns, each column a strictly increasing tuple of
elements of [n], with column sizes weakly decreasing left to right.  It is
semi-standard (SSYT) when consecutive columns satisfy the subset order,
equivalently when rows weakly increase.  A tableau stands for the product of
the flag coordinates indexed by its columns.

A defining chain for a tableau attaches to each column a permutation whose
leading entries form that column, the permutations increasing in Bruhat
order along the tableau.  Every SSYT has a unique minimum and a unique
maximum defining chain; both are built greedily here, one column at a time,
and the greedy construction is validated against brute-force enumeration in
the test suite.  A tableau is standard for the Richardson variety of
(v, w) exactly when the top of its minimum chain stays below w and the
bottom of its maximum chain stays above v.

Tableaux serialise as bracketed column lists, e.g. "[125,246,35]"; chains as
bracketed permutation lists.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .perms import (
    BudgetError,
    Perm,
    Subset,
    ascending_completion,
    bruhat_leq,  # unused here; perfbench/test_perfbench.py reads tableaux.bruhat_leq
    bruhat_leq_mask,
    check_same_n,
    complement,
    descending_completion,
    enumerate_T,
    gale_leq,
    inversions,
    parse_subset,
    perm_str,
    subset_str,
)

#: Cap on |T|^d before enumerating degree-d tableaux.
SSYT_BUDGET = 1_000_000

Tableau = tuple[Subset, ...]


class NoExtensionError(ValueError):
    """No permutation with the required prefix lies above/below the bound."""


class AmbiguousChainError(RuntimeError):
    """The extension step has no unique extremum; a theory assumption failed."""


# ---------------------------------------------------------------------------
# tableaux


def sort_columns(cols) -> Tableau:
    """Canonical column order for a monomial: sizes descending, then lex."""
    return tuple(sorted((tuple(c) for c in cols), key=lambda c: (-len(c), c)))


def is_ssyt(cols) -> bool:
    """True iff consecutive columns weakly increase in the subset order.

    >>> is_ssyt([(1, 2, 5), (2, 4, 6), (3, 5)])
    True
    >>> is_ssyt([(3, 5), (1, 2, 5)])
    False
    """
    cols = [tuple(c) for c in cols]
    return all(gale_leq(a, b) for a, b in zip(cols, cols[1:]))


def rows_of(cols) -> tuple[tuple[int, ...], ...]:
    """Row multisets (as sorted tuples), top row first."""
    cols = [tuple(c) for c in cols]
    depth = max((len(c) for c in cols), default=0)
    return tuple(
        tuple(sorted(c[r] for c in cols if len(c) > r)) for r in range(depth)
    )


def row_sort(cols) -> Tableau:
    """Sort every row ascending; the result is the unique SSYT with the
    same row multisets as the input.

    >>> row_sort([(2, 3), (1,)])
    ((1, 3), (2,))
    """
    cols = sort_columns(cols)
    if not cols:
        return ()
    rows = [sorted(c[r] for c in cols if len(c) > r) for r in range(len(cols[0]))]
    out = []
    for idx, c in enumerate(cols):
        col = tuple(rows[r][idx] for r in range(len(c)))
        if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
            raise RuntimeError(f"row sorting broke column strictness on {cols!r}")
        out.append(col)
    return tuple(out)


def tableau_str(cols) -> str:
    return "[" + ",".join(subset_str(tuple(c)) for c in cols) + "]"


def parse_tableau(s: str, n: int | None = None) -> Tableau:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"tableau must be bracketed: {s!r}")
    body = s[1:-1]
    if not body:
        return ()
    return tuple(parse_subset(tok, n) for tok in body.split(","))


def chain_str(perms) -> str:
    return "[" + ",".join(perm_str(u) for u in perms) + "]"


# ---------------------------------------------------------------------------
# defining chains


@lru_cache(maxsize=None)
def _perms_with_prefix(J: Subset, n: int) -> tuple[Perm, ...]:
    """All permutations of [n] whose first |J| entries form the set J."""
    rest = complement(J, n)
    return tuple(
        head + tail
        for head in itertools.permutations(J)
        for tail in itertools.permutations(rest)
    )


@lru_cache(maxsize=None)
def min_extension(u: Perm, J: Subset) -> Perm:
    """The Bruhat-minimum permutation z >= u whose leading entries form J.

    Exhaustive over the |J|! * (n-|J|)! candidates; any minimum must sit at
    the least inversion count among them, which keeps the scan linear.

    >>> min_extension((1, 3, 2), (2,))
    (2, 3, 1)
    >>> min_extension((1, 2, 3), (3,))
    (3, 1, 2)
    """
    cands = [z for z in _perms_with_prefix(J, len(u)) if bruhat_leq_mask(u, z)]
    if not cands:
        raise NoExtensionError(f"no permutation above {u} with prefix {J}")
    low = min(cands, key=inversions)
    n_low = inversions(low)
    if sum(1 for z in cands if inversions(z) == n_low) > 1 or not all(
        bruhat_leq_mask(low, z) for z in cands
    ):
        raise AmbiguousChainError(f"no unique minimum above {u} with prefix {J}")
    return low


@lru_cache(maxsize=None)
def max_truncation(u: Perm, I: Subset) -> Perm:
    """The Bruhat-maximum permutation z <= u whose leading entries form I."""
    cands = [z for z in _perms_with_prefix(I, len(u)) if bruhat_leq_mask(z, u)]
    if not cands:
        raise NoExtensionError(f"no permutation below {u} with prefix {I}")
    high = max(cands, key=inversions)
    n_high = inversions(high)
    if sum(1 for z in cands if inversions(z) == n_high) > 1 or not all(
        bruhat_leq_mask(z, high) for z in cands
    ):
        raise AmbiguousChainError(f"no unique maximum below {u} with prefix {I}")
    return high


def min_defining_chain(cols, n: int) -> tuple[Perm, ...]:
    """Minimum defining chain of an SSYT, built left to right."""
    cols = tuple(tuple(c) for c in cols)
    if not cols:
        raise ValueError("empty tableau has no defining chain")
    if not is_ssyt(cols):
        raise ValueError(f"not semi-standard: {tableau_str(cols)}")
    chain = [ascending_completion(cols[0], n)]
    for J in cols[1:]:
        chain.append(min_extension(chain[-1], J))
    return tuple(chain)


def max_defining_chain(cols, n: int) -> tuple[Perm, ...]:
    """Maximum defining chain of an SSYT, built right to left."""
    cols = tuple(tuple(c) for c in cols)
    if not cols:
        raise ValueError("empty tableau has no defining chain")
    if not is_ssyt(cols):
        raise ValueError(f"not semi-standard: {tableau_str(cols)}")
    chain = [descending_completion(cols[-1], n)]
    for I in reversed(cols[:-1]):
        chain.append(max_truncation(chain[-1], I))
    return tuple(reversed(chain))


def is_standard(cols, v: Perm, w: Perm) -> bool:
    """Standard-monomial test: min chain tops out below w, max chain starts
    above v."""
    check_same_n(v, w)
    if not bruhat_leq_mask(v, w):
        raise ValueError("empty Richardson variety: v is not below w")
    n = len(v)
    lo = min_defining_chain(cols, n)
    if not bruhat_leq_mask(lo[-1], w):
        return False
    hi = max_defining_chain(cols, n)
    return bruhat_leq_mask(v, hi[0])


# ---------------------------------------------------------------------------
# enumeration and counting


def enumerate_ssyt(v: Perm, w: Perm, d: int, budget: int | None = SSYT_BUDGET) -> list[Tableau]:
    """All SSYT with exactly d columns, every column J satisfying v <= J <= w.

    Returned in canonical order (lexicographic on serialised columns).
    """
    if d < 1:
        raise ValueError("degree must be positive")
    cols = enumerate_T(v, w)
    if budget is not None and len(cols) ** d > budget:
        raise BudgetError(f"|T|^d = {len(cols)}^{d} exceeds budget {budget}")
    succ = {I: [J for J in cols if gale_leq(I, J)] for I in cols}
    out: list[Tableau] = []

    def extend(prefix: list[Subset]) -> None:
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for J in (cols if not prefix else succ[prefix[-1]]):
            prefix.append(J)
            extend(prefix)
            prefix.pop()

    extend([])
    out.sort(key=lambda t: tuple(subset_str(c) for c in t))
    return out


def count_standard(v: Perm, w: Perm, d: int, budget: int | None = SSYT_BUDGET) -> int:
    """Number of degree-d standard monomials for the Richardson variety of
    (v, w).

    Standard monomials have all columns between v and w, so counting within
    the enumerated tableaux is exhaustive.
    """
    return sum(1 for t in enumerate_ssyt(v, w, d, budget) if is_standard(t, v, w))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
