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
maximum defining chain, built one column at a time by a direct lift into a
parabolic coset, whose extremum is unique by Deodhar's lemma (see
:func:`min_extension`).  A tableau is standard for the Richardson variety of
(v, w) exactly when the top of its minimum chain stays below w and the
bottom of its maximum chain stays above v.

Tableaux serialise as bracketed column lists, e.g. "[125,246,35]"; chains as
bracketed permutation lists.
"""

from __future__ import annotations

from functools import lru_cache

from .perms import (
    Perm,
    Subset,
    ascending_completion,
    bruhat_leq,  # unused here; perfbench/test_perfbench.py reads tableaux.bruhat_leq
    bruhat_leq_mask,
    check_same_n,
    degree_columns,
    descending_completion,
    gale_leq,
    identity,
    longest,
    parse_subset,
    perm_str,
    subset_str,
)

#: Cap on |T|^d before enumerating degree-d tableaux.
SSYT_BUDGET = 1_000_000

Tableau = tuple[Subset, ...]


class NoExtensionError(ValueError):
    """No permutation with the required prefix lies above/below the bound."""


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


def _lift(u: Perm, J: Subset) -> Perm:
    """The Bruhat-minimum z >= u with leading set J, given that one exists.

    z >= u iff each prefix set of z dominates u's of the same size.  Each
    position takes the smallest unused entry (from J in the first |J|) that
    keeps the prefix dominating; every such prefix extends to a whole z >= u,
    so the minimum makes the same choices."""
    n, k, z = len(u), len(J), []
    for i in range(1, n + 1):
        floor = sorted(u[:i])
        pool = J if i <= k else range(1, n + 1)
        z.append(min(y for y in pool if y not in z and gale_leq(floor, sorted(z + [y]))))
    return tuple(z)


@lru_cache(maxsize=None)
def min_extension(u: Perm, J: Subset) -> Perm:
    """The Bruhat-minimum permutation z >= u whose leading entries form J.

    The permutations with leading set J form a parabolic coset.  Those above
    u have a unique minimum (Deodhar's lemma), built by :func:`_lift`; they
    exist iff u is below the top of the coset, the descending completion of J.

    >>> min_extension((1, 3, 2), (2,))
    (2, 3, 1)
    >>> min_extension((1, 2, 3), (3,))
    (3, 1, 2)
    """
    if not bruhat_leq_mask(u, descending_completion(J, len(u))):
        raise NoExtensionError(f"no permutation above {u} with prefix {J}")
    return _lift(u, J)


@lru_cache(maxsize=None)
def max_truncation(u: Perm, I: Subset) -> Perm:
    """The Bruhat-maximum permutation z <= u whose leading entries form I.

    Reversing values (x -> n+1-x) reverses Bruhat order, so this is the
    mirror of :func:`min_extension`:

    >>> r = lambda p: tuple(4 - x for x in p)
    >>> max_truncation((3, 2, 1), (1, 2)), r(min_extension(r((3, 2, 1)), r((2, 1))))
    ((2, 1, 3), (2, 1, 3))
    """
    n = len(u)
    if not bruhat_leq_mask(ascending_completion(I, n), u):
        raise NoExtensionError(f"no permutation below {u} with prefix {I}")
    z = _lift(tuple(n + 1 - x for x in u), tuple(n + 1 - x for x in I))
    return tuple(n + 1 - x for x in z)


def _chain_columns(cols, n: int) -> Tableau:
    """The columns as tuples, refused unless they form a nonempty SSYT on [n]."""
    cols = tuple(tuple(c) for c in cols)
    if not cols:
        raise ValueError("empty tableau has no defining chain")
    if not all(0 < x <= n for c in cols for x in c):
        raise ValueError(f"entries outside 1..{n}: {tableau_str(cols)}")
    if not is_ssyt(cols):
        raise ValueError(f"not semi-standard: {tableau_str(cols)}")
    return cols


def min_defining_chain(cols, n: int) -> tuple[Perm, ...]:
    """Minimum defining chain of an SSYT, built left to right."""
    cols = _chain_columns(cols, n)
    chain = [ascending_completion(cols[0], n)]
    for J in cols[1:]:
        chain.append(min_extension(chain[-1], J))
    return tuple(chain)


def max_defining_chain(cols, n: int) -> tuple[Perm, ...]:
    """Maximum defining chain of an SSYT, built right to left."""
    cols = _chain_columns(cols, n)
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
    return bruhat_leq_mask(min_defining_chain(cols, n)[-1], w) and bruhat_leq_mask(
        v, max_defining_chain(cols, n)[0]
    )


# ---------------------------------------------------------------------------
# enumeration and counting


def _gale_successors(cols) -> dict[Subset, list[Subset]]:
    """Each column's Gale successors among ``cols``, in the order of ``cols``."""
    return {I: [J for J in cols if gale_leq(I, J)] for I in cols}


def enumerate_ssyt(v: Perm, w: Perm, d: int, budget: int | None = SSYT_BUDGET) -> list[Tableau]:
    """All SSYT with exactly d columns, every column J satisfying v <= J <= w.

    Returned in canonical order (lexicographic on serialised columns): the
    depth-first search tries columns in serialised order at every depth.
    """
    cols = sorted(degree_columns(v, w, d, budget), key=subset_str)
    succ = _gale_successors(cols)
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
    return out


def count_standard(v: Perm, w: Perm, d: int, budget: int | None = SSYT_BUDGET) -> int:
    """Number of degree-d standard monomials for the Richardson variety of
    (v, w).

    Standard monomials have all columns between v and w, so one depth-first
    walk over T's Gale successors meets every candidate.  The walk carries
    the top of each prefix's minimum chain, one :func:`min_extension` per
    node; the empty prefix tops at the identity.  Since min_extension(u, J)
    >= u, tops only rise along a chain, so a prefix whose top is not <= w
    has no standard completion and the walk prunes it.  At a leaf, the
    bottom of the maximum chain is the :func:`max_truncation` of its
    suffix's bottom by the first column, with the suffix bottoms kept in a
    per-call dict; the empty suffix bottoms at w0.

    >>> count_standard((1, 2, 3), (3, 1, 2), 2), len(enumerate_ssyt((1, 2, 3), (3, 1, 2), 2))
    (14, 15)
    """
    cols = degree_columns(v, w, d, budget)
    n = len(v)
    succ = _gale_successors(cols) if d > 1 else {}
    bottoms: dict[Tableau, Perm] = {(): longest(n)}

    def bottom(suffix: Tableau) -> Perm:
        b = bottoms.get(suffix)
        if b is None:
            b = bottoms[suffix] = max_truncation(bottom(suffix[1:]), suffix[0])
        return b

    def walk(prefix: Tableau, top: Perm) -> int:
        count = 0
        for J in succ[prefix[-1]] if prefix else cols:
            z = min_extension(top, J)
            if not bruhat_leq_mask(z, w):
                continue
            if len(prefix) + 1 < d:
                count += walk(prefix + (J,), z)
            else:
                leaf = prefix + (J,)
                count += bruhat_leq_mask(v, max_truncation(bottom(leaf[1:]), leaf[0]))
        return count

    return walk((), identity(n))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
