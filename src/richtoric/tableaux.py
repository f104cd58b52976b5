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

The walks over tableaux use the subset masks of :mod:`richtoric.perms`.
One up-set table per n, :func:`~richtoric.perms.gale_up`, holds for each
subset I the mask of the subsets J with I <= J, so a column's successors
among the columns of T are the bits of ``gale_up(n)[I] & T``, one AND per
column and no :func:`gale_leq` call.  :func:`enumerate_ssyt` extends level
by level: level 1 is T in serialised order, and every tableau of a level is
followed, in order, by its last column's successors in that order (the
masks renumbered to serialised positions once per n).  A level sorted by
serialised columns thus gives a sorted next level, so the canonical order
needs no sort.

:func:`count_standard` walks small integers: columns are subset indices,
and chain permutations are ids in one chain table per n.  The table stores
each permutation reached once, with its prefix mask and the complement of
its below mask in lists indexed by the id, and every chain step taken so
far, up (:func:`min_extension`) and down (:func:`max_truncation`), in two
dicts keyed by ``perm_id << 8 | subset_index``.  A miss lifts the step with
:func:`_lift`; every later call reads it back, so a warm walk hashes only
ints.  Both chain ends are then one AND each against masks of v and w.

A chain step makes no subset comparison either.  :func:`_lift` keeps, for
every threshold t, the slack between u's prefix count and the chosen
prefix count of entries <= t, all thresholds packed in one int.  The next
entry is the least free value above the highest threshold with no slack,
found with a few integer operations; when there is none, no extension
exists, so the step needs no separate existence test.

Tableaux serialise as bracketed column lists, e.g. "[125,246,35]"; chains as
bracketed permutation lists.
"""

from __future__ import annotations

from functools import lru_cache

from .perms import (
    MAX_N,
    Perm,
    Subset,
    Tableau,
    _comparable_masks,
    all_subsets,
    ascending_completion,
    bruhat_leq,  # unused here; perfbench/test_perfbench.py reads tableaux.bruhat_leq
    degree_mask,
    descending_completion,
    gale_leq,
    gale_up,
    identity,
    longest,
    perm_masks,
    perm_str,
    subset_indices,
    subset_str,
    subsets_of,
    tableau_str,
)

#: Cap on |T|^d before enumerating degree-d tableaux.
SSYT_BUDGET = 1_000_000


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


def chain_str(perms) -> str:
    return "[" + ",".join(perm_str(u) for u in perms) + "]"


# ---------------------------------------------------------------------------
# defining chains


#: Width of one slack field in :func:`_lift`: a 4-bit count (at most MAX_N)
#: under a guard bit, so subtracting one from every field never borrows.
_FIELD = 5
_ONES = sum(1 << _FIELD * t for t in range(MAX_N + 1))
_GUARDS = _ONES << _FIELD - 1
#: _STEP[x] is one in every field t >= x, the count of one value x <= t.
_STEP = tuple(_ONES >> _FIELD * x << _FIELD * x for x in range(MAX_N + 1))


def _lift(u: Perm, J: Subset) -> Perm | None:
    """The Bruhat-minimum z >= u whose first |J| entries form J, or None
    when there is none.

    z >= u iff each prefix set of z dominates u's of the same size, that is,
    for every threshold t it has no more entries <= t.  Position i takes the
    least unused value y (from J while i <= |J|) that keeps the prefix
    dominating; every such prefix extends to a whole z >= u, so the minimum
    makes the same choices.

    The test is a count.  With z_1..z_{i-1} chosen, the slack
    s(t) = #{u_1..u_i <= t} - #{z_1..z_{i-1} <= t} is never negative, as
    the previous prefix dominated.  Adding y lowers s(t) by one for every
    t >= y, so y keeps the prefix dominating iff s(t) >= 1 for all t >= y:
    y must lie above the highest tight threshold m = max{t : s(t) = 0}
    (s(0) = 0, so m exists).  The candidates are the unused pool values
    above m, and the greedy takes the least.

    An empty candidate set means no extension exists.  Say J dominates
    u's first |J| entries (every z >= u with leading set J needs that) and
    i <= |J|.  Then the largest unused value y of J is a candidate: the
    |J| - i + 1 unused values of J are all <= t for t >= y, so
    #{z_1..z_{i-1} <= t} = #{J <= t} - (|J| - i + 1), while
    #{u_1..u_i <= t} >= #{u_1..u_{|J|} <= t} - (|J| - i) >= #{J <= t} - (|J| - i),
    and s(t) >= 1.  After |J| the same holds with [n] for J.  So the greedy
    runs dry only when no z >= u has leading set J.

    The slack of every t sits in one int, one _FIELD-bit field per t.
    Setting the guard bits and subtracting one from every field clears the
    guard of exactly the zero fields, the highest of which is m; values are
    bits of a mask, so one step is a few integer operations.
    """
    free = (2 << len(u)) - 2
    pool = sum(1 << x for x in J)
    k, s, z = len(J), 0, []
    for i, x in enumerate(u):
        if i == k:
            pool = free
        s += _STEP[x]
        tight = ~((s | _GUARDS) - _ONES) & _GUARDS
        m = tight.bit_length() // _FIELD - 1
        above = free & pool & (-2 << m)
        if not above:
            return None
        y = (above & -above).bit_length() - 1
        free ^= 1 << y
        s -= _STEP[y]
        z.append(y)
    return tuple(z)


@lru_cache(maxsize=None)
def min_extension(u: Perm, J: Subset) -> Perm:
    """The Bruhat-minimum permutation z >= u whose leading entries form J.

    The permutations with leading set J form a parabolic coset.  Those above
    u have a unique minimum (Deodhar's lemma), built by :func:`_lift`; when
    there are none, this raises NoExtensionError.

    >>> min_extension((1, 3, 2), (2,))
    (2, 3, 1)
    >>> min_extension((1, 2, 3), (3,))
    (3, 1, 2)
    """
    _check_size(len(u))
    z = _lift(u, J)
    if z is None:
        raise NoExtensionError(f"no permutation above {u} with prefix {J}")
    return z


@lru_cache(maxsize=None)
def max_truncation(u: Perm, I: Subset) -> Perm:
    """The Bruhat-maximum permutation z <= u whose leading entries form I.

    Reversing values (x -> n+1-x) reverses Bruhat order, so this is the
    mirror of :func:`min_extension`:

    >>> r = lambda p: tuple(4 - x for x in p)
    >>> max_truncation((3, 2, 1), (1, 2)), r(min_extension(r((3, 2, 1)), r((2, 1))))
    ((2, 1, 3), (2, 1, 3))
    """
    _check_size(len(u))
    z = _lift_down(u, I)
    if z is None:
        raise NoExtensionError(f"no permutation below {u} with prefix {I}")
    return z


def _check_size(n: int) -> None:
    """Refuse n above MAX_N, which sizes :func:`_lift`'s fields and the
    8-bit subset field of the chain table's keys."""
    if n > MAX_N:
        raise ValueError(f"n={n} is outside the supported range 1..{MAX_N}")


def _lift_down(u: Perm, I: Subset) -> Perm | None:
    """The Bruhat-maximum z <= u whose first |I| entries form I, or None:
    :func:`_lift` on the value mirror x -> n+1-x."""
    m = len(u) + 1
    z = _lift(tuple(m - x for x in u), tuple(m - x for x in I))
    return z and tuple(m - x for x in z)


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
    above v.  The pair is refused as everywhere else (sizes, then Bruhat
    order), and both ends are tested against the masks that check returns."""
    mv, mw = _comparable_masks(v, w)
    n = len(v)
    top = perm_masks(min_defining_chain(cols, n)[-1])
    if top.prefix & ~mw.below:
        return False
    return not mv.prefix & ~perm_masks(max_defining_chain(cols, n)[0]).below


# ---------------------------------------------------------------------------
# the chain table


class _ChainTable:
    """The permutations of [n] that chain steps have reached, each stored once
    under a small integer id, with its prefix mask and the complement of its
    below mask (within ``full``, the mask of every subset) in lists indexed
    by that id, and the steps between them: ``up`` for :func:`min_extension`
    and ``down`` for :func:`max_truncation` (see :class:`_Steps`).  ``gale``
    is :func:`~richtoric.perms.gale_up` by subset index.
    """

    __slots__ = ("subsets", "full", "gale", "ids", "perms", "prefix", "not_below", "up", "down")

    def __init__(self, n: int):
        self.subsets = all_subsets(n)
        self.full = (1 << len(self.subsets)) - 1
        self.gale = tuple(gale_up(n).values())
        self.ids: dict[Perm, int] = {}
        self.perms: list[Perm] = []
        self.prefix: list[int] = []
        self.not_below: list[int] = []
        self.up = _Steps(self, False)
        self.down = _Steps(self, True)

    def intern(self, z: Perm) -> int:
        """The id of z, stored with its masks on first sight."""
        i = self.ids.get(z)
        if i is None:
            i = self.ids[z] = len(self.perms)
            masks = perm_masks(z)
            self.perms.append(z)
            self.prefix.append(masks.prefix)
            self.not_below.append(self.full ^ masks.below)
        return i


class _Steps(dict):
    """Chain steps keyed by ``perm_id << 8 | subset_index`` (the bit position
    of the subset in ``all_subsets(n)``, below 256 for n <= MAX_N), valued
    by the id of the step's end.  A miss lifts the step, with :func:`_lift`
    up or :func:`_lift_down` down, and stores it."""

    __slots__ = ("table", "down")

    def __init__(self, table: _ChainTable, down: bool):
        self.table, self.down = table, down

    def __missing__(self, key: int) -> int:
        table = self.table
        u, J = table.perms[key >> 8], table.subsets[key & 255]
        z = _lift_down(u, J) if self.down else _lift(u, J)
        if z is None:
            side = "below" if self.down else "above"
            raise NoExtensionError(f"no permutation {side} {u} with prefix {J}")
        i = self[key] = table.intern(z)
        return i


@lru_cache(maxsize=None)
def _chain_table(n: int) -> _ChainTable:
    """The chain table of S_n, shared by every :func:`count_standard` call."""
    _check_size(n)
    return _ChainTable(n)


# ---------------------------------------------------------------------------
# enumeration and counting


@lru_cache(maxsize=None)
def _serial_layout(n: int) -> tuple[tuple[Subset, ...], tuple[int, ...], tuple[int, ...]]:
    """The subsets of [n] in serialised order, the serialised position of
    each subset index, and each subset's Gale up-set renumbered to those
    positions, in serialised order."""
    order = tuple(sorted(all_subsets(n), key=subset_str))
    pos = {J: p for p, J in enumerate(order)}
    position = tuple(pos[J] for J in all_subsets(n))
    up = gale_up(n)
    return order, position, tuple(sum(1 << pos[J] for J in subsets_of(up[I], n)) for I in order)


def enumerate_ssyt(v: Perm, w: Perm, d: int) -> list[Tableau]:
    """All SSYT with exactly d columns, every column J satisfying v <= J <= w.

    Returned in canonical order (lexicographic on serialised columns), which
    the level-by-level extension gives without a sort (see the module
    docstring).
    """
    n = len(v)
    order, position, up = _serial_layout(n)
    T = sum(1 << position[i] for i in subset_indices(degree_mask(v, w, d, SSYT_BUDGET), n))
    cols = subset_indices(T, n)
    level = [(order[p],) for p in cols]
    if d > 1:
        succ = {order[p]: [order[q] for q in subset_indices(up[p] & T, n)] for p in cols}
        for _ in range(d - 1):
            level = [t + (J,) for t in level for J in succ[t[-1]]]
    return level


class _Bottoms(dict):
    """Max-chain bottom ids of suffixes, keyed by integer codes: a suffix
    (c_1, ..., c_k) of subset indices is c_1 | c_2 << 8 | ... | 1 << 8k, so
    ``code >> 8`` drops the first column and code 1 is the empty suffix."""

    __slots__ = ("down",)

    def __init__(self, table: _ChainTable, n: int):
        super().__init__({1: table.intern(longest(n))})
        self.down = table.down

    def __missing__(self, code: int) -> int:
        b = self[code] = self.down[self[code >> 8] << 8 | code & 255]
        return b


def count_standard(v: Perm, w: Perm, d: int) -> int:
    """Number of degree-d standard monomials for the Richardson variety of
    (v, w).

    Standard monomials have all columns between v and w.  In degree one
    every column J of T is standard, since its chains are its ascending
    completion, <= w as J <= w, and its descending completion, >= v as
    v <= J.  Above degree one, a depth-first walk over T's Gale successors
    meets every candidate.  The walk carries the top of each prefix's
    minimum chain, one :func:`min_extension` step per node; the empty
    prefix tops at the identity.  Since min_extension(u, J) >= u, tops only
    rise along a chain, so a prefix whose top is not <= w has no standard
    completion and the walk prunes it.  At a leaf, the bottom of the
    maximum chain is the :func:`max_truncation` of its suffix's bottom by
    the first column, with the suffix bottoms kept in a per-call memo; the
    empty suffix bottoms at w0.  Both Bruhat tests are one AND against a
    mask read once per call: a top z is <= w when no prefix set of z lies
    outside ``below[w]``, and a bottom b is >= v when no prefix set of v
    lies outside ``below[b]``.

    The walk runs on small integers.  Columns are subset indices, a
    column's successors are the bits of ``gale_up(n)[I] & T``, and chain
    permutations are ids in the chain table of S_n, which holds each one's
    masks and every step already taken, up and down, under an integer key
    (see :class:`_ChainTable`).  Each step is lifted once per process; the
    suffix bottoms are keyed by integer codes (see :class:`_Bottoms`).

    >>> count_standard((1, 2, 3), (3, 1, 2), 2), len(enumerate_ssyt((1, 2, 3), (3, 1, 2), 2))
    (14, 15)
    """
    T = degree_mask(v, w, d, SSYT_BUDGET)
    if d == 1:
        return T.bit_count()
    n = len(v)
    table = _chain_table(n)
    up, down, prefix, not_below = table.up, table.down, table.prefix, table.not_below
    not_below_w = table.full ^ perm_masks(w).below
    prefix_v = perm_masks(v).prefix
    succ = {i: subset_indices(table.gale[i] & T, n) for i in subset_indices(T, n)}
    bottoms = _Bottoms(table, n)
    sentinel = 1 << 8 * (d - 1)

    def walk(last: int, top: int, first: int, rest: int, depth: int) -> int:
        # the prefix has ``depth`` columns: ``first``, then the columns coded
        # in ``rest`` as in _Bottoms, ending in ``last``; ``top`` is its top
        count = 0
        base, shift = top << 8, 8 * (depth - 1)
        if depth + 1 < d:
            for j in succ[last]:
                z = up[base | j]
                if not prefix[z] & not_below_w:
                    count += walk(j, z, first, rest | j << shift, depth + 1)
            return count
        rest |= sentinel
        for j in succ[last]:
            if not prefix[up[base | j]] & not_below_w:
                count += not prefix_v & not_below[down[bottoms[rest | j << shift] << 8 | first]]
        return count

    root = table.intern(identity(n)) << 8
    count = 0
    for i in succ:
        z = up[root | i]
        if not prefix[z] & not_below_w:
            count += walk(i, z, i, 0, 1)
    return count


if __name__ == "__main__":
    import doctest

    doctest.testmod()
