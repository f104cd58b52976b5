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

The walks over tableaux share one table per n (:class:`_ChainTable`), whose
columns are the subsets of [n] numbered in serialised order
(:func:`~richtoric.perms.serial_order`).  A column's successors among the
columns of T are the bits of its Gale up-set within T, one AND per column
and no :func:`gale_leq` call; the up-set is the union of the up-cones of
the column's leading sets (:func:`~richtoric.perms.prefix_set`).  The table
keeps the successor lists of the last T it was asked for, keyed by T's
mask, so the degrees of one pair, enumerated and counted, build them once.
:func:`enumerate_ssyt` extends level by level: level 1 is T in serialised
order, and every tableau of a level is followed, in order, by its last
column's successors in that order.  A level sorted by serialised columns
thus gives a sorted next level, so the canonical order needs no sort.

:func:`count_standard` walks small integers: columns, and chain
permutations as ids in the same table, which stores each one reached with
its masks and two rows of chain steps, up (:func:`min_extension`) and down
(:func:`max_truncation`), dicts keyed by column.  A miss takes the step
with :func:`_step`; later calls read it back, so a warm walk hashes only
small ints and builds no key.  The chain ends of a two-column tableau I, J
are two steps through those rows: the minimum chain's top is
``up[up[id][I]][J]`` and the maximum chain's bottom ``down[down[w0][J]][I]``,
with the identity's and w0's rows read once per call.  Degree two reads
both ends of each tableau so; above, the walk steps through every column
but the last two, which it counts by popcount against bitsets of rights
grouped by top and by bottom.  Every chain end is tested with one AND
against masks of v and w.

A chain step makes no subset comparison either.  :func:`_lift` keeps, for
every threshold t, the slack between u's prefix count and the chosen
prefix count of entries <= t, all thresholds packed in one int.  The next
entry is the least free value above the highest threshold with no slack,
found with a few integer operations and reads of tables made at import;
when there is none, no extension exists, so the step needs no separate
existence test.  A step down lifts on the value mirror x -> n+1-x, from
tables made once per n.

Tableaux serialise as bracketed column lists, e.g. "[125,246,35]"; chains as
bracketed permutation lists.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .perms import (
    MAX_N,
    Perm,
    Subset,
    Tableau,
    _comparable_masks,
    ascending_completion,
    bruhat_leq,  # unused here; perfbench/test_perfbench.py reads tableaux.bruhat_leq
    degree_mask,
    descending_completion,
    gale_leq,
    identity,
    longest,
    perm_masks,
    perm_str,
    prefix_set,
    serial_order,
    set_bits,
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


#: Width of one slack field in :func:`_lift`: a slack s (at most MAX_N) held
#: as 2**(_FIELD-1) - 1 + s, so the field never borrows and its top bit, the
#: guard, is clear exactly when s = 0.
_FIELD = 5
_ONES = sum(1 << _FIELD * t for t in range(MAX_N + 1))
_GUARDS = _ONES << _FIELD - 1
#: Every slack zero, so every guard clear.
_TIGHT = _GUARDS - _ONES
#: _STEP[x] is one in every field t >= x, the count of one value x <= t.
_STEP = tuple(_ONES >> _FIELD * x << _FIELD * x for x in range(MAX_N + 1))
#: _ABOVE[b] masks the values above threshold t when b, the bit length of
#: the clear guards, is that of t's guard, _FIELD * (t + 1).
_ABOVE = tuple(-1 << b // _FIELD for b in range(_FIELD * (MAX_N + 1) + 1))
#: _BIT[y] is value y's bit, and _LOW[a] the lowest value in the mask a.
_BIT = tuple(1 << y for y in range(MAX_N + 1))
_LOW = (0,) + tuple((a & -a).bit_length() - 1 for a in range(1, 2 << MAX_N))


def _lift(u: Perm, pool: int, steps: tuple[int, ...], values: tuple[int, ...]) -> Perm | None:
    """The Bruhat-minimum z >= u whose first |J| entries form J, or None
    when there is none; J is given as ``pool``, bit x for each value x.

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

    The slack of every t sits in one int, one _FIELD-bit field per t held
    so that its guard bit is clear exactly when the slack is zero; the
    highest clear guard is m's.  Values are bits of a mask, and the rest is
    read from tables made at import: the candidates above m by the bit
    length of the clear guards (_ABOVE), the least candidate (_LOW) and its
    bit (_BIT).  So one step is a few integer operations and subscripts.
    J's unused values run out just after position |J|, and from there the
    pool is every unused value.  The last value left needs no test: the
    prefix [n] dominates.

    ``steps[x]`` adds u's entry x to the slack and ``values[y]`` is the
    value y stands for: _STEP and the identity step up; their value mirror
    x -> n+1-x (:func:`_lifts`), J mirrored in ``pool``, steps down.
    """
    free = (2 << len(u)) - 2
    s, z = _TIGHT, []
    for x in u[:-1]:
        s += steps[x]
        above = (free & pool or free) & _ABOVE[(~s & _GUARDS).bit_length()]
        if not above:
            return None
        y = _LOW[above]
        free ^= _BIT[y]
        s -= _STEP[y]
        z.append(values[y])
    z.append(values[_LOW[free]])
    return tuple(z)


@lru_cache(maxsize=None)
def _lifts(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The ``steps`` and ``values`` of :func:`_lift` in S_n, up then down
    (on the value mirror x -> n+1-x); n above MAX_N is refused."""
    _check_size(n)
    return (_STEP, tuple(range(n + 1))), ((0,) + _STEP[n:0:-1], tuple(range(n + 1, 0, -1)))


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
    return _step(u, J, False, *_column(u, J, False))


@lru_cache(maxsize=None)
def max_truncation(u: Perm, I: Subset) -> Perm:
    """The Bruhat-maximum permutation z <= u whose leading entries form I.

    Reversing values (x -> n+1-x) reverses Bruhat order, so this is the
    mirror of :func:`min_extension`:

    >>> r = lambda p: tuple(4 - x for x in p)
    >>> max_truncation((3, 2, 1), (1, 2)), r(min_extension(r((3, 2, 1)), r((2, 1))))
    ((2, 1, 3), (2, 1, 3))
    """
    return _step(u, I, True, *_column(u, I, True))


def _column(u: Perm, J: Subset, down: bool) -> tuple[int | None, tuple]:
    """J's ``pool`` for a step of u, up or down, and that direction's
    :func:`_lifts`; a J that is not a set in 1..n gets None, a refusal."""
    lift = _lifts(len(u))[down]
    pool = sum(1 << lift[1][x] for x in set(J) if 0 < x <= len(u))
    return pool if pool.bit_count() == len(J) else None, lift


def _step(u: Perm, J: Subset, down: bool, pool: int | None, lift: tuple) -> Perm:
    """:func:`min_extension`, or with ``down`` :func:`max_truncation`, with
    J given as its ``pool`` and the direction's ``lift`` data too: every
    chain step, cached or in the chain table's rows, and its refusal."""
    z = pool is not None and _lift(u, pool, *lift)
    if not z:
        side = "below" if down else "above"
        raise NoExtensionError(f"no permutation {side} {u} with prefix {J}")
    return z


def _check_size(n: int) -> None:
    """Refuse n above MAX_N, which sizes :func:`_lift`'s fields."""
    if n > MAX_N:
        raise ValueError(f"n={n} is outside the supported range 1..{MAX_N}")


def _chain_columns(cols, n: int) -> Tableau:
    """The columns as tuples, refused unless they form a nonempty SSYT on [n]."""
    cols = tuple(tuple(c) for c in cols)
    if not cols:
        raise ValueError("empty tableau has no defining chain")
    if not all(0 < x <= n for c in cols for x in c):
        raise ValueError(f"entries outside 1..{n}: {tableau_str(cols)}")
    if not all(a < b for c in cols for a, b in zip(c, c[1:])):
        raise ValueError(f"column not strictly increasing: {tableau_str(cols)}")
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
    """The tableau walks' table of S_n.  Columns are positions in
    :func:`~richtoric.perms.serial_order`: ``subsets`` lists them,
    :meth:`serial` renumbers a subset mask to them, and ``gale`` holds each
    column I's Gale up-set so renumbered, the union of the
    :func:`~richtoric.perms.prefix_set` up-cones of I[:1], ..., I[:|I|].
    The permutations that chain steps have reached are stored once each
    under a small integer id, with its prefix mask and the complement of
    its below mask (within ``full``; both in ``all_subsets`` bits) in lists
    indexed by that id, both ORed from the ``prefix_set`` entries along
    the permutation's running key, and two rows made then: ``up[i]`` for
    :func:`min_extension` and ``down[i]`` for :func:`max_truncation`, step
    ends keyed by column that step on a miss with the column's mask in
    ``pools`` (up, then down on the value mirror); both are :class:`_Row`.
    Every key is a column, a small int, so a lookup allocates none.  The
    ends of the tableau I, J are steps too: the identity stepped up
    through I then J, and w0 stepped down through J then I.
    ``last_mask`` is the last T whose successors were asked for, kept with
    its lists by column (``last_succ``) and by subset (``last_columns``,
    None until asked for).

    >>> table = _chain_table(3)
    >>> I, J = table.subsets.index((1, 2)), table.subsets.index((1, 3))
    >>> up, down = table.up, table.down
    >>> top = up[up[table.intern((1, 2, 3))][I]][J]
    >>> bottom = down[down[table.intern((3, 2, 1))][J]][I]
    >>> table.perms[top], table.perms[bottom]
    ((1, 3, 2), (2, 1, 3))
    """

    __slots__ = ("n", "subsets", "position", "gale", "full", "pools", "lifts", "ids", "perms",
                 "prefix", "not_below", "up", "down", "last_mask", "last_succ", "last_columns")

    def __init__(self, n: int):
        self.n = n
        self.subsets, self.position = serial_order(n)
        self.full = (1 << len(self.subsets)) - 1
        self.gale = tuple(
            self.serial(sum(prefix_set(n, key)[3] for key in accumulate(1 << (x - 1) for x in J)))
            for J in self.subsets
        )
        self.pools = [[sum(1 << (n + 1 - x if down else x) for x in J) for J in self.subsets] for down in (0, 1)]
        self.lifts = _lifts(n) if n <= MAX_N else None
        self.ids: dict[Perm, int] = {}
        self.perms: list[Perm] = []
        self.prefix: list[int] = []
        self.not_below: list[int] = []
        self.up: list[_Row] = []
        self.down: list[_Row] = []
        self.last_mask: int | None = None
        self.last_succ: dict[int, list[int]] = {}
        self.last_columns: dict[Subset, list[Subset]] | None = None

    def serial(self, mask: int) -> int:
        """A subset mask renumbered from ``all_subsets`` bits to columns."""
        position = self.position
        return sum(1 << position[i] for i in set_bits(mask))

    def successors(self, mask: int) -> dict[int, list[int]]:
        """Each column I of T, in ascending order, with the columns J of T
        with I <= J, ascending; T is given by its ``all_subsets`` mask.  The
        last T's lists are kept, so the degrees of one pair build them once."""
        if mask != self.last_mask:
            gale, T = self.gale, self.serial(mask)
            self.last_succ = {p: set_bits(gale[p] & T) for p in set_bits(T)}
            self.last_mask, self.last_columns = mask, None
        return self.last_succ

    def column_successors(self, mask: int) -> dict[Subset, list[Subset]]:
        """:meth:`successors` with each column as its subset, kept alike."""
        succ = self.successors(mask)
        if self.last_columns is None:
            subsets = self.subsets
            self.last_columns = {subsets[p]: [subsets[q] for q in qs] for p, qs in succ.items()}
        return self.last_columns

    def intern(self, z: Perm) -> int:
        """The id of z, stored with its masks and rows on first sight; the
        masks are those of :func:`~richtoric.perms.perm_masks`, folded
        here without its above mask or a cache entry."""
        i = self.ids.get(z)
        if i is None:
            i = self.ids[z] = len(self.perms)
            n, prefix, below, key = self.n, 0, 0, 0
            for x in z[:-1]:
                key |= 1 << (x - 1)
                bit, _, down, _ = prefix_set(n, key)
                prefix, below = prefix | bit, below | down
            self.perms.append(z)
            self.prefix.append(prefix)
            self.not_below.append(self.full ^ below)
            self.up.append(_Row(self, False, z))
            self.down.append(_Row(self, True, z))
        return i


class _Row(dict):
    """Chain table ids keyed by column: the ids of u stepped up, or with
    ``down`` down, through each column; a miss takes the step."""

    __slots__ = ("table", "down", "u")

    def __init__(self, table: _ChainTable, down: bool, u: Perm):
        self.table, self.down, self.u = table, down, u

    def __missing__(self, c: int) -> int:
        table, down = self.table, self.down
        z = _step(self.u, table.subsets[c], down, table.pools[down][c], table.lifts[down])
        i = self[c] = table.intern(z)
        return i


@lru_cache(maxsize=None)
def _chain_table(n: int) -> _ChainTable:
    """The table of S_n, shared by every :func:`enumerate_ssyt` and
    :func:`count_standard` call.  Any n is accepted; :func:`count_standard`
    refuses n above MAX_N before its first chain step."""
    return _ChainTable(n)


# ---------------------------------------------------------------------------
# enumeration and counting


def enumerate_ssyt(v: Perm, w: Perm, d: int) -> list[Tableau]:
    """All SSYT with exactly d columns, every column J satisfying v <= J <= w.

    Returned in canonical order (lexicographic on serialised columns), which
    the level-by-level extension gives without a sort (see the module
    docstring).
    """
    mask = degree_mask(v, w, d, SSYT_BUDGET)
    succ = _chain_table(len(v)).column_successors(mask)
    level = [(J,) for J in succ]
    for _ in range(d - 1):
        level = [t + (J,) for t in level for J in succ[t[-1]]]
    return level


def count_standard(v: Perm, w: Perm, d: int) -> int:
    """Number of degree-d standard monomials for the Richardson variety of
    (v, w).

    Standard monomials have all columns between v and w.  In degree one
    every column J of T is standard, since its chains are its ascending
    completion, <= w as J <= w, and its descending completion, >= v as
    v <= J.  Above, a tableau is standard when the top of its minimum chain
    is <= w and the bottom of its maximum chain is >= v, each one AND
    against a mask read once per call: a top z is <= w when no prefix set
    of z lies outside ``below[w]``, and a bottom b is >= v when no prefix
    set of v lies outside ``below[b]``.

    In degree two both ends of each Gale pair I, J of T are two steps in
    the chain table's rows: the top from the identity's up row, through I
    then J, and, only when that top is <= w, the bottom from w0's down
    row, through J then I.  Above, a depth-first walk over T's Gale
    successors meets every prefix of d - 2 columns, carrying the top of its
    minimum chain, one :func:`min_extension` step per node from the
    identity.  Tops only rise along a chain, as min_extension(u, J) >= u,
    so a prefix whose top is not <= w is pruned.  The last two columns, a
    middle c and a right k, are counted at once per c.  The rights whose
    top is <= w form one bitset, kept for the call per distinct top of the
    prefix and c.  Their two-column tops are <= w too, and the rights with
    that property are grouped per c into one bitset per distinct
    two-column bottom, both ends read through the rows as in degree two;
    the groups whose bottom, stepped down by :func:`max_truncation`
    through the prefix, is >= v are ORed, and the count grows by the
    popcount of the AND.  Each chain step taken is one that a walk to
    every leaf takes.

    The walk runs on columns and chain permutation ids of the table of S_n
    (:class:`_ChainTable`); each step is lifted once per process.

    >>> count_standard((1, 2, 3), (3, 1, 2), 2), len(enumerate_ssyt((1, 2, 3), (3, 1, 2), 2))
    (14, 15)
    """
    mask = degree_mask(v, w, d, SSYT_BUDGET)
    if d == 1:
        return mask.bit_count()
    n = len(v)
    _check_size(n)
    table = _chain_table(n)
    up, down = table.up, table.down
    prefix, not_below = table.prefix, table.not_below
    not_below_w = table.full ^ perm_masks(w).below
    prefix_v = perm_masks(v).prefix
    succ = table.successors(mask)
    start = table.intern(identity(n))
    first, last = up[start], down[table.intern(longest(n))]
    if d == 2:
        count = 0
        for c, ks in succ.items():
            top = up[first[c]]
            for k in ks:
                if not prefix[top[k]] & not_below_w:
                    count += not prefix_v & not_below[down[last[k]][c]]
        return count
    # per column c: its rights k whose two-column top is <= w, as one bitset
    # per distinct two-column bottom of (c, k); their union is the rights
    # of c's own top, the top of the prefix c, c
    rights: dict[int, dict[int, int]] = {}
    groups: dict[int, list[tuple[int, int]]] = {}
    for c, ks in succ.items():
        by: dict[int, int] = {}
        top, union = up[first[c]], 0
        for k in ks:
            if not prefix[top[k]] & not_below_w:
                b, bit = down[last[k]][c], 1 << k
                by[b] = by.get(b, 0) | bit
                union |= bit
        groups[c] = list(by.items())
        rights[c] = {first[c]: union}

    def walk(cols: tuple[int, ...], top: int) -> int:
        # ``cols``: a prefix of at most d - 2 columns, last column first,
        # whose minimum chain tops out at ``top``, which is <= w
        count, row = 0, up[top]
        if len(cols) + 2 < d:
            for j in succ[cols[0]] if cols else succ:
                z = row[j]
                if not prefix[z] & not_below_w:
                    count += walk((j,) + cols, z)
            return count
        last, rest = cols[0], cols[1:]
        for c in succ[last]:
            z = row[c]
            if prefix[z] & not_below_w:
                continue
            known = rights[c]
            ks = known.get(z)
            if ks is None:
                zrow, ks = up[z], 0
                for k in succ[c]:
                    if not prefix[zrow[k]] & not_below_w:
                        ks |= 1 << k
                known[z] = ks
            if ks:
                ok = 0
                for b, group in groups[c]:
                    if group & ks:
                        b = down[b][last]
                        for p in rest:
                            b = down[b][p]
                        if not prefix_v & not_below[b]:
                            ok |= group
                count += (ok & ks).bit_count()
        return count

    return walk((), start)

