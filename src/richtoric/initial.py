"""
The diagonal and antidiagonal monomial maps on flag coordinates, the
degree-two kernel they induce, restriction of that kernel to a Richardson
variety, and the resulting monomial-freeness classification.

Every coordinate P_J maps to a single monomial in a grid of variables
x_{i,j} (rows 1..n-1, columns 1..n):

    diagonal:       P_J -> x_{1,j_1} x_{2,j_2} ... x_{t,j_t},
    antidiagonal:   P_J -> x_{1,j_t} x_{2,j_{t-1}} ... x_{t,j_1},

for J = {j_1 < ... < j_t}.  One weight matrix, M[i][j] = (i-1)(n-j+1),
defines both maps.  Among the terms that put the elements of J in rows
1..t, one per row, the diagonal term is the unique one of least weight and
the antidiagonal term the unique one of greatest weight: row weights i-1
and column weights n-j+1 are distinct, so this is the rearrangement
inequality.

The degree-two kernel is computed by grouping all degree-two monomials in
the P variables by image and pairing every member of a class with its
first member in serialised order, in both orders (in the diagonal order,
the row-sorted tableau for n <= 9).  Restricting a kernel
binomial to the surviving coordinates T of a Richardson variety either
keeps it (both monomials survive), turns it into a monomial witness
(exactly one survives), or kills it.  The restricted ideal is generated by
the surviving binomials and witnesses, so it is monomial-free exactly when
no witness occurs.

The restriction runs on bit masks over ``all_subsets(n)`` (bit i is the
i-th subset in that order; see :mod:`richtoric.perms`).  T is
``interval_mask(v, w)`` = above[v] & below[w], and a side of a generator
survives iff all its columns lie in T.  A subset outside T is outside
above[v] or below[w], so a pair reads two folds: the bitsets of generators
whose lhs / rhs use a subset outside above[v] (the v-half La, Ra) and
outside below[w] (the w-half Lb, Rb).  With L = La | Lb and R = Ra | Rb, a
generator is a witness iff its bit is in L ^ R, survives iff it is in
neither, and vanishes iff it is in both; a verdict needs only the popcount
of L ^ R.  The folds are kept in one cache, keyed by permutation, order
and half, and shared by every path: the above side of p holds
(prefix[p], La, Ra) and the below side (below[p], Lb, Rb), so one lookup
per side gives a pair both its Bruhat test and its folds.  A side is put
together from parts, one per prefix set P of p, kept in one table per n
and order under P's element mask and filled on first use.  A part has two
halves, read from ``perms.prefix_set``: P's bit with the fold of its
layer's subsets outside P's up-cone, and P's down-cone in its layer with
the fold of the layer's subsets outside it.  On layer k, above[p] is the
up-cone of the k-th prefix set and below[p] its down-cone, so the subsets
outside either mask fall into disjoint layers and a side is n - 1 ORs of
one half of each part; the 62 prefix sets of S_6 serve all 720
permutations.  A sweep's ``witness_table`` reads both sides of every
permutation of S_n on each call (the table itself is not kept), while
``is_monomial_free`` and ``restrict`` fold only the side of v and the side
of w that their pair reads, which later pairs reuse:

>>> table, perms = witness_table(3, TermOrder.DIAGONAL), all_perms(3)
>>> (La, Ra), (Lb, Rb) = table[perms.index((1, 3, 2))][2:4], table[perms.index((3, 1, 2))][4:]
>>> (La, Ra), (Lb, Rb)
((0, 0), (1, 0))
>>> ((La | Lb) ^ (Ra | Rb)).bit_count()
1
>>> is_monomial_free((1, 3, 2), (3, 1, 2), TermOrder.DIAGONAL)
False
>>> report = restrict((1, 3, 2), (3, 1, 2), TermOrder.DIAGONAL)
>>> [(monomial_str(x.surviving), monomial_str(x.vanished), x.missing) for x in report.witnesses]
[('P13*P2', 'P23*P1', ((2, 3),))]
>>> report.survivors, report.vanished_count
((), 0)

A sweep walks up-sets instead of testing all (n!)^2 ordered pairs: v <= w
iff every bit of prefix[v] is in below[w], so the w above v are the AND,
over the bits of prefix[v], of the ``perm_up`` bitsets (for each subset
bit, the permutations whose below mask holds it).  ``upper_indices`` reads
the bits of prefix[v] and the set bits of that AND with ``perms.set_bits``,
the one decoder of every mask here (the folds' subsets, the Hilbert
counts' columns), in canonical order, and each comparable pair costs one
row lookup and one popcount:

>>> [perms[j] for j in upper_indices(table[perms.index((1, 3, 2))][0], 3)]
[(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

Two w0 symmetries relate the verdicts.  Write w0(J) = {n+1-j : j in J},
w0·u for (n+1-u_1, ..., n+1-u_n) and u·w0 for u's one-line notation
reversed.

Left map, proved for every n: the antidiagonal verdict at (v, w) is the
diagonal verdict at (w0·w, w0·v).

(a) T of (w0·w, w0·v) is w0(T_w^v).  The prefix sets of w0·u are the
    w0-images of those of u, and J -> w0(J) reverses the subset order on
    the sets of one size.  So J <= w iff w0·w <= w0(J), and v <= J iff
    w0(J) <= w0·v.
(b) The antidiagonal term of P_J is the diagonal term of P_{w0(J)} with
    the grid columns reflected, c -> n+1-c: w0(J) lists n+1-j_t < ... <
    n+1-j_1, so its diagonal term is x_{1,n+1-j_t} ... x_{t,n+1-j_1}.  The
    reflection is a renaming of variables, so sigma: P_J -> P_{w0(J)}
    carries the antidiagonal kernel onto the diagonal kernel, as ideals.
(c) The verdict depends only on the restricted ideal.  Restriction is a
    ring map, so any generating set restricts to a generating set.  A
    witness puts a monomial in the ideal.  Without one, every restricted
    generator is zero or a difference of two monomials, so the whole ideal
    vanishes at the all-ones point, where no monomial vanishes: the ideal
    holds no monomial.

By (a), sigma maps the coordinates of T_w^v onto those of the pair
(w0·w, w0·v), and so, by (b), the restricted antidiagonal ideal of (v, w)
onto the restricted diagonal ideal of (w0·w, w0·v).  A renaming of
variables keeps monomials monomials, so by (c) the verdicts agree.
Witness counts do not carry over: they differ on 27,248 of the 98,407
comparable pairs of S_6.

Right map, checked for n <= 8 only: (v, w) -> (w·w0, v·w0) keeps both the
verdict and the witness count, in both orders.  Its T is the set of
complements of T_w^v, and complementing every column maps each order's
kernel onto itself, lhs to lhs; that is a finite check, made for
n = 3..8, and no proof for larger n is known here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from enum import Enum
from functools import lru_cache
from math import factorial
from typing import Iterator, NamedTuple

from .perms import (
    Perm,
    SWEEP_MAX_N,
    Subset,
    Tableau,
    _comparable_masks,
    all_perms,
    all_subsets,
    check_same_n,
    degree_mask,
    prefix_set,
    serial_order,
    set_bits,
    subset_bits,
    subset_str,
    upper_indices,
)

#: Cap on |T|^d before enumerating degree-d monomials.
MONOMIAL_BUDGET = 2_000_000


class TermOrder(Enum):
    """The diagonal or antidiagonal monomial map.

    Pass a member, never its value: every function that builds a table for
    an order (the initial terms, the kernel, the folds, the code tables and
    so A and the polytope) refuses anything else, the string "diagonal"
    too, with ``TypeError`` before any cache keeps an entry for it.  Use
    ``TermOrder("diagonal")`` to turn a value into its member.
    """

    DIAGONAL = "diagonal"
    ANTIDIAGONAL = "antidiagonal"

    # Enum's own hash is a Python-level hash of the name, paid on every cache
    # key that holds an order; members are singletons compared by identity
    __hash__ = object.__hash__


Cell = tuple[int, int]  # (grid row, grid column), both 1-based


def weight_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The (n-1) x n weight matrix with entries (i-1)(n-j+1), 1-indexed.

    >>> weight_matrix(5)[1]
    (5, 4, 3, 2, 1)
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return tuple(
        tuple((i - 1) * (n - j + 1) for j in range(1, n + 1)) for i in range(1, n)
    )


def _check_order(order: TermOrder) -> None:
    """Refuse an ``order`` that is not a :class:`TermOrder` member."""
    if not isinstance(order, TermOrder):
        raise TypeError(f"order must be a TermOrder member, not {order!r}")


def initial_term(J: Subset, order: TermOrder) -> tuple[Cell, ...]:
    """Grid cells of the image of P_J, one per row 1..|J|.

    An ``order`` that is not a :class:`TermOrder` member is refused with
    ``TypeError``, the value of a member too:

    >>> initial_term((1, 3), "diagonal")
    Traceback (most recent call last):
    ...
    TypeError: order must be a TermOrder member, not 'diagonal'
    """
    _check_order(order)
    t = len(J)
    if order is TermOrder.DIAGONAL:
        return tuple((r + 1, J[r]) for r in range(t))
    return tuple((r + 1, J[t - 1 - r]) for r in range(t))


def plucker_weight(J: Subset, n: int) -> int:
    """Weight of the coordinate P_J under the diagonal weight matrix.

    >>> plucker_weight((1, 3, 5), 5)
    5
    """
    if J and J[-1] > n:
        raise ValueError(f"subset {J!r} does not fit inside [{n}]")
    return sum(r * (n - j + 1) for r, j in enumerate(J))


def phi_image(cols, order: TermOrder) -> tuple[Cell, ...]:
    """Image of a product of coordinates as a sorted multiset of grid cells."""
    cells: list[Cell] = []
    for J in cols:
        cells.extend(initial_term(tuple(J), order))
    cells.sort()
    return tuple(cells)


# ---------------------------------------------------------------------------
# the degree-two kernel


class KernelBinomial(NamedTuple):
    """An image-equal pair of degree-two monomials; rhs is its class's first."""

    lhs: Tableau
    rhs: Tableau


def monomial_str(cols) -> str:
    return "*".join("P" + subset_str(tuple(c)) for c in cols)


@lru_cache(maxsize=None)
def degree2_kernel_generators(n: int, order: TermOrder) -> tuple[KernelBinomial, ...]:
    """Generators of the full degree-two kernel of the monomial map.

    Every class member is paired with the canonical representative, so the
    result is a superset of any minimal generating set; completeness of the
    restriction test depends on that.

    A pair (A, B), the wider column first as in ``sort_columns``, is keyed
    by its image ``code[A] + code[B]``, read from :func:`_code_table` with
    2-bit fields (a column hits a cell at most once, so no field carries),
    and recorded as one integer, rank[A] * size + rank[B], where rank[A]
    is A's position in ``serial_order(n)``.  The classes with two or more
    members run in order of their sorted cells, and the members of each in
    order of those integers; the first member of a class is its rhs in
    both orders.  In the diagonal order that is the row-sorted member: the
    members share both column sizes and each row's pair of values, so the
    row-sorted first column is componentwise <= each member's, as a digit
    string (n <= 9) has the least label, and fixes the second column.  Comma
    labels give 12,748 diagonal classes of n = 10 another rhs; a class
    yields a witness iff T keeps some but not all of its members, so by (c)
    of the module docstring no verdict changes, only ``restrict``'s lists.

    >>> from richtoric.tableaux import row_sort
    >>> (diag,), (anti,) = (degree2_kernel_generators(3, o) for o in TermOrder)
    >>> diag, row_sort(diag.lhs) == diag.rhs
    (KernelBinomial(lhs=((2, 3), (1,)), rhs=((1, 3), (2,))), True)
    >>> anti
    KernelBinomial(lhs=((1, 3), (2,)), rhs=((1, 2), (3,)))
    >>> [[*map(subset_str, g.rhs)] < [*map(subset_str, g.lhs)] for g in (diag, anti)]
    [True, True]
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    subs = all_subsets(n)
    size = len(subs)
    codes = _code_table(n, 2, order)
    by_label, low = serial_order(n)
    high = [r * size for r in low]
    classes: defaultdict[int, list[int]] = defaultdict(list)
    for a, A in enumerate(subs):
        code, k, ha, la = codes[a], len(A), high[a], low[a]
        for b in range(a, size):
            # sort_columns((A, B)): subs runs by size, then lexicographically
            key = high[b] + la if len(subs[b]) > k else ha + low[b]
            classes[code + codes[b]].append(key)
    cells = {J: initial_term(J, order) for J in subs}

    def image(keys: list[int]) -> list[Cell]:
        a, b = divmod(keys[0], size)
        return sorted(cells[by_label[a]] + cells[by_label[b]])

    gens: list[KernelBinomial] = []
    make = tuple.__new__  # what KernelBinomial._make does, without the call
    for keys in sorted((ks for ks in classes.values() if len(ks) > 1), key=image):
        keys.sort()
        canon, *rest = [(by_label[k // size], by_label[k % size]) for k in keys]
        gens.extend(make(KernelBinomial, (m, canon)) for m in rest)
    return tuple(gens)


# ---------------------------------------------------------------------------
# restriction to a Richardson variety


class MonomialWitness(NamedTuple):
    generator: KernelBinomial
    surviving: Tableau
    vanished: Tableau
    missing: tuple[Subset, ...]  # columns of the vanished term outside T


class RestrictionReport(NamedTuple):
    v: Perm
    w: Perm
    order: TermOrder
    survivors: tuple[KernelBinomial, ...]
    witnesses: tuple[MonomialWitness, ...]
    vanished_count: int

    @property
    def monomial_free(self) -> bool:
        return not self.witnesses


@lru_cache(maxsize=None)
def _users(n: int, order: TermOrder) -> tuple[tuple[int, int], ...]:
    """Per subset bit: the bitsets (bit g for the g-th generator of
    ``degree2_kernel_generators``) of the generators whose lhs / rhs use
    that subset.  Each bitset is set in a byte buffer, then read as one int."""
    gens = degree2_kernel_generators(n, order)
    index = {J: i for i, J in enumerate(all_subsets(n))}
    size = (len(gens) + 7) // 8
    lhs_users = [bytearray(size) for _ in index]
    rhs_users = [bytearray(size) for _ in index]
    for g, (lhs, rhs) in enumerate(gens):
        byte, flag = g >> 3, 1 << (g & 7)
        for c in lhs:
            lhs_users[index[c]][byte] |= flag
        for c in rhs:
            rhs_users[index[c]][byte] |= flag
    return tuple(
        (int.from_bytes(lhs, "little"), int.from_bytes(rhs, "little"))
        for lhs, rhs in zip(lhs_users, rhs_users)
    )


def _fold(inside: int, n: int, order: TermOrder) -> tuple[int, int]:
    """The generator bitsets (L, R) of the lhs / rhs that use a subset
    outside ``inside``."""
    users = _users(n, order)
    lhs = rhs = 0
    for i in set_bits(~inside & (1 << len(users)) - 1):
        lhs_users, rhs_users = users[i]
        lhs, rhs = lhs | lhs_users, rhs | rhs_users
    return lhs, rhs


@lru_cache(maxsize=None)
def _prefix_parts(n: int, order: TermOrder) -> list[tuple[tuple[int, ...], ...] | None]:
    """Per prefix set P, at the element mask of P (bit j-1 for each j in P):
    :func:`_prefix_part` of P once a side has read it, None before.  The
    order is checked here, since no part is folded before a side reads it."""
    _check_order(order)
    return [None] * (1 << n)


def _prefix_part(
    parts: list[tuple[tuple[int, ...], ...] | None], key: int, n: int, order: TermOrder
) -> tuple[tuple[int, ...], ...]:
    """Fill ``parts[key]`` with ((bit, La, Ra), (down, Lb, Rb)) for the set P
    of the elements in ``key``: P's subset bit with the fold of its layer's
    subsets outside its up-cone, and P's down-cone in its layer with the
    fold of the layer's subsets outside it (:func:`richtoric.perms.prefix_set`)."""
    bit, layer, down, up = prefix_set(n, key)
    parts[key] = part = (
        (bit, *_fold(~layer | up, n, order)),
        (down, *_fold(~layer | down, n, order)),
    )
    return part


# holds both sides of every permutation of S_7 in both orders; a bound,
# because single pairs at n = 8 would otherwise fill it for the life of the
# process; ``witness_table`` above S_7 folds around it.  A miss ORs one half
# of each of the n - 1 parts of p's prefix sets, with no mask decoded and no
# subset outside the side's mask visited
@lru_cache(maxsize=4 * factorial(SWEEP_MAX_N))
def _side(p: Perm, order: TermOrder, below: bool) -> tuple[int, int, int]:
    """The above side of p, (prefix, La, Ra): its prefix mask and the fold
    of its above mask; with ``below``, its below side (below, Lb, Rb)."""
    n = len(p)
    parts, key = _prefix_parts(n, order), 0
    mask = lhs = rhs = 0
    for x in p[:-1]:
        key |= 1 << (x - 1)
        m, la, ra = (parts[key] or _prefix_part(parts, key, n, order))[below]
        mask, lhs, rhs = mask | m, lhs | la, rhs | ra
    return mask, lhs, rhs


def witness_table(n: int, order: TermOrder) -> tuple[tuple[int, ...], ...]:
    """Per permutation p, in ``all_perms`` order: (prefix, below, La, Ra, Lb, Rb).

    prefix and below are p's ``perm_masks``.  La / Ra are the bitsets (bit g
    for the g-th generator of ``degree2_kernel_generators``) of the generators
    whose lhs / rhs uses a subset outside above[p]; Lb / Rb the same outside
    below[p].  The table itself is not cached: each call reads every row
    from the side cache, which holds both sides of S_n in both orders for n
    up to ``SWEEP_MAX_N``.  Above it the sides are folded uncached, so a
    larger table evicts none of them.
    """
    side = _side if n <= SWEEP_MAX_N else _side.__wrapped__
    rows = []
    for p in all_perms(n):
        prefix, la, ra = side(p, order, False)
        below, lb, rb = side(p, order, True)
        rows.append((prefix, below, la, ra, lb, rb))
    return tuple(rows)


def restrict(v: Perm, w: Perm, order: TermOrder) -> RestrictionReport:
    """Restriction of the cached degree-two kernel to the pair (v, w).

    Reads the same two :func:`_side` entries as :func:`is_monomial_free`,
    the above side of v and the below side of w.  With L = La | Lb
    and R = Ra | Rb, a generator is a witness iff its bit is in L ^ R (the
    side whose bit is set vanished), survives iff its bit is in neither, and
    vanishes iff its bit is in L & R.
    """
    mv, mw = _comparable_masks(v, w)
    n = len(v)
    _, la, ra = _side(v, order, False)
    _, lb, rb = _side(w, order, True)
    lhs_out, rhs_out = la | lb, ra | rb
    gens = degree2_kernel_generators(n, order)
    T, bit = mv.above & mw.below, subset_bits(n)
    witnesses = []
    for g in set_bits(lhs_out ^ rhs_out):
        gen = gens[g]
        alive, dead = (gen.rhs, gen.lhs) if lhs_out >> g & 1 else (gen.lhs, gen.rhs)
        missing = tuple(c for c in dead if not bit[c] & T)
        witnesses.append(MonomialWitness(gen, alive, dead, missing))
    every = (1 << len(gens)) - 1
    survivors = tuple(gens[g] for g in set_bits(every & ~(lhs_out | rhs_out)))
    return RestrictionReport(
        v, w, order, survivors, tuple(witnesses), (lhs_out & rhs_out).bit_count()
    )


def is_monomial_free(v: Perm, w: Perm, order: TermOrder) -> bool:
    """True iff no kernel generator restricts to a monomial on (v, w).

    Reads the above side of v and the below side of w from the one side
    cache, :func:`_side`, the same folds that ``witness_table`` rows hold: the pair is monomial-free iff
    (La | Lb) ^ (Ra | Rb) is empty.  Sizes are refused first, then a pair
    with v not below w, tested on the sides' prefix and below masks; so a
    refused pair has folded both its sides (at a new n, the kernel is built).
    """
    check_same_n(v, w)
    prefix, la, ra = _side(v, order, False)
    below, lb, rb = _side(w, order, True)
    if prefix & ~below:
        _comparable_masks(v, w)  # the empty-variety refusal
    return not (la | lb) ^ (ra | rb)


# ---------------------------------------------------------------------------
# classification sweeps


class ClassifyRecord(NamedTuple):
    v: Perm
    w: Perm
    monomial_free: bool
    num_witnesses: int


def classify_rows(n: int, order: TermOrder) -> Iterator[ClassifyRecord]:
    """Monomial-freeness verdicts for all Bruhat-comparable pairs in S_n, one
    at a time in canonical (v, w) order.  n is checked at the call; the sweep
    and its ``witness_table`` start at the first row."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > SWEEP_MAX_N:
        raise ValueError(f"n={n} is outside the supported range 2..{SWEEP_MAX_N}")
    return _sweep(n, order)


def _sweep(n: int, order: TermOrder) -> Iterator[ClassifyRecord]:
    perms = all_perms(n)
    table = witness_table(n, order)
    record = tuple.__new__  # what ClassifyRecord._make does, without the call
    tops = [(w, lb, rb) for w, (_, _, _, _, lb, rb) in zip(perms, table)]
    for v, (prefix, _, la, ra, _, _) in zip(perms, table):
        for j in upper_indices(prefix, n):
            w, lb, rb = tops[j]
            count = ((la | lb) ^ (ra | rb)).bit_count()
            yield record(ClassifyRecord, (v, w, not count, count))


def classify_all(n: int, order: TermOrder) -> list[ClassifyRecord]:
    """The rows of :func:`classify_rows` as one list."""
    return list(classify_rows(n, order))


# ---------------------------------------------------------------------------
# Hilbert-style counts of the restricted kernel


@lru_cache(maxsize=None)
def _code_table(n: int, width: int, order: TermOrder) -> tuple[int, ...]:
    """One integer per subset of ``all_subsets(n)``, by index: bit 1 in the
    field of each cell of its initial term, cell (r, j) owning the ``width``
    bits from width * ((r-1) n + j-1).  Built once per n, width and order,
    and read by the kernel build (width 2) and :func:`kernel_hilbert_dim`."""
    return tuple(
        sum(1 << width * ((r - 1) * n + j - 1) for r, j in initial_term(J, order))
        for J in all_subsets(n)
    )


def kernel_hilbert_dim(v: Perm, w: Perm, d: int, order: TermOrder) -> int:
    """Number of distinct images of degree-d monomials in surviving
    coordinates.

    For d = 1 this is |T|: no two coordinates share an initial term.  For
    the diagonal order on family pairs it matches the semi-standard tableau
    count, which the test suite checks rather than assumes.

    Above degree one, each column of T is read from :func:`_code_table`, a
    field of d.bit_length() bits per grid cell.  A column hits a cell at
    most once, so a degree-d exponent never carries out of its field, and
    the image of a monomial is the sum of its columns' codes.  On the
    3-column grid at d = 2 (2-bit fields, cells in row-major order), P_1 P_23
    and P_2 P_13 share the image x_11 x_12 x_23:

    >>> table, index = _code_table(3, 2, TermOrder.DIAGONAL), all_subsets(3).index
    >>> codes = [table[index(J)] for J in [(1,), (2, 3), (2,), (1, 3)]]
    >>> fields = lambda c: [c >> 2 * i & 3 for i in range(6)]
    >>> [fields(c) for c in codes]
    [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 1]]
    >>> fields(codes[0] + codes[1]), codes[0] + codes[1] == codes[2] + codes[3]
    ([1, 1, 0, 0, 0, 1], True)
    """
    mask = degree_mask(v, w, d, MONOMIAL_BUDGET)
    if d == 1:
        return mask.bit_count()
    n = len(v)
    table = _code_table(n, d.bit_length(), order)
    codes = [table[i] for i in set_bits(mask)]
    return len(set(map(sum, itertools.combinations_with_replacement(codes, d))))

