"""
The lattice polytope of a toric degeneration of a Richardson variety,
assembled from the restricted monomial-map matrix and the incidence matrix
of a product of projective spaces.

The surviving coordinates of a pair (v, w) split into projective factors by
subset size.  Matrix A records the grid exponent vector of each surviving
coordinate (zero rows dropped); matrix S records, for every choice of one
coordinate per factor, which coordinates were chosen; the product AS lists
the exponent vectors of those products.  The polytope is the convex hull of
the columns of AS; duplicate columns correspond to image-equal products and
are reported explicitly.

Each column of AS is the sum of one column of A per factor, so
:func:`polytope` folds those sums factor by factor and never builds S or
AS: the points are the Minkowski sumset of the factors' column sets.  The
affine hull of a Minkowski sum is the sum of the factors' affine hulls, so
the affine dimension is the rank of the in-factor differences A_J - A_J0,
at most |T| vectors however many points the sumset has.  S is built only
for display, by :func:`segre_matrix`; the CLI reads AS back from the points
by their labels, and :meth:`IntMatrix.mul` is the independent check.  It
packs one byte per product entry, the one width A times S needs: S is 0/1,
so an entry of AS is at most a row sum of A, and a row of A is a grid cell
in the initial terms of at most 2^(n-1) - 1 proper subsets, below 256 for
n <= 9; factors whose product entries could reach 256 take the plain
row-by-column product.  The last pair's A (:func:`restricted_map_matrix`)
and Segre labels (:func:`_segre_labels`) are kept, so a display of the
pair that :func:`polytope` has just built reads them back; no result
outlives the next pair.

All arithmetic is on integers.  One fraction-free elimination routine,
:func:`_reduce`, reduces an integer vector against integer echelon rows and
divides each step by its gcd (integer-preserving Gaussian elimination);
:func:`echelon_insert` keeps what it leaves nonzero.  Affine dimension is
the number of echelon rows spanning the translated points.  Lattice-point
enumeration, supported up to affine dimension three, walks the bounding
box of the hull's projection onto the k pivot columns of the echelon: the
projection is one-to-one on the affine hull, one facet routine, the same
in every dimension, tests convexity there on plain integer coordinates,
and the same echelon rows, reduced against each other, lift each point
inside back to the ambient lattice.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce
from typing import NamedTuple

from .perms import (
    BudgetError,
    Perm,
    Subset,
    all_subsets,
    enumerate_T,
    interval_mask,
    set_bits,
    subset_str,
)
from .initial import TermOrder, _code_table

#: Cap on the volume of the box that :func:`lattice_points` scans: the
#: bounding box of the points projected onto the echelon's pivot columns.
LATTICE_BUDGET = 1_000_000

#: Cap on the number of products (columns of S and AS); the largest n <= 5
#: interval, (12345, 54321), has 2,500.
SEGRE_BUDGET = 20_000

_ROW_LETTERS = ("x", "y", "z")

#: How :meth:`IntMatrix.text` shows an entry 0..9: 0 blank, k its digit.
_SHOWN = bytes.maketrans(bytes(range(10)), b" 123456789")


def cell_label(i: int, j: int) -> str:
    """Display label of grid cell (i, j): rows 1..3 are x, y, z."""
    if 1 <= i <= len(_ROW_LETTERS):
        return f"{_ROW_LETTERS[i - 1]}{j}"
    return f"x[{i},{j}]"


class IntMatrix(NamedTuple):
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        """Every column, transposed in one pass."""
        if not self.entries:
            return [()] * len(self.col_labels)
        return list(zip(*self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product matrix.

        If every entry of both factors is in range(256), the largest row sum
        of ``self`` times the largest byte of the bitwise or of the rows of
        ``other`` bounds every product entry.  When that bound is below 256,
        each row of ``other`` is packed into one int, one byte per entry,
        little-endian (Kronecker substitution), so that row r of the
        product is the one int ``sum(x * packed[i])`` over the nonzero
        entries ``x = self.entries[r][i]``, no byte carries into the next,
        and the row is that int's bytes.  Every A times S packs: a row of A
        is a grid cell, and at most 2^(n-1) - 1 proper subsets put their
        initial term there (the subsets with least element 1 at cell (1, 1)
        in the diagonal order, with greatest element n at (1, n) in the
        antidiagonal one); S is 0/1, so the bound is at most 127 for n <= 8
        and 255 for n <= 9.  Any other pair of factors gets the
        row-by-column sum of products.
        """
        if self.col_labels != other.row_labels:
            raise ValueError("matrix shapes/labels do not align")
        ncols = len(other.col_labels)
        try:
            reach = max(map(sum, map(bytearray, self.entries)), default=0)
            packed = [int.from_bytes(bytearray(row), "little") for row in other.entries]
            top = max(reduce(operator.or_, packed, 0).to_bytes(ncols, "little"), default=0)
        except ValueError:  # an entry outside range(256)
            reach = top = 256
        if reach * top < 256:
            totals = (sum(x * term for x, term in zip(row, packed) if x) for row in self.entries)
            rows = tuple(tuple(total.to_bytes(ncols, "little")) for total in totals)
            return IntMatrix(self.row_labels, other.col_labels, rows)
        cols = other.columns()
        return IntMatrix(self.row_labels, other.col_labels, tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols) for row in self.entries
        ))

    def text(self, name: str | None = None) -> str:
        """Aligned display; zero entries print blank.

        A column is as wide as its label and its longest entry, at least 1
        (a zero counts as one character); cells are right-aligned two blanks
        apart, trailing blanks dropped.  If every entry is a digit 0..9, as
        in every A, S and AS, each row is its bytes, translated once (0 to a
        blank, k to its digit) and slice-assigned into a blank row, one
        strided slice per run of adjacent columns of one width; other
        matrices go cell by cell.

        >>> m = IntMatrix(("x1", "y12"), ("P1", "P12", "P2"), ((1, 0, 2), (0, 0, 0)))
        >>> print(m.text("M"))
        M =
             P1  P12  P2
        x1    1        2
        y12
        """
        widths = [len(lbl) or 1 for lbl in self.col_labels]
        try:
            raw = b"".join(map(bytearray, self.entries))
        except ValueError:  # an entry outside range(256)
            raw = None
        if raw is None or not widths or raw.translate(None, bytes(range(10))):
            cells = [[str(e) if e else "" for e in row] for row in self.entries]
            if cells:
                widths = [max(wd, *map(len, col)) for wd, col in zip(widths, zip(*cells))]
            bodies = ["  ".join(map(str.rjust, row, widths)) for row in cells]
        else:
            shown, runs, pos, j = memoryview(raw.translate(_SHOWN)), [], 0, 0
            for wd, run in itertools.groupby(widths):
                count = len(list(run))
                runs.append((slice(pos + wd - 1, pos + count * (wd + 2), wd + 2), j, j + count))
                pos, j = pos + count * (wd + 2), j + count
            blank = b" " * (pos - 2)

            def body(at: int) -> str:
                line = bytearray(blank)
                for cut, first, stop in runs:
                    line[cut] = shown[at + first : at + stop]
                return line.decode()

            bodies = map(body, range(0, len(raw), j))
        label_w = max(map(len, self.row_labels), default=0)
        header = "  ".join(map(str.rjust, self.col_labels, widths))
        rows = zip(("",) + self.row_labels, itertools.chain([header], bodies))
        lines = [(lbl.ljust(label_w) + "  " + body).rstrip() for lbl, body in rows]
        return "\n".join(lines if name is None else [f"{name} ="] + lines)

    def csv(self) -> str:
        lines = ["," + ",".join(self.col_labels)]
        for lbl, row in zip(self.row_labels, self.entries):
            lines.append(lbl + "," + ",".join(str(e) for e in row))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def restricted_map_matrix(v: Perm, w: Perm, order: TermOrder) -> IntMatrix:
    """Exponent matrix of the monomial map on surviving coordinates.

    Columns are the coordinates of T in canonical order; rows are the grid
    cells hit by at least one coordinate, in row-major order.  Each column
    is its subset's code in :func:`~richtoric.initial._code_table` at width
    1, bit (r-1) n + j-1 set for each cell (r, j) of its initial term, so
    the rows are the set bits of the codes' union and entry (k, c) is bit k
    of code c.  The last matrix is kept: a caller that displays the pair of
    the last :func:`polytope` reads the A that it built.
    """
    n = len(v)
    index = set_bits(interval_mask(v, w))
    table, subsets = _code_table(n, 1, order), all_subsets(n)
    codes = [table[i] for i in index]
    cells = set_bits(reduce(operator.or_, codes, 0))
    return IntMatrix(
        tuple(cell_label(k // n + 1, k % n + 1) for k in cells),
        tuple("P" + subset_str(subsets[i]) for i in index),
        tuple(tuple(c >> k & 1 for c in codes) for k in cells),
    )


def segre_factors(v: Perm, w: Perm) -> list[list[Subset]]:
    """Surviving coordinates grouped into projective factors by size (the
    canonical order lists subsets by size first)."""
    return [list(f) for _, f in itertools.groupby(enumerate_T(v, w), len)]


@lru_cache(maxsize=1)
def _segre_labels(v: Perm, w: Perm) -> tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """The rows and columns of S: the coordinate names "P" + J of each of
    the :func:`segre_factors`, and the "*"-joined names of each product, in
    ``itertools.product`` order.  The last pair's labels are kept, for
    :func:`polytope` and :func:`segre_matrix` on the same pair.

    Raises :class:`BudgetError` first, on every call, when the products
    exceed ``SEGRE_BUDGET`` (a raising call stores nothing).
    """
    factors = segre_factors(v, w)
    size = math.prod(map(len, factors))
    if size > SEGRE_BUDGET:
        sizes = "*".join(str(len(f)) for f in factors)
        raise BudgetError(f"Segre product {sizes} = {size} columns exceeds budget {SEGRE_BUDGET}")
    names = tuple(tuple("P" + subset_str(J) for J in f) for f in factors)
    return names, tuple(map("*".join, itertools.product(*names)))


def segre_matrix(v: Perm, w: Perm) -> IntMatrix:
    """0/1 incidence matrix of products choosing one coordinate per factor.

    Columns run over ``itertools.product`` of the factors.  The i-th
    coordinate of a factor is chosen by ``later`` consecutive products
    (``later`` is the product of the sizes of the factors after it), at
    offset ``i * later`` in each block of ``len(f) * later``, and that block
    repeats once for every choice in the factors before it.

    Raises :class:`BudgetError` before building anything when the number of
    products exceeds ``SEGRE_BUDGET``.
    """
    names, products = _segre_labels(v, w)
    size = len(products)
    rows = []
    earlier = 1
    for f in names:
        later = size // (earlier * len(f))
        for i in range(len(f)):
            block = (0,) * (i * later) + (1,) * later + (0,) * ((len(f) - 1 - i) * later)
            rows.append(block * earlier)
        earlier *= len(f)
    return IntMatrix(tuple(itertools.chain.from_iterable(names)), products, tuple(rows))


class LatticePolytope(NamedTuple):
    ambient_labels: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]  # distinct, first-occurrence order
    point_labels: tuple[tuple[str, ...], ...]  # column labels merged per point
    affine_dim: int


def polytope(v: Perm, w: Perm, order: TermOrder) -> LatticePolytope:
    """Convex-hull data of the product matrix AS for the pair (v, w).

    The columns of AS, in product order, are folded from A's columns one
    factor at a time; equal columns merge into one point, in
    first-occurrence order.  Each column is packed into an int, one byte
    per row: an entry of AS counts factors, fewer than n, so it stays
    below 256 and no byte carries into the next.  A fold step is then one
    int addition, the dedupe hashes ints, and only the distinct points are
    unpacked.  The affine dimension is the rank of the in-factor
    differences (see the module docstring).

    Raises :class:`BudgetError` when S would exceed ``SEGRE_BUDGET`` columns.
    """
    names, products = _segre_labels(v, w)
    a = restricted_map_matrix(v, w, order)
    col = dict(zip(a.col_labels, a.columns()))
    packed = {name: int.from_bytes(bytearray(c), "little") for name, c in col.items()}
    sums = [0]
    for f in names:
        sums = [p + packed[name] for p in sums for name in f]
    labels: dict[int, list[str]] = {}
    for p, lbl in zip(sums, products):
        labels.setdefault(p, []).append(lbl)
    dim = len(a.row_labels)
    diffs = [tuple(map(operator.sub, col[name], col[f[0]])) for f in names for name in f[1:]]
    return LatticePolytope(
        a.row_labels,
        tuple(tuple(p.to_bytes(dim, "little")) for p in labels),
        tuple(tuple(g) for g in labels.values()),
        affine_rank([(0,) * dim] + diffs),
    )


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(rows: list[tuple[int, tuple[int, ...]]], vec) -> list[int]:
    """The fraction-free reduction of an integer vector against echelon rows.

    ``rows`` holds (pivot column, row) pairs of integer rows divided by
    their gcd; each row is zero in the pivot columns of the rows before it.
    ``vec`` becomes ``p * vec - a * row`` for the pivot entry ``p`` of each
    row and the entry ``a`` of ``vec`` there, divided by its gcd.  The
    result is zero iff ``vec`` lies in the span of ``rows``.
    """
    vec = list(vec)
    for pivot, row in rows:
        a = vec[pivot]
        if a:
            p = row[pivot]
            vec = [p * x - a * y for x, y in zip(vec, row)]
            g = math.gcd(*vec)
            if g > 1:
                vec = [x // g for x in vec]
    return vec


def echelon_insert(rows: list[tuple[int, tuple[int, ...]]], vec) -> bool:
    """Reduce an integer vector against echelon rows; keep it if it is new.

    Returns True iff :func:`_reduce` leaves ``vec`` nonzero, in which case
    the reduction, divided by its gcd, is appended with its first nonzero
    column as pivot.

    >>> rows = []
    >>> [echelon_insert(rows, v) for v in [(2, 4, 0), (1, 2, 0), (0, 0, 0)]]
    [True, False, False]
    >>> [echelon_insert(rows, v) for v in [(3, 0, 3), (0, -6, 3)]]
    [True, False]
    >>> rows
    [(0, (1, 2, 0)), (1, (0, -2, 1))]
    """
    vec = _reduce(rows, vec)
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is None:
        return False
    g = math.gcd(*vec)
    rows.append((pivot, tuple(x // g for x in vec)))
    return True


def affine_rank(points) -> int:
    """Dimension of the affine span of a set of integer points.

    >>> affine_rank([(0, 0), (1, 2), (3, 6)])  # collinear
    1
    >>> affine_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])  # a plane
    2
    >>> affine_rank([(4, 5), (4, 5)])  # a repeated point
    0
    """
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    return len(_affine_basis(pts))


def _affine_basis(pts) -> list[tuple[int, tuple[int, ...]]]:
    """Echelon rows spanning the differences p - pts[0]: one row for each
    difference that adds to the rank, so their count is the affine dimension."""
    base = pts[0]
    rows: list = []
    for p in pts[1:]:
        if len(rows) == len(base):
            break  # the span is the whole ambient space
        echelon_insert(rows, tuple(a - b for a, b in zip(p, base)))
    return rows


# ---------------------------------------------------------------------------
# lattice points


def lattice_points(poly: LatticePolytope) -> list[tuple[int, ...]]:
    """All integer points of the convex hull, for affine dimension <= 3, in
    lexicographic order.

    Scans the bounding box of the hull's projection onto the sorted pivot
    columns of the echelon rows from :func:`_affine_basis` and lifts each
    projected point inside the projected hull back to the affine hull,
    keeping the lifts with integer coordinates.

    Restricted to their pivot columns those k rows form a triangular matrix
    with a nonzero diagonal, so the projection onto the pivots is one-to-one
    on the affine hull and maps it onto Z^k-coordinates where the hull is
    full-dimensional.  Each row reduced by :func:`_reduce` against the rows
    after it is zero in every other row's pivot column; scaled to a common
    pivot entry ``scale``, the rows give the lift of a projected point y as
    base + sum((y_i - base_i) * row_i) / scale.  A row's first nonzero
    column is its pivot, so the first nonzero coordinate of any direction in
    the affine hull sits at a pivot, and the lifts come out in the
    lexicographic order of the ambient coordinates.  ``LATTICE_BUDGET``
    bounds the volume of the scanned box, which is never larger than the
    ambient bounding box.  A polytope with no points, or whose
    ``affine_dim`` is not the dimension its points span, is refused with
    ``ValueError``.
    """
    k = poly.affine_dim
    if k > 3:
        raise ValueError(f"lattice points unsupported in affine dimension {k}")
    pts = [tuple(p) for p in poly.points]
    if not pts:
        raise ValueError("a polytope with no points has no lattice points to scan")
    base = pts[0]

    rows = _affine_basis(pts)
    if len(rows) != k:
        raise ValueError(f"affine dimension {k} recorded, but the points span {len(rows)}")
    pivots = sorted(pivot for pivot, _ in rows)
    box = [range(min(p[i] for p in pts), max(p[i] for p in pts) + 1) for i in pivots]
    volume = math.prod(map(len, box))
    if volume > LATTICE_BUDGET:
        raise BudgetError(f"bounding box volume {volume} exceeds budget {LATTICE_BUDGET}")

    reduced = sorted((pivot, _reduce(rows[i + 1 :], row)) for i, (pivot, row) in enumerate(rows))
    scale = math.lcm(*(row[pivot] for pivot, row in reduced))
    scaled = [[scale // row[pivot] * x for x in row] for pivot, row in reduced]
    inside = _hull_test([tuple(p[i] for i in pivots) for p in pts], k)
    origin = [scale * b for b in base]
    out = []
    for y in itertools.product(*box):
        if inside(y):
            lift = origin
            for step, row in zip(map(operator.sub, y, (base[i] for i in pivots)), scaled):
                if step:
                    lift = [x + step * r for x, r in zip(lift, row)]
            if not any(x % scale for x in lift):
                out.append(tuple(x // scale for x in lift))
    return out


def _normal(diffs, k: int) -> tuple[int, ...]:
    """A vector of Z^k orthogonal to k - 1 vectors, k <= 3, nonzero iff they
    are independent: (1,), the quarter turn, the cross product.

    Its entry j is (-1)^j times the determinant left when column j of the
    vectors is dropped, the generalised cross product.

    >>> _normal([], 1), _normal([(2, 3)], 2), _normal([(1, 0, 0), (0, 1, 0)], 3)
    ((1,), (3, -2), (0, 0, 1))
    """
    if k == 1:
        return (1,)
    if k == 2:
        ((a, b),) = diffs
        return (b, -a)
    (a, b, c), (d, e, f) = diffs
    return (b * f - c * e, c * d - a * f, a * e - b * d)


def _hull_test(pts, k: int):
    """Membership in the convex hull of ``pts``, points of Z^k whose affine
    span is all of Z^k, for k <= 3.

    Every k-subset {a, b, ...} of the points gives a candidate facet normal,
    the :func:`_normal` of its k - 1 differences b - a, ...; the candidates
    that support every point are the facets, found once, not per tested
    point.  Many k-subsets share a hyperplane direction, so each normal is
    divided by its gcd and signed so that its first nonzero entry is
    positive, and the subsets of one direction are grouped with the levels
    <normal, anchor> they meet.  The points' levels are then read once per
    direction, and a level met is a facet exactly when it is the least or
    the greatest of them.  Each halfspace is kept once, in a dict.
    """
    if k == 0:
        return lambda x: x == pts[0]
    levels: dict[tuple[int, ...], set[int]] = {}
    for a, *rest in itertools.combinations(pts, k):
        normal = _normal([tuple(map(operator.sub, b, a)) for b in rest], k)
        if any(normal):
            g = math.gcd(*normal)
            if next(x for x in normal if x) < 0:
                g = -g
            normal = tuple(x // g for x in normal)
            levels.setdefault(normal, set()).add(sum(map(operator.mul, normal, a)))
    halfspaces = {}
    for normal, found in levels.items():
        sides = [sum(map(operator.mul, normal, p)) for p in pts]
        low, high = min(sides), max(sides)
        if low in found:
            halfspaces[normal, low] = None
        if high in found:
            halfspaces[tuple(-x for x in normal), -high] = None
    return lambda x: all(
        sum(map(operator.mul, normal, x)) >= offset for normal, offset in halfspaces
    )
