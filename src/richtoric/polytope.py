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

All arithmetic is on integers.  One fraction-free elimination routine,
:func:`echelon_insert`, reduces an integer vector against integer echelon
rows and divides each result by its gcd (integer-preserving Gaussian
elimination).  Affine dimension is the size of one affine basis, the
first translated points that add to the echelon rank.  Lattice-point
enumeration, supported up to affine dimension three, walks the bounding
box: the pivot columns of that echelon pick a minor M of the basis with
determinant D, Cramer's rule on M gives D-scaled hull coordinates, and one
facet routine, the same in every dimension, tests convexity on those
integer coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .perms import BudgetError, Perm, Subset, enumerate_T, subset_str
from .initial import TermOrder, initial_term, monomial_str

#: Cap on the bounding-box volume scanned for lattice points.
LATTICE_BUDGET = 1_000_000

#: Cap on the number of products (columns of S and AS); the largest n <= 5
#: interval, (12345, 54321), has 2,500.
SEGRE_BUDGET = 20_000

_ROW_LETTERS = ("x", "y", "z")


def cell_label(i: int, j: int) -> str:
    """Display label of grid cell (i, j): rows 1..3 are x, y, z."""
    if 1 <= i <= len(_ROW_LETTERS):
        return f"{_ROW_LETTERS[i - 1]}{j}"
    return f"x[{i},{j}]"


@dataclass(frozen=True)
class IntMatrix:
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
        if self.col_labels != other.row_labels:
            raise ValueError("matrix shapes/labels do not align")
        cols = other.columns()
        rows = tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols)
            for row in self.entries
        )
        return IntMatrix(self.row_labels, other.col_labels, rows)

    def text(self, name: str | None = None) -> str:
        """Aligned display; zero entries print blank."""
        widths = [
            max(len(lbl), max((len(str(row[j])) for row in self.entries), default=1))
            for j, lbl in enumerate(self.col_labels)
        ]
        label_w = max((len(r) for r in self.row_labels), default=0)
        lines = []
        if name is not None:
            lines.append(f"{name} =")
        header = " " * label_w + "  " + "  ".join(
            lbl.rjust(w) for lbl, w in zip(self.col_labels, widths)
        )
        lines.append(header.rstrip())
        for lbl, row in zip(self.row_labels, self.entries):
            cells = "  ".join(
                (str(e) if e else "").rjust(w) for e, w in zip(row, widths)
            )
            lines.append((lbl.ljust(label_w) + "  " + cells).rstrip())
        return "\n".join(lines)

    def csv(self) -> str:
        lines = ["," + ",".join(self.col_labels)]
        for lbl, row in zip(self.row_labels, self.entries):
            lines.append(lbl + "," + ",".join(str(e) for e in row))
        return "\n".join(lines) + "\n"


def restricted_map_matrix(v: Perm, w: Perm, order: TermOrder) -> IntMatrix:
    """Exponent matrix of the monomial map on surviving coordinates.

    Columns are the coordinates of T in canonical order; rows are the grid
    cells hit by at least one coordinate, in row-major order.
    """
    cols = enumerate_T(v, w)
    terms = {J: frozenset(initial_term(J, order)) for J in cols}
    cells = sorted({c for t in terms.values() for c in t})
    entries = tuple(
        tuple(1 if cell in terms[J] else 0 for J in cols) for cell in cells
    )
    return IntMatrix(
        tuple(cell_label(i, j) for i, j in cells),
        tuple("P" + subset_str(J) for J in cols),
        entries,
    )


def segre_factors(v: Perm, w: Perm) -> list[list[Subset]]:
    """Surviving coordinates grouped into projective factors by size."""
    cols = enumerate_T(v, w)
    factors: dict[int, list[Subset]] = {}
    for J in cols:
        factors.setdefault(len(J), []).append(J)
    return [factors[k] for k in sorted(factors)]


def segre_matrix(v: Perm, w: Perm) -> IntMatrix:
    """0/1 incidence matrix of products choosing one coordinate per factor.

    Raises :class:`BudgetError` before building anything when the number of
    products exceeds ``SEGRE_BUDGET``.
    """
    factors = segre_factors(v, w)
    cols = [J for factor in factors for J in factor]  # T, by size then lex
    size = math.prod(len(f) for f in factors)
    if size > SEGRE_BUDGET:
        sizes = "*".join(str(len(f)) for f in factors)
        raise BudgetError(
            f"Segre product {sizes} = {size} columns exceeds budget {SEGRE_BUDGET}"
        )
    products = list(itertools.product(*factors))
    entries = tuple(
        tuple(1 if J in chosen else 0 for chosen in products) for J in cols
    )
    return IntMatrix(
        tuple("P" + subset_str(J) for J in cols),
        tuple(monomial_str(chosen) for chosen in products),
        entries,
    )


@dataclass(frozen=True)
class LatticePolytope:
    ambient_labels: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]  # distinct, first-occurrence order
    point_labels: tuple[tuple[str, ...], ...]  # column labels merged per point
    affine_dim: int

    @property
    def ambient_dim(self) -> int:
        return len(self.ambient_labels)


def polytope(v: Perm, w: Perm, order: TermOrder) -> LatticePolytope:
    """Convex-hull data of the product matrix AS for the pair (v, w).

    Raises :class:`BudgetError` when S would exceed ``SEGRE_BUDGET`` columns.
    """
    a = restricted_map_matrix(v, w, order)
    return product_polytope(a.mul(segre_matrix(v, w)))


def product_polytope(prod: IntMatrix) -> LatticePolytope:
    """Convex-hull data of an already built product matrix AS.

    Equal columns merge into one point, in first-occurrence order.
    """
    labels: dict[tuple[int, ...], list[str]] = {}
    for col, lbl in zip(prod.columns(), prod.col_labels):
        labels.setdefault(col, []).append(lbl)
    points = tuple(labels)
    return LatticePolytope(
        prod.row_labels,
        points,
        tuple(tuple(g) for g in labels.values()),
        affine_rank(points),
    )


# ---------------------------------------------------------------------------
# exact linear algebra


def echelon_insert(rows: list[tuple[int, tuple[int, ...]]], vec) -> bool:
    """Reduce an integer vector against echelon rows; keep it if it is new.

    ``rows`` holds (pivot column, row) pairs of integer rows divided by
    their gcd; each row is zero in the pivot columns of the rows before it.
    Elimination is fraction-free: ``vec`` becomes ``p * vec - a * row`` for
    the pivot entry ``p`` of the row and the entry ``a`` of ``vec`` there,
    divided by its gcd.  Returns True iff ``vec`` lies outside the span of
    ``rows``, in which case its reduction is appended.

    >>> rows = []
    >>> [echelon_insert(rows, v) for v in [(2, 4, 0), (1, 2, 0), (0, 0, 0)]]
    [True, False, False]
    >>> [echelon_insert(rows, v) for v in [(3, 0, 3), (0, -6, 3)]]
    [True, False]
    >>> rows
    [(0, (1, 2, 0)), (1, (0, -2, 1))]
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
    return len(_affine_basis(pts)[0])


def _affine_basis(pts) -> tuple[list[tuple[int, ...]], list]:
    """The first differences p - pts[0] that add to the echelon rank, and
    the echelon rows; a basis of the affine span of ``pts``."""
    base = pts[0]
    basis: list[tuple[int, ...]] = []
    rows: list = []
    for p in pts[1:]:
        if len(rows) == len(base):
            break  # the span is the whole ambient space
        vec = tuple(a - b for a, b in zip(p, base))
        if echelon_insert(rows, vec):
            basis.append(vec)
    return basis, rows


def _det(m) -> int:
    """Determinant of a small square integer matrix (cofactor expansion).

    >>> _det([]), _det([[1, 2], [3, 4]]), _det([[2, 0, 1], [1, 3, 2], [1, 1, 2]])
    (1, -2, 6)
    """
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if len(m) < 2:
        return m[0][0] if m else 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


def _cofactors(rows, k: int) -> tuple[int, ...]:
    """Signed maximal minors of k - 1 rows of length k.

    Entry j is (-1)^j times the determinant left when column j is dropped,
    so the result is orthogonal to every row: the generalised cross product.

    >>> _cofactors([(1, 0, 0), (0, 1, 0)], 3), _cofactors([(2, 3)], 2), _cofactors([], 1)
    ((0, 0, 1), (3, -2), (1,))
    """
    return tuple(
        (-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows]) for j in range(k)
    )


def _adjugate(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a small square integer matrix.

    ``adj @ m == det * identity``; with ``det > 0`` the solution of
    ``m c = t`` is ``c = adj t / det`` (Cramer's rule).  Column j of the
    adjugate is (-1)^j times the cofactors of the rows of m other than j.
    """
    k = len(m)
    cols = [_cofactors(m[:j] + m[j + 1 :], k) for j in range(k)]
    adj = [[(-1) ** j * cols[j][i] for j in range(k)] for i in range(k)]
    d = _det(m)
    if d < 0:
        adj, d = [[-x for x in row] for row in adj], -d
    return adj, d


# ---------------------------------------------------------------------------
# lattice points


def lattice_points(
    poly: LatticePolytope, budget: int | None = LATTICE_BUDGET
) -> list[tuple[int, ...]]:
    """All integer points of the convex hull, for affine dimension <= 3.

    Scans the bounding box of the defining points and keeps the points that
    lie in the affine hull and inside the hull in hull coordinates.

    The basis vectors b_1..b_k are the first differences p - base that add
    to the echelon rank; the pivot columns of that echelon pick a k x k
    minor M of the basis with determinant D > 0.  A point q gets D-scaled
    hull coordinates D*c = adj(M) (q - base) on the pivot columns, and lies
    in the affine hull iff D (q - base) == sum_j (D*c_j) b_j.
    """
    k = poly.affine_dim
    if k > 3:
        raise ValueError(f"lattice points unsupported in affine dimension {k}")
    pts = [tuple(p) for p in poly.points]
    base = pts[0]

    basis, rows = _affine_basis(pts)
    assert len(basis) == k
    pivots = [pivot for pivot, _ in rows]
    adj, det = _adjugate([[b[r] for b in basis] for r in pivots])
    # coordinates the pivots do not fix, with the basis entries there
    checks = [
        (i, tuple(b[i] for b in basis)) for i in range(len(base)) if i not in pivots
    ]

    def coords(q):
        """D-scaled hull coordinates of q, or None off the affine hull."""
        t = [a - b for a, b in zip(q, base)]
        tp = [t[r] for r in pivots]
        dc = tuple(sum(map(operator.mul, row, tp)) for row in adj)
        for i, col in checks:
            if det * t[i] != sum(map(operator.mul, dc, col)):
                return None
        return dc

    hull_pts = [coords(p) for p in pts]
    lows = [min(p[i] for p in pts) for i in range(len(base))]
    highs = [max(p[i] for p in pts) for i in range(len(base))]
    volume = 1
    for lo, hi in zip(lows, highs):
        volume *= hi - lo + 1
    if budget is not None and volume > budget:
        raise BudgetError(f"bounding box volume {volume} exceeds budget {budget}")

    inside = _hull_test(hull_pts, k)
    out = []
    for q in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        c = coords(q)
        if c is not None and inside(c):
            out.append(q)
    return out


def _hull_test(pts, k: int):
    """Membership in the convex hull of ``pts`` (hull coordinates, dimension k).

    Every k-subset {a, b, ...} of the points gives a candidate facet normal,
    the cofactors of its k - 1 differences b - a, ...; the candidates that
    support every point are the facets, found once, not per tested point.
    A facet through more than k points is found once per k-subset of them,
    so each halfspace is divided by the gcd of its normal (the offset is an
    integer combination of the normal) and kept once, in a dict.
    """
    if k == 0:
        return lambda x: x == pts[0]
    halfspaces = {}
    for a, *rest in itertools.combinations(pts, k):
        normal = _cofactors([tuple(bi - ai for ai, bi in zip(a, b)) for b in rest], k)
        if any(normal):
            supported = _supporting(pts, normal, a)
            if supported:
                normal, offset = supported
                g = math.gcd(*normal)
                halfspaces[tuple(x // g for x in normal), offset // g] = None
    return lambda x: all(
        sum(map(operator.mul, normal, x)) >= offset for normal, offset in halfspaces
    )


def _supporting(pts, normal, anchor):
    """Orient normal so every point satisfies <normal, p> >= <normal, anchor>."""
    offset = sum(map(operator.mul, normal, anchor))
    sides = [sum(map(operator.mul, normal, p)) for p in pts]
    if min(sides) >= offset:
        return normal, offset
    if max(sides) <= offset:
        return tuple(-n for n in normal), -offset
    return None
