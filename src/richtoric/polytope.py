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

All arithmetic is exact (integers and fractions); affine dimension comes
from Gaussian elimination on translated points, and lattice-point
enumeration walks the bounding box with a convexity test in hull
coordinates, supported up to affine dimension three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .perms import BudgetError, Perm, Subset, enumerate_T, subset_str
from .initial import TermOrder, initial_term, monomial_str

#: Cap on the bounding-box volume scanned for lattice points.
LATTICE_BUDGET = 1_000_000

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

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError("matrix shapes/labels do not align")
        rows = []
        for row in self.entries:
            rows.append(
                tuple(
                    sum(a * b for a, b in zip(row, other.column(j)))
                    for j in range(len(other.col_labels))
                )
            )
        return IntMatrix(self.row_labels, other.col_labels, tuple(rows))

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
    """0/1 incidence matrix of products choosing one coordinate per factor."""
    cols = enumerate_T(v, w)
    products = list(itertools.product(*segre_factors(v, w)))
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
    """Convex-hull data of the product matrix AS for the pair (v, w)."""
    a = restricted_map_matrix(v, w, order)
    s = segre_matrix(v, w)
    prod = a.mul(s)
    labels: dict[tuple[int, ...], list[str]] = {}  # first-occurrence order
    for j, lbl in enumerate(prod.col_labels):
        labels.setdefault(prod.column(j), []).append(lbl)
    points = tuple(labels)
    return LatticePolytope(
        prod.row_labels,
        points,
        tuple(tuple(g) for g in labels.values()),
        affine_rank(points),
    )


# ---------------------------------------------------------------------------
# exact linear algebra


def affine_rank(points) -> int:
    """Dimension of the affine span of a set of integer points."""
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in pts[1:]]
    return _rank(rows)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _solve_in_span(basis: list[tuple[int, ...]], target: list[Fraction]):
    """Coordinates of target in the span of basis vectors, or None."""
    m = len(target)
    k = len(basis)
    aug = [[Fraction(basis[c][r]) for c in range(k)] + [target[r]] for r in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][k]:
            return None  # inconsistent: target outside the span
    coords = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coords[col] = aug[r][k]
    return tuple(coords)


# ---------------------------------------------------------------------------
# lattice points


def lattice_points(
    poly: LatticePolytope, budget: int | None = LATTICE_BUDGET
) -> list[tuple[int, ...]]:
    """All integer points of the convex hull, for affine dimension <= 3.

    Scans the bounding box of the defining points and keeps the points that
    lie in the affine hull and inside the hull in hull coordinates.
    """
    k = poly.affine_dim
    if k > 3:
        raise ValueError(f"lattice points unsupported in affine dimension {k}")
    pts = [tuple(p) for p in poly.points]
    base = pts[0]

    basis: list[tuple[int, ...]] = []
    for p in pts[1:]:
        vec = tuple(a - b for a, b in zip(p, base))
        if _rank([[Fraction(x) for x in v] for v in basis + [vec]]) > len(basis):
            basis.append(vec)
    assert len(basis) == k

    def coords(q):
        target = [Fraction(a - b) for a, b in zip(q, base)]
        return _solve_in_span(basis, target)

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

    The supporting edges or faces are found once, not per tested point.
    """
    if k == 0:
        return lambda x: x == pts[0]
    if k == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return lambda x: lo <= x[0] <= hi
    halfplanes = _edges_2d(pts) if k == 2 else _faces_3d(pts)
    return lambda x: all(
        sum(n * xi for n, xi in zip(normal, x)) >= offset for normal, offset in halfplanes
    )


def _supporting(pts, normal, anchor):
    """Orient normal so every point satisfies <normal, p> >= <normal, anchor>."""
    offset = sum(n * a for n, a in zip(normal, anchor))
    sides = [sum(n * p[i] for i, n in enumerate(normal)) - offset for p in pts]
    if all(s >= 0 for s in sides):
        return normal, offset
    if all(s <= 0 for s in sides):
        return tuple(-n for n in normal), -offset
    return None


def _edges_2d(pts):
    out = []
    for a, b in itertools.combinations(pts, 2):
        d = (b[0] - a[0], b[1] - a[1])
        if d == (0, 0):
            continue
        supported = _supporting(pts, (-d[1], d[0]), a)
        if supported:
            out.append(supported)
    return out


def _faces_3d(pts):
    out = []
    for a, b, c in itertools.combinations(pts, 3):
        u = tuple(bi - ai for ai, bi in zip(a, b))
        v = tuple(ci - ai for ai, ci in zip(a, c))
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if normal == (0, 0, 0):
            continue
        supported = _supporting(pts, normal, a)
        if supported:
            out.append(supported)
    return out
