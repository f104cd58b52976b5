import importlib
import itertools
import math
import operator
import os
import random
import re
from fractions import Fraction

import pytest

from richtoric.perms import BudgetError, enumerate_T, identity, longest, subset_str
from richtoric.compat import tn_pairs
from richtoric.initial import TermOrder, initial_term, monomial_str, phi_image
from richtoric.polytope import (
    IntMatrix,
    SEGRE_BUDGET,
    LatticePolytope,
    _hull_test,
    _normal,
    _segre_labels,
    affine_rank,
    cell_label,
    echelon_insert,
    lattice_points,
    polytope,
    restricted_map_matrix,
    segre_factors,
    segre_matrix,
)
from richtoric.verify import EXPECTED_A, EXPECTED_AS, EXPECTED_S, polytope_dimensions

DIAG = TermOrder.DIAGONAL
ANTI = TermOrder.ANTIDIAGONAL
V, W = (2, 3, 4, 1), (4, 2, 3, 1)  # the worked antidiagonal instance


# ---------------------------------------------------------------------------
# matrices


def test_cell_labels():
    assert cell_label(1, 2) == "x2"
    assert cell_label(2, 3) == "y3"
    assert cell_label(3, 2) == "z2"


def test_map_matrix_instance():
    a = restricted_map_matrix(V, W, ANTI)
    assert a.row_labels == ("x2", "x3", "x4", "y2", "y3", "z2")
    assert a.col_labels == ("P2", "P3", "P4", "P23", "P24", "P234")
    assert a.entries == EXPECTED_A


def test_map_matrix_columns_sum_to_subset_size():
    for v, w in [(V, W), (identity(4), longest(4))]:
        for order in (DIAG, ANTI):
            a = restricted_map_matrix(v, w, order)
            for j, lbl in enumerate(a.col_labels):
                assert sum(a.column(j)) == len(lbl) - 1  # "P234" -> size 3


def test_map_matrix_point_pair_has_distinct_columns():
    w = (2, 4, 3, 1)
    a = restricted_map_matrix(w, w, DIAG)
    cols = [a.column(j) for j in range(len(a.col_labels))]
    assert len(set(cols)) == len(cols)


def _ref_map_matrix(v, w, order):
    """A as it was built before the packed initial-term table: one set of
    cells per column of T, the rows their sorted union."""
    cols = enumerate_T(v, w)
    terms = [frozenset(initial_term(J, order)) for J in cols]
    cells = sorted(frozenset().union(*terms))
    return IntMatrix(
        tuple(cell_label(i, j) for i, j in cells),
        tuple("P" + subset_str(J) for J in cols),
        tuple(tuple(int(cell in t) for t in terms) for cell in cells),
    )


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_map_matrix_agrees_with_per_column_initial_terms(n, order, comparable_pairs):
    for v, w in comparable_pairs(n):
        assert restricted_map_matrix(v, w, order) == _ref_map_matrix(v, w, order), (v, w)


def test_segre_matrix_instance():
    s = segre_matrix(V, W)
    assert s.row_labels == ("P2", "P3", "P4", "P23", "P24", "P234")
    assert s.col_labels == (
        "P2*P23*P234",
        "P2*P24*P234",
        "P3*P23*P234",
        "P3*P24*P234",
        "P4*P23*P234",
        "P4*P24*P234",
    )
    assert s.entries == EXPECTED_S
    assert len(s.col_labels) == 3 * 2 * 1
    assert segre_factors(V, W) == [
        [(2,), (3,), (4,)],
        [(2, 3), (2, 4)],
        [(2, 3, 4)],
    ]


def test_product_matrix_instance():
    a = restricted_map_matrix(V, W, ANTI)
    s = segre_matrix(V, W)
    prod = a.mul(s)
    assert prod.entries == EXPECTED_AS
    assert prod.column(3) == prod.column(4)


def test_segre_matrix_single_factor_is_identity_like():
    # n = 2: only size-one coordinates survive, one projective factor
    s = segre_matrix((1, 2), (2, 1))
    assert s.row_labels == ("P1", "P2")
    assert s.col_labels == ("P1", "P2")
    assert s.entries == ((1, 0), (0, 1))


def test_matrix_shape_mismatch():
    a = restricted_map_matrix(V, W, ANTI)
    with pytest.raises(ValueError):
        a.mul(a)


def test_matrix_text_blanks_zeros():
    m = IntMatrix(("r1",), ("c1", "c2"), ((0, 3),))
    text = m.text("M")
    assert "0" not in text
    assert "3" in text


@pytest.mark.parametrize("order", [DIAG])
def test_product_columns_are_sums_of_map_columns(order):
    for v, w in tn_pairs(4):
        a = restricted_map_matrix(v, w, order)
        s = segre_matrix(v, w)
        prod = a.mul(s)
        col_of = {lbl: a.column(j) for j, lbl in enumerate(a.col_labels)}
        for j, lbl in enumerate(prod.col_labels):
            parts = lbl.split("*")
            summed = tuple(
                sum(col_of[p][r] for p in parts)
                for r in range(len(a.row_labels))
            )
            assert prod.column(j) == summed


# ---------------------------------------------------------------------------
# polytopes


def test_polytope_instance():
    poly = polytope(V, W, ANTI)
    assert poly.ambient_labels == ("x2", "x3", "x4", "y2", "y3", "z2")
    assert poly.points == (
        (1, 1, 1, 1, 1, 1),
        (1, 0, 2, 1, 1, 1),
        (0, 2, 1, 1, 1, 1),
        (0, 1, 2, 1, 1, 1),
        (0, 0, 3, 1, 1, 1),
    )
    assert poly.point_labels[3] == ("P3*P24*P234", "P4*P23*P234")
    assert poly.affine_dim == 2
    assert all(p[0] + p[1] + p[2] == 3 for p in poly.points)


def test_duplicate_columns_are_image_equal_products():
    poly = polytope(V, W, ANTI)
    for group in poly.point_labels:
        monomials = [
            tuple(tuple(int(c) for c in token[1:]) for token in lbl.split("*"))
            for lbl in group
        ]
        images = {phi_image(m, ANTI) for m in monomials}
        assert len(images) == 1


@pytest.mark.parametrize("order", [DIAG])
def test_distinct_points_count_matches_image_count(order):
    # one product of coordinates per projective factor; the matrix route and
    # the direct image route must agree on the number of distinct results
    for v, w in tn_pairs(4):
        poly = polytope(v, w, order)
        factors = segre_factors(v, w)
        images = {
            phi_image(chosen, order) for chosen in itertools.product(*factors)
        }
        assert len(poly.points) == len(images)


def test_point_pair_polytope_is_a_point():
    w = (2, 4, 3, 1)
    poly = polytope(w, w, DIAG)
    assert len(poly.points) == 1
    assert poly.affine_dim == 0
    assert lattice_points(poly) == [poly.points[0]]


# ---------------------------------------------------------------------------
# exact geometry helpers


def test_affine_rank():
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(0, 0), (2, 2), (5, 5)]) == 1
    assert affine_rank([(7, 3)]) == 0


def test_lattice_points_instance():
    poly = polytope(V, W, ANTI)
    pts = lattice_points(poly)
    assert sorted(pts) == sorted(poly.points)


def test_lattice_points_on_a_segment():
    # gcd distance 3 -> 4 lattice points
    poly = LatticePolytope(("a", "b"), ((0, 0), (3, 6)), (("p",), ("q",)), 1)
    assert lattice_points(poly) == [(0, 0), (1, 2), (2, 4), (3, 6)]


def test_lattice_points_triangle_interior():
    poly = LatticePolytope(
        ("a", "b"), ((0, 0), (3, 0), (0, 3)), (("p",), ("q",), ("r",)), 2
    )
    assert len(lattice_points(poly)) == 10


def test_lattice_points_dimension_guard():
    simplex = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    poly = LatticePolytope(
        ("a", "b", "c", "d"),
        tuple(simplex),
        tuple((str(i),) for i in range(5)),
        affine_rank(simplex),
    )
    assert poly.affine_dim == 4
    with pytest.raises(ValueError):
        lattice_points(poly)


@pytest.mark.parametrize("recorded", [0, 1, 3])
def test_lattice_points_refuses_a_wrong_affine_dimension(recorded):
    # the points span a plane; a recorded dimension of 1 would scan the
    # square [0, 2]^2, 9 points, without the check
    poly = LatticePolytope(("a", "b"), ((0, 0), (2, 0), (0, 2)), (("x",), ("y",), ("z",)), recorded)
    with pytest.raises(ValueError, match=rf"^affine dimension {recorded} recorded, but the points span 2$"):
        lattice_points(poly)
    assert len(lattice_points(poly._replace(affine_dim=2))) == 6


def test_lattice_points_refuses_a_polytope_with_no_points():
    poly = LatticePolytope((), (), (), 0)
    with pytest.raises(ValueError, match="^a polytope with no points has no lattice points to scan$"):
        lattice_points(poly)


def test_lattice_points_budget_guard():
    poly = LatticePolytope(("a",), ((0,), (2_000_000,)), (("p",), ("q",)), 1)
    with pytest.raises(BudgetError):
        lattice_points(poly)


def test_segre_budget_refuses_before_building():
    # 6 * 15 * 20 * 15 * 6 = 162,000 products; the largest n = 5 interval has 2,500
    with pytest.raises(BudgetError):
        segre_matrix(identity(6), longest(6))
    with pytest.raises(BudgetError):
        polytope(identity(6), longest(6), DIAG)
    assert len(segre_matrix(identity(5), longest(5)).col_labels) == 2_500


# A and B share n; C is of another n
_A, _B, _C = ((2, 1, 4, 3, 5), (4, 2, 3, 5, 1)), ((1, 3, 2, 4, 5), (5, 3, 4, 1, 2)), (V, W)


def _cold_pair(v, w, order):
    _segre_labels.cache_clear()
    restricted_map_matrix.cache_clear()
    return polytope(v, w, order), segre_matrix(v, w)


@pytest.mark.parametrize("pairs", [(_A, _B, _A), (_A, _C, _A), (_C, _A, _B, _C, _A)])
def test_segre_labels_kept_for_the_last_pair_give_the_cold_results(pairs):
    # each pair's polytope and S from empty caches, then the pairs
    # interleaved in both orders: every result is the cold one, and only
    # the last pair's labels are kept
    cases = [(pair, order) for pair in pairs for order in (DIAG, ANTI)]
    want = {case: _cold_pair(*case[0], case[1]) for case in set(cases)}
    _segre_labels.cache_clear()
    for pair, order in cases:
        assert segre_matrix(*pair) == want[pair, order][1], pair
        assert polytope(*pair, order) == want[pair, order][0], (pair, order)
        assert segre_matrix(*pair) == want[pair, order][1], pair
        assert _segre_labels.cache_info().currsize == 1
    # three calls a case, the first of each visit a miss
    visits = 1 + sum(a != b for a, b in zip(pairs, pairs[1:]))
    assert _segre_labels.cache_info()[:2] == (3 * len(cases) - visits, visits)


def test_over_budget_segre_pair_refuses_every_call():
    # 162,000 products: refused on every call, by both readers, and the
    # pairs after it get the results of empty caches
    big = (identity(6), longest(6))
    want = {pair: _cold_pair(*pair, DIAG) for pair in (_A, _B)}
    _segre_labels.cache_clear()
    assert polytope(*_A, DIAG) == want[_A][0]
    for _ in range(2):
        with pytest.raises(BudgetError, match="= 162000 columns exceeds budget"):
            polytope(*big, DIAG)
        with pytest.raises(BudgetError, match="= 162000 columns exceeds budget"):
            segre_matrix(*big)
    for pair in (_A, _B):
        assert segre_matrix(*pair) == want[pair][1]
        assert polytope(*pair, DIAG) == want[pair][0]


def test_echelon_insert_keeps_rows_primitive_and_reduced():
    rows = []
    assert echelon_insert(rows, (0, 4, -6))
    assert not echelon_insert(rows, (0, -2, 3))
    assert echelon_insert(rows, (5, 10, 0))
    assert rows == [(1, (0, 2, -3)), (0, (1, 0, 3))]


# ---------------------------------------------------------------------------
# the Fraction Gauss-Jordan elimination the integer echelon replaced, and the
# per-dimension hull test the facet routine replaced, kept as the references
# of differential tests


def _ref_pivots(rows):
    """The pivot columns of the reduced row echelon form of Fraction rows."""
    rows = [row[:] for row in rows]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
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
        pivots.append(col)
    return pivots


def _ref_rank(rows):
    return len(_ref_pivots(rows))


def _ref_affine_rank(points):
    pts = [tuple(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return _ref_rank([[Fraction(a - b) for a, b in zip(p, base)] for p in pts[1:]])


def _ref_solve_in_span(basis, target):
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
            return None
    coords = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coords[col] = aug[r][k]
    return tuple(coords)


def _ref_hull_test(pts, k):
    """The per-dimension hull membership the single facet routine replaced:
    an interval for k = 1, supporting edges for k = 2 and faces for k = 3."""
    if k == 0:
        return lambda x: x == pts[0]
    if k == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return lambda x: lo <= x[0] <= hi
    halfplanes = _ref_edges_2d(pts) if k == 2 else _ref_faces_3d(pts)
    return lambda x: all(
        sum(n * xi for n, xi in zip(normal, x)) >= offset for normal, offset in halfplanes
    )


def _ref_supporting(pts, normal, anchor):
    offset = sum(n * a for n, a in zip(normal, anchor))
    sides = [sum(n * p[i] for i, n in enumerate(normal)) - offset for p in pts]
    if all(s >= 0 for s in sides):
        return normal, offset
    if all(s <= 0 for s in sides):
        return tuple(-n for n in normal), -offset
    return None


def _ref_edges_2d(pts):
    out = []
    for a, b in itertools.combinations(pts, 2):
        d = (b[0] - a[0], b[1] - a[1])
        if d == (0, 0):
            continue
        supported = _ref_supporting(pts, (-d[1], d[0]), a)
        if supported:
            out.append(supported)
    return out


def _ref_faces_3d(pts):
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
        supported = _ref_supporting(pts, normal, a)
        if supported:
            out.append(supported)
    return out


def _ref_lattice_points(poly, budget=1_000_000):
    k = poly.affine_dim
    if k > 3:
        raise ValueError(f"lattice points unsupported in affine dimension {k}")
    pts = [tuple(p) for p in poly.points]
    base = pts[0]
    basis = []
    for p in pts[1:]:
        vec = tuple(a - b for a, b in zip(p, base))
        if _ref_rank([[Fraction(x) for x in v] for v in basis + [vec]]) > len(basis):
            basis.append(vec)

    # the affine hull projects one-to-one onto the pivot coordinates of its
    # directions: test the hull there and scan the bounding box there
    pivots = _ref_pivots([[Fraction(x) for x in vec] for vec in basis])
    hull_pts = [tuple(p[i] for i in pivots) for p in pts]
    lows = [min(p) for p in zip(*hull_pts)]
    highs = [max(p) for p in zip(*hull_pts)]
    volume = 1
    for lo, hi in zip(lows, highs):
        volume *= hi - lo + 1
    if volume > budget:
        raise BudgetError(f"bounding box volume {volume} exceeds budget {budget}")
    inside = _ref_hull_test(hull_pts, k)
    projected = [[vec[i] for i in pivots] for vec in basis]
    out = []
    for y in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if inside(y):
            c = _ref_solve_in_span(projected, [Fraction(yi - base[i]) for yi, i in zip(y, pivots)])
            q = [b + sum(ci * vec[j] for ci, vec in zip(c, basis)) for j, b in enumerate(base)]
            if all(Fraction(x).denominator == 1 for x in q):
                out.append(tuple(int(x) for x in q))
    return sorted(out)


def _agree_with_reference(points, k=None):
    """``k``, when given, is ``_ref_affine_rank(points)``, already computed."""
    if k is None:
        k = _ref_affine_rank(points)
    assert affine_rank(points) == k
    poly = LatticePolytope(
        tuple(f"e{i}" for i in range(len(points[0]))),
        tuple(points),
        tuple((str(i),) for i in range(len(points))),
        k,
    )
    try:
        expected = _ref_lattice_points(poly)
    except (ValueError, BudgetError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            lattice_points(poly)
    else:
        assert lattice_points(poly) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_elimination_agrees_with_fraction_reference_on_pairs(n, comparable_pairs):
    pairs = comparable_pairs(n)
    if n == 5:
        pairs = random.Random(5).sample(pairs, 8)
    for v, w in pairs:
        for order in (DIAG, ANTI):
            poly = polytope(v, w, order)
            k = _ref_affine_rank(poly.points)
            assert poly.affine_dim == k
            _agree_with_reference(list(poly.points), k)


def _random_point_set(rng):
    """Integer points on a random flat of dimension <= 3, with repeats."""
    ambient = rng.randint(1, 4)
    dim = rng.randint(0, min(3, ambient))
    base = [rng.randint(-3, 3) for _ in range(ambient)]
    directions = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
    points = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [rng.randint(-1, 1) for _ in directions]
        points.append(
            tuple(b + sum(c * d[i] for c, d in zip(coeffs, directions)) for i, b in enumerate(base))
        )
    points += rng.sample(points, rng.randint(0, len(points)))  # repeated points
    rng.shuffle(points)
    return points


def test_elimination_agrees_with_fraction_reference_on_random_sets():
    rng = random.Random(20230)
    special = [
        [()],
        [(), ()],
        [(2, -1)] * 3,
        [(0, 0), (2, -4), (-1, 2), (2, -4)],  # collinear, repeated
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (2, -1, 0)],  # coplanar
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(-3, 1, 0, 2), (-1, 2, 1, 2), (1, 3, 2, 2), (-3, 1, 0, 2)],  # collinear in 4-space
    ]
    for points in special + [_random_point_set(rng) for _ in range(100)]:
        _agree_with_reference(points)


def test_long_segment_scans_its_projected_box():
    # the ambient box holds 2,001 * 1,001 points, over the budget; the scan
    # and the reference both bound the 2,001 points of its projection
    points = [(0, 0), (2000, 1000), (1000, 500)]
    poly = LatticePolytope(("e0", "e1"), tuple(points), (("0",), ("1",), ("2",)), 1)
    assert lattice_points(poly) == [(2 * t, t) for t in range(1001)]
    _agree_with_reference(points)


def _full_rank_set(rng, k):
    """Distinct integer points of Z^k, 2 to 8 of them, spanning Z^k affinely."""
    while True:
        size = rng.randint(2, 8)
        pts = sorted({tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(size)})
        if _ref_affine_rank(pts) == k:
            rng.shuffle(pts)
            return pts


@pytest.mark.parametrize("k", [1, 2, 3])
def test_facet_routine_agrees_with_per_dimension_hull_test(k):
    # every point of a box one step beyond the bounding box of each set
    rng = random.Random(7000 + k)
    for _ in range(100):
        pts = _full_rank_set(rng, k)
        new, old = _hull_test(pts, k), _ref_hull_test(pts, k)
        box = [range(min(p[i] for p in pts) - 1, max(p[i] for p in pts) + 2)
               for i in range(k)]
        for x in itertools.product(*box):
            assert new(x) == old(x), (pts, x)


def _det_by_normals(m):
    """Determinant of a k x k matrix, k <= 4, by expansion along the first
    row: the cofactors of a 3 x 3 or smaller matrix are the hull test's
    normal of its other rows, and a 4 x 4 matrix expands into 3 x 3 minors."""
    k = len(m)
    if k == 0:
        return 1
    if k <= 3:
        return sum(map(operator.mul, m[0], _normal(m[1:], k)))
    return sum(
        (-1) ** j * x * _det_by_normals([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


def test_det_matches_leibniz_formula():
    # the cofactor routine the hull test's normals replaced was checked on
    # these determinants; the normals now carry every case
    rng = random.Random(11)
    for k in [0, 1, 2, 3, 4] * 20:
        m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        leibniz = sum(
            (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            * math.prod(m[i][perm[i]] for i in range(k))
            for perm in itertools.permutations(range(k))
        )
        assert _det_by_normals(m) == leibniz


# ---------------------------------------------------------------------------
# the dense product-matrix route the factor sumset replaced, kept as the
# reference of differential tests: S by membership tests, AS by a dense
# triple loop, the polytope by deduping every column of AS and ranking every
# distinct point, and the per-cell text widths


def _ref_segre_matrix(v, w):
    factors = segre_factors(v, w)
    cols = [J for factor in factors for J in factor]
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


def _ref_mul(a, b):
    if a.col_labels != b.row_labels:
        raise ValueError("matrix shapes/labels do not align")
    cols = b.columns()
    rows = tuple(
        tuple(sum(map(operator.mul, row, col)) for col in cols)
        for row in a.entries
    )
    return IntMatrix(a.row_labels, b.col_labels, rows)


def _ref_text(m, name=None):
    widths = [
        max(len(lbl), max((len(str(row[j])) for row in m.entries), default=1))
        for j, lbl in enumerate(m.col_labels)
    ]
    label_w = max((len(r) for r in m.row_labels), default=0)
    lines = []
    if name is not None:
        lines.append(f"{name} =")
    header = " " * label_w + "  " + "  ".join(
        lbl.rjust(w) for lbl, w in zip(m.col_labels, widths)
    )
    lines.append(header.rstrip())
    for lbl, row in zip(m.row_labels, m.entries):
        cells = "  ".join(
            (str(e) if e else "").rjust(w) for e, w in zip(row, widths)
        )
        lines.append((lbl.ljust(label_w) + "  " + cells).rstrip())
    return "\n".join(lines)


def _ref_product_polytope(prod):
    labels = {}
    for col, lbl in zip(prod.columns(), prod.col_labels):
        labels.setdefault(col, []).append(lbl)
    points = tuple(labels)
    return LatticePolytope(
        prod.row_labels,
        points,
        tuple(tuple(g) for g in labels.values()),
        affine_rank(points),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sumset_polytope_agrees_with_product_matrix_reference(n, comparable_pairs):
    pairs = comparable_pairs(n)
    if n == 5:
        pairs = random.Random(55).sample(pairs, 40) + [(identity(5), longest(5))]
    for v, w in pairs:
        s = segre_matrix(v, w)
        assert s == _ref_segre_matrix(v, w)
        assert s.text("S") == _ref_text(s, "S")
        for order in (DIAG, ANTI):
            a = restricted_map_matrix(v, w, order)
            prod = a.mul(s)
            assert prod == _ref_mul(a, s)
            assert polytope(v, w, order) == _ref_product_polytope(prod)
            assert a.text("A") == _ref_text(a, "A")
            assert prod.text("AS") == _ref_text(prod, "AS")


def _random_matrix_pair(rng):
    """Two random integer matrices whose shapes and labels align."""
    rows, inner, cols = (rng.choice([0, 1, 2, 3, 4]) for _ in range(3))

    def labels(prefix, k):
        return tuple(prefix * rng.randint(0, 3) + rng.choice(["", str(i)]) for i in range(k))

    def entries(r, c):
        return tuple(
            tuple(rng.choice([0, 0, 0, 1, -1, rng.randint(-120, 120)]) for _ in range(c))
            for _ in range(r)
        )

    middle = labels("m", inner)
    return (
        IntMatrix(labels("r", rows), middle, entries(rows, inner)),
        IntMatrix(middle, labels("c", cols), entries(inner, cols)),
    )


def test_mul_and_text_agree_with_reference_on_random_matrices():
    rng = random.Random(2024)
    shapes = set()
    for _ in range(200):
        a, b = _random_matrix_pair(rng)
        shapes.add((len(a.entries), len(b.entries), len(b.col_labels)))
        prod = a.mul(b)
        assert prod == _ref_mul(a, b)
        for m in (a, b, prod):
            assert m.text() == _ref_text(m)
            assert m.text("M") == _ref_text(m, "M")
    # every empty dimension is among the draws
    assert {0} <= {r for r, _, _ in shapes}
    assert {0} <= {i for _, i, _ in shapes}
    assert {0} <= {c for _, _, c in shapes}


def _field_bytes(m):
    """Bytes of the narrowest signed field of 1, 2, 4 or 8 bytes holding
    +-m; 16 for anything wider."""
    return next((b for b in (1, 2, 4, 8) if m < 1 << (8 * b - 1)), 16)


def _scaled_matrix_pair(rng, shape, low, high, spread):
    """Matrices of the given (rows, inner, cols) shape: the left one's
    entries within +-spread, the right one's in [low, high], a zero row in
    each now and then."""

    def entries(r, c, pick):
        return tuple(
            (0,) * c if rng.random() < 0.2 else tuple(pick() for _ in range(c)) for _ in range(r)
        )

    rows, inner, cols = shape
    middle = tuple(f"m{i}" for i in range(inner))
    return (
        IntMatrix(
            tuple(f"r{i}" for i in range(rows)),
            middle,
            entries(rows, inner, lambda: rng.choice([0, 1, -1, rng.randint(-spread, spread)])),
        ),
        IntMatrix(
            middle,
            tuple(f"c{i}" for i in range(cols)),
            entries(inner, cols, lambda: rng.choice([0, low, high, rng.randint(low, high)])),
        ),
    )


def test_mul_agrees_with_reference_at_every_field_width():
    # products whose entries need 1-, 2-, 4-, 8-byte and wider signed
    # fields, from right entries in range(256) and beyond it; a left factor
    # with a negative entry takes the plain product, so the packed widths
    # are pinned by test_mul_packs_byte_valued_factors_at_every_field_width
    rng = random.Random(4242)
    ranges = [
        (0, 1), (0, 255), (-3, 3), (-255, 300), (-(2**20), 2**20), (-(2**40), 2**40), (2**62, 2**64)
    ]
    seen = set()
    for low, high in ranges:
        for spread in (1, 100, 2**16, 2**31):
            for _ in range(6):
                shape = tuple(rng.randint(1, 5) for _ in range(3))
                a, b = _scaled_matrix_pair(rng, shape, low, high, spread)
                prod = a.mul(b)
                assert prod == _ref_mul(a, b)
                top = max(map(abs, itertools.chain.from_iterable(prod.entries)), default=0)
                seen.add((_field_bytes(top), 0 <= low and high < 256))
    for shape in itertools.product([0, 3], repeat=3):  # every empty shape
        for low, high in ((0, 1), (-5, 5)):
            a, b = _scaled_matrix_pair(rng, shape, low, high, 7)
            assert a.mul(b) == _ref_mul(a, b)
    # 16: some product entry is at least 2^63
    assert {(1, True), (2, True), (4, True), (8, True)} <= seen
    assert {(1, False), (2, False), (4, False), (8, False), (16, False)} <= seen


def _operator_reads(monkeypatch):
    """The names :meth:`IntMatrix.mul` reads from ``operator``, recorded as
    it runs: the plain product reads ``mul`` once per product entry, the
    packed product never."""
    reads = []

    class Operator:
        def __getattr__(self, name):
            reads.append(name)
            return getattr(operator, name)

    module = importlib.import_module("richtoric.polytope")
    monkeypatch.setattr(module, "operator", Operator())
    return reads


@pytest.mark.parametrize(
    "top, inner, code",
    [
        (1, 3, "B"), (15, 1, "B"), (1, 255, "B"), (16, 1, "H"), (1, 256, "H"), (255, 1, "H"),
        (255, 1_000, "I"), (255, 66_051, "I"), (255, 66_052, "Q"),
    ],
)
def test_mul_packs_byte_valued_factors_at_every_field_width(monkeypatch, top, inner, code):
    # entries in range(top + 1); the first row of the left factor and the
    # first column of the right one are all ``top``, so product entry (0, 0)
    # is top * top * inner, the largest; ``code`` names the narrowest
    # unsigned field that holds it, and only a one-byte field ("B") is
    # packed: every wider product takes the plain row-by-column sum
    rng = random.Random(top * inner)
    rows, cols = 3, 4
    middle = tuple(f"m{i}" for i in range(inner))
    left = IntMatrix(
        tuple(f"r{i}" for i in range(rows)),
        middle,
        ((top,) * inner,) + tuple(tuple(rng.randint(0, top) for _ in middle) for _ in range(rows - 1)),
    )
    right = IntMatrix(
        middle,
        tuple(f"c{j}" for j in range(cols)),
        tuple((top,) + tuple(rng.randint(0, top) for _ in range(cols - 1)) for _ in middle),
    )
    reads = _operator_reads(monkeypatch)
    prod = left.mul(right)
    assert reads.count("mul") == (0 if code == "B" else rows * cols)
    assert prod == _ref_mul(left, right)
    assert prod.entries[0][0] == top * top * inner


@pytest.mark.parametrize(
    "low, high",
    [(-1, 1), (-255, 0), (0, 256), (2**64, 2**64 + 5), (-(2**70), 2**70)],
)
def test_mul_takes_the_plain_product_outside_range_256(monkeypatch, low, high):
    # an entry outside range(256) in either factor: no packing, one plain
    # sum of products per product entry
    rng = random.Random(high)
    reads = _operator_reads(monkeypatch)
    entries_made = 0
    for outside in ("left", "right", "both"):
        for shape in [(3, 4, 5), (1, 1, 1), (2, 6, 3)]:
            rows, inner, cols = shape
            middle = tuple(f"m{i}" for i in range(inner))

            def entries(r, c, wide):
                pick = (lambda: rng.randint(low, high)) if wide else (lambda: rng.randint(0, 255))
                out = [[pick() for _ in range(c)] for _ in range(r)]
                if wide:
                    out[0][0] = low if low < 0 else high
                return tuple(map(tuple, out))

            left = IntMatrix(
                tuple(f"r{i}" for i in range(rows)),
                middle,
                entries(rows, inner, outside != "right"),
            )
            right = IntMatrix(
                middle,
                tuple(f"c{j}" for j in range(cols)),
                entries(inner, cols, outside != "left"),
            )
            assert left.mul(right) == _ref_mul(left, right)
            entries_made += rows * cols
    assert reads.count("mul") == entries_made


def test_every_restricted_map_times_segre_matrix_is_packed(monkeypatch, comparable_pairs):
    # a row of A is a grid cell, in the initial terms of at most
    # 2^(n-1) - 1 proper subsets, a bound (id, w0) meets; S is 0/1, so the
    # largest row sum of A bounds every entry of AS and is below 256
    reads = _operator_reads(monkeypatch)
    for n in (2, 3, 4, 5):
        for v, w in comparable_pairs(n):
            s = segre_matrix(v, w)
            for order in (DIAG, ANTI):
                a = restricted_map_matrix(v, w, order)
                assert max(map(sum, a.entries)) <= 2 ** (n - 1) - 1
                a.mul(s)
    assert reads.count("mul") == 0
    # from n = 6 the Segre product of (id, w0) exceeds SEGRE_BUDGET; one
    # all-ones column is the 0/1 factor whose product is A's row sums, and
    # its bound, like that of any nonempty S, is A's largest row sum
    for n in (6, 7, 8):
        for order in (DIAG, ANTI):
            a = restricted_map_matrix(identity(n), longest(n), order)
            ones = IntMatrix(a.col_labels, ("all",), ((1,),) * len(a.col_labels))
            sums = a.mul(ones)
            assert max(sums.entries) == (2 ** (n - 1) - 1,)
            assert sums.entries == tuple((sum(row),) for row in a.entries)
    assert reads.count("mul") == 0


def test_polytope_builds_neither_s_nor_as(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("display-only matrix built by polytope()")

    # by module path: the package re-exports a function named ``polytope``
    module = importlib.import_module("richtoric.polytope")
    monkeypatch.setattr(module, "segre_matrix", refuse)
    monkeypatch.setattr(IntMatrix, "mul", refuse)
    poly = polytope(identity(5), longest(5), DIAG)
    assert (len(poly.points), poly.affine_dim) == (1_024, 10)


# the catalogue pairs whose lattice points took longest, affine dimension 3
LATTICE_HEAVY = [
    ((2, 1, 3, 4), (4, 2, 1, 3), ANTI),
    ((2, 3, 4, 1, 5), (2, 5, 4, 1, 3), ANTI),
    ((1, 2, 4, 3, 5), (1, 3, 5, 2, 4), DIAG),
]


@pytest.mark.parametrize(
    "v, w, order",
    LATTICE_HEAVY,
    ids=["".join(map(str, v)) + "-" + "".join(map(str, w)) for v, w, _ in LATTICE_HEAVY],
)
def test_lattice_heavy_pairs_agree_with_reference(v, w, order):
    poly = polytope(v, w, order)
    assert poly.affine_dim == 3
    assert lattice_points(poly) == _ref_lattice_points(poly)


def _box_volume(pts, coords):
    return math.prod(max(p[i] for p in pts) - min(p[i] for p in pts) + 1 for i in coords)


def test_lattice_points_scans_the_projected_box(monkeypatch):
    # the hull predicate runs once per point of the box of the projection
    # onto the pivot columns, not once per point of the ambient box
    module = importlib.import_module("richtoric.polytope")
    original = module._hull_test
    boxes, tested = [], []

    def counting(pts, k):
        inside = original(pts, k)
        boxes.append(_box_volume(pts, range(k)))

        def test(x):
            tested.append(x)
            return inside(x)

        return test

    monkeypatch.setattr(module, "_hull_test", counting)
    poly = polytope((2, 1, 3, 4), (4, 2, 1, 3), ANTI)
    points = lattice_points(poly)
    assert len(points) == 16
    assert _box_volume(poly.points, range(len(poly.ambient_labels))) == 192
    assert boxes == [24]  # pivots x2, x3, y1: 3 * 4 * 2
    assert len(tested) <= 24
    assert len(set(tested)) == len(tested)


def test_lattice_budget_bounds_the_scanned_box(monkeypatch):
    # the ambient box of (2134, 4213) holds 192 points and the scanned box
    # 24, so a budget between the two admits the scan
    module = importlib.import_module("richtoric.polytope")
    poly = polytope((2, 1, 3, 4), (4, 2, 1, 3), ANTI)
    points = lattice_points(poly)
    monkeypatch.setattr(module, "LATTICE_BUDGET", 100)
    assert lattice_points(poly) == points
    monkeypatch.setattr(module, "LATTICE_BUDGET", 23)
    with pytest.raises(BudgetError, match="^bounding box volume 24 exceeds budget 23$"):
        lattice_points(poly)


def test_polytope_dimension_is_richardson_dimension():
    # observed on every monomial-free pair with n <= 4, both orders
    ok, detail = polytope_dimensions(4)
    assert ok, detail
    assert detail.startswith("affine dim == N(w)-N(v) on 200 ")


# ``text`` before it took the widths from the labels: one string per cell,
# every column scanned for its widest cell


def _ref_text_by_cells(m, name=None):
    cells = [[str(e) if e else "" for e in row] for row in m.entries]
    columns = list(zip(*cells)) or [()] * len(m.col_labels)
    widths = [max(len(lbl), 1, *map(len, col)) for lbl, col in zip(m.col_labels, columns)]
    label_w = max((len(r) for r in m.row_labels), default=0)
    lines = []
    if name is not None:
        lines.append(f"{name} =")
    header = " " * label_w + "  " + "  ".join(map(str.rjust, m.col_labels, widths))
    lines.append(header.rstrip())
    for lbl, row in zip(m.row_labels, cells):
        cells_text = "  ".join(map(str.rjust, row, widths))
        lines.append((lbl.ljust(label_w) + "  " + cells_text).rstrip())
    return "\n".join(lines)


def _random_labelled_matrix(rng):
    rows, cols = rng.randint(0, 4), rng.randint(0, 5)
    width = rng.choice([0, 1, 3, 6])

    def label(prefix):
        return (prefix * rng.randint(0, width))[:width]

    magnitude = rng.choice([1, 9, 99, 99_999])
    return IntMatrix(
        tuple(label("r") for _ in range(rows)),
        tuple(label("c") for _ in range(cols)),
        tuple(
            tuple(rng.choice([0, 0, 1, rng.randint(-magnitude, magnitude)]) for _ in range(cols))
            for _ in range(rows)
        ),
    )


def test_text_agrees_with_per_cell_reference_on_random_matrices():
    rng = random.Random(1111)
    seen = set()
    for _ in range(400):
        m = _random_labelled_matrix(rng)
        assert m.text() == _ref_text_by_cells(m)
        assert m.text("M") == _ref_text_by_cells(m, "M")
        entries = [e for row in m.entries for e in row]
        narrowest = min((max(len(lbl), 1) for lbl in m.col_labels), default=0)
        seen.add("no rows" if not m.entries else "no columns" if not m.col_labels else "cells")
        seen.update(
            name
            for name, hit in [
                ("negative", any(e < 0 for e in entries)),
                ("empty label", "" in m.col_labels + m.row_labels),
                ("scanned", any(len(str(e)) > narrowest for e in entries if e)),
                ("not scanned", entries and all(len(str(e)) <= narrowest for e in entries)),
                (
                    "wider than own label",
                    any(
                        len(str(e)) > len(lbl)
                        for row in m.entries
                        for e, lbl in zip(row, m.col_labels)
                        if e
                    ),
                ),
            ]
            if hit
        )
    assert seen == {
        "no rows",
        "no columns",
        "cells",
        "negative",
        "empty label",
        "scanned",
        "not scanned",
        "wider than own label",
    }


# the row path of ``text`` (every entry a digit 0..9) against the per-cell
# reference, at the edges of the path and on the A, S and AS of S_5 pairs


@pytest.mark.parametrize(
    "m",
    [
        # equal widths in runs that are not adjacent: 2, 3, 2, 3, 2
        IntMatrix(("r", "rr"), ("ab", "abc", "de", "fgh", "ij"), ((1, 2, 3, 4, 5), (0, 9, 0, 0, 1))),
        # zero-length labels, and rows of zeros (trailing blanks stripped)
        IntMatrix(("", "r"), ("", "c", ""), ((0, 0, 0), (0, 7, 0))),
        IntMatrix(("long label", "x"), ("c1", "c2"), ((0, 0), (0, 0))),
        IntMatrix(("a",), ("c1", "c2", "c3"), ((5, 0, 0),)),
        # at the boundary of the path: 9 takes it, 10 and -1 do not
        IntMatrix(("a", "b"), ("c", "dd"), ((9, 0), (0, 9))),
        IntMatrix(("a", "b"), ("c", "dd"), ((9, 0), (0, 10))),
        IntMatrix(("a", "b"), ("c", "dd"), ((-1, 0), (0, 9))),
        IntMatrix(("a",), ("c",), ((255,),)),
        IntMatrix(("a",), ("c",), ((256,),)),
        # no rows, no columns, neither
        IntMatrix((), ("c1", "", "c333"), ()),
        IntMatrix(("r1", "r22"), (), ((), ())),
        IntMatrix((), (), ()),
    ],
    ids=lambda m: "x".join(map(str, (len(m.row_labels), len(m.col_labels))))
    + ":" + ",".join(map(str, itertools.chain.from_iterable(m.entries))),
)
def test_text_row_path_edges_agree_with_reference(m):
    assert m.text() == _ref_text(m)
    assert m.text("M") == _ref_text(m, "M")


@pytest.mark.parametrize(
    "stride",
    [10, pytest.param(1, marks=pytest.mark.skipif(
        os.environ.get("RICHTORIC_FULL") != "1", reason="full tier only (RICHTORIC_FULL=1)"))],
    ids=["every-10th", "every"],
)
def test_text_agrees_with_reference_on_s5_pairs(stride, comparable_pairs):
    # the per-cell reference takes about 20 s over all 3,781 pairs, so
    # tier-1 reads every tenth and the full tier reads every one
    for v, w in comparable_pairs(5)[::stride]:
        s = segre_matrix(v, w)
        assert s.text("S") == _ref_text(s, "S")
        for order in (DIAG, ANTI):
            a = restricted_map_matrix(v, w, order)
            prod = a.mul(s)
            assert a.text("A") == _ref_text(a, "A")
            assert prod.text("AS") == _ref_text(prod, "AS")
