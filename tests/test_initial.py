import functools
import hashlib
import itertools
import json
import operator
import pickle
import random
import re

import pytest

from richtoric.perms import (
    BudgetError,
    all_perms,
    all_subsets,
    bruhat_leq,
    complement,
    enumerate_T,
    identity,
    induced,
    interval_mask,
    longest,
    perm_leq_subset,
    perm_masks,
    reverse,
    subset_bits,
    subset_leq_perm,
    subset_str,
)
from richtoric.compat import in_Tn, tn_pairs
from richtoric.tableaux import (
    count_standard,
    enumerate_ssyt,
    row_sort,
    sort_columns,
    tableau_str,
)
from richtoric import initial
from richtoric.initial import (
    ClassifyRecord,
    KernelBinomial,
    TermOrder,
    _code_table,
    _fold,
    _prefix_part,
    _prefix_parts,
    _side,
    _users,
    classify_all,
    classify_rows,
    degree2_kernel_generators,
    initial_term,
    is_monomial_free,
    kernel_hilbert_dim,
    monomial_str,
    phi_image,
    plucker_weight,
    restrict,
    weight_matrix,
    witness_table,
)
from richtoric.cli import classification_csv, witness_detail

DIAG = TermOrder.DIAGONAL
ANTI = TermOrder.ANTIDIAGONAL


# ---------------------------------------------------------------------------
# weights and initial terms


def test_term_order_hashes_by_identity():
    # members are singletons: a spelling, a pickle round trip and a cache
    # key all reach the same object
    assert TermOrder("diagonal") is TermOrder.DIAGONAL
    assert pickle.loads(pickle.dumps(TermOrder.ANTIDIAGONAL)) is TermOrder.ANTIDIAGONAL
    gens = degree2_kernel_generators(3, TermOrder.DIAGONAL)
    hits = degree2_kernel_generators.cache_info().hits
    assert degree2_kernel_generators(3, TermOrder("diagonal")) is gens
    assert degree2_kernel_generators.cache_info().hits == hits + 1


@pytest.mark.parametrize("order", ["diagonal", "antidiagonal", None])
def test_an_order_that_is_not_a_member_is_refused_before_any_table(order):
    # a member's value once took the antidiagonal branch and was cached
    # under its own key; every table-building path refuses it instead
    from richtoric.polytope import polytope, restricted_map_matrix

    v, w = (1, 2, 3, 4), (1, 3, 4, 2)
    caches = (degree2_kernel_generators, _users, _prefix_parts, _side, _code_table)
    sizes = [c.cache_info().currsize for c in caches]
    calls = [
        lambda: initial_term((1, 3), order),
        lambda: degree2_kernel_generators(4, order),
        lambda: is_monomial_free(v, w, order),
        lambda: restrict(v, w, order),
        lambda: next(classify_rows(4, order)),
        lambda: kernel_hilbert_dim(v, w, 2, order),
        lambda: restricted_map_matrix(v, w, order),
        lambda: polytope(v, w, order),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="TermOrder member"):
            call()
    assert [c.cache_info().currsize for c in caches] == sizes
    assert is_monomial_free(v, w, DIAG) and not is_monomial_free(v, w, ANTI)


def test_weight_matrix_n5():
    assert weight_matrix(5) == (
        (0, 0, 0, 0, 0),
        (5, 4, 3, 2, 1),
        (10, 8, 6, 4, 2),
        (15, 12, 9, 6, 3),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_weight_matrix_shape(n):
    m = weight_matrix(n)
    assert len(m) == n - 1 and all(len(row) == n for row in m)
    assert all(x == 0 for x in m[0])
    assert [row[-1] for row in m] == list(range(n - 1))


def test_initial_terms():
    assert initial_term((1, 3, 5), DIAG) == ((1, 1), (2, 3), (3, 5))
    assert initial_term((2, 3), ANTI) == ((1, 3), (2, 2))
    assert initial_term((2,), DIAG) == initial_term((2,), ANTI) == ((1, 2),)


def test_plucker_weights():
    assert plucker_weight((1, 3, 5), 5) == 5
    assert plucker_weight((5,), 5) == 0
    # first grid row carries zero weight
    m = weight_matrix(5)
    for J in all_subsets(5):
        expected = sum(m[i - 1][j - 1] for i, j in initial_term(J, DIAG))
        assert plucker_weight(J, 5) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_weight_matrix_defines_both_maps(n):
    # over every way to put J's elements in rows 1..|J|, one per row, the
    # diagonal term is the unique lightest and the antidiagonal the unique
    # heaviest
    m = weight_matrix(n)
    for J in all_subsets(n):
        weight = {
            cells: sum(m[i - 1][j - 1] for i, j in cells)
            for cells in (tuple(enumerate(p, 1)) for p in itertools.permutations(J))
        }
        low, high = min(weight.values()), max(weight.values())
        assert [c for c, x in weight.items() if x == low] == [initial_term(J, DIAG)]
        assert [c for c, x in weight.items() if x == high] == [initial_term(J, ANTI)]
        assert low == plucker_weight(J, n)


def test_phi_images():
    # the image identifies exactly row-wise equal monomials
    assert phi_image([(2, 3), (1,)], DIAG) == phi_image([(1, 3), (2,)], DIAG)
    assert phi_image([(1, 3), (2,)], DIAG) != phi_image([(1, 2), (3,)], DIAG)
    assert phi_image([], DIAG) == ()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_diagonal_image_is_row_sort_invariant(n):
    for m in itertools.combinations_with_replacement(all_subsets(n), 2):
        cols = sort_columns(m)
        assert phi_image(cols, DIAG) == phi_image(row_sort(cols), DIAG)


# ---------------------------------------------------------------------------
# degree-two kernel generators


def test_unique_generator_at_n3():
    gens = degree2_kernel_generators(3, DIAG)
    assert len(gens) == 1
    assert monomial_str(gens[0].lhs) == "P23*P1"
    assert monomial_str(gens[0].rhs) == "P13*P2"


def test_generator_counts_frozen():
    # counts recorded from this implementation, cross-checked by the
    # image-class structure tests below
    assert len(degree2_kernel_generators(4, DIAG)) == 10
    assert len(degree2_kernel_generators(4, ANTI)) == 10
    assert len(degree2_kernel_generators(5, DIAG)) == 66
    assert len(degree2_kernel_generators(2, DIAG)) == 0


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_generators_pair_equal_images(n, order):
    for g in degree2_kernel_generators(n, order):
        assert phi_image(g.lhs, order) == phi_image(g.rhs, order)
        assert g.lhs != g.rhs


def _reference_generators(n, order):
    """The degree-two kernel built pair by pair from phi_image and row_sort."""
    subs = all_subsets(n)
    classes = {}
    for a in range(len(subs)):
        for b in range(a, len(subs)):
            m = sort_columns((subs[a], subs[b]))
            classes.setdefault(phi_image(m, order), []).append(m)
    gens = []
    for image in sorted(classes):
        members = sorted(classes[image], key=lambda m: tuple("".join(map(str, c)) for c in m))
        canon = row_sort(members[0]) if order is DIAG else members[0]
        gens.extend((m, canon) for m in members if len(members) > 1 and m != canon)
    return gens


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generators_match_pairwise_reference(n, order):
    assert [tuple(g) for g in degree2_kernel_generators(n, order)] == _reference_generators(n, order)


def _ref_degree2_kernel_generators(n, order):
    """The kernel build keyed by sorted cell tuples and label tuples, as it
    stood before the packed image codes."""
    subs = all_subsets(n)
    cells = {J: initial_term(J, order) for J in subs}
    label = {J: subset_str(J) for J in subs}
    classes = {}
    for a, A in enumerate(subs):
        for B in subs[a:]:
            m = (B, A) if len(B) > len(A) else (A, B)
            classes.setdefault(tuple(sorted(cells[A] + cells[B])), []).append(m)
    gens = []
    for image in sorted(classes):
        members = classes[image]
        if len(members) < 2:
            continue
        members.sort(key=lambda m: (label[m[0]], label[m[1]]))
        if order is DIAG:
            canon = row_sort(members[0])
            if canon not in members:
                raise RuntimeError(
                    f"row-sorted form {tableau_str(canon)} escaped its image class"
                )
        else:
            canon = members[0]
        gens.extend(KernelBinomial(m, canon) for m in members if m != canon)
    return tuple(gens)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", range(2, 9))
def test_packed_kernel_build_matches_the_tuple_keyed_build(n, order):
    # generator order decides the witness and survivor order in `check`, so
    # the whole tuple must match, not just the set
    gens = degree2_kernel_generators(n, order)
    assert gens == _ref_degree2_kernel_generators(n, order)
    assert all(type(g) is KernelBinomial for g in gens)


@pytest.mark.parametrize("n", range(3, 10))
def test_diagonal_canonical_side_is_row_sorted(n):
    for g in degree2_kernel_generators(n, DIAG):
        assert g.rhs == row_sort(g.lhs)


@pytest.mark.parametrize("n", [3, 4])
def test_antidiagonal_canonical_side_is_lex_least(n):
    gens = degree2_kernel_generators(n, ANTI)
    by_image = {}
    for g in gens:
        by_image.setdefault(phi_image(g.rhs, ANTI), set()).add(g.rhs)
        by_image[phi_image(g.rhs, ANTI)].add(g.lhs)
    for members in by_image.values():
        canon = min(members, key=lambda m: tuple("".join(map(str, c)) for c in m))
        for g in gens:
            if g.rhs in members:
                assert g.rhs == canon


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_generators_span_their_classes(order):
    # every image class of size >= 2 contributes size-1 binomials
    n = 4
    classes = {}
    for m in itertools.combinations_with_replacement(all_subsets(n), 2):
        cols = sort_columns(m)
        classes.setdefault(phi_image(cols, order), set()).add(cols)
    expected = sum(len(c) - 1 for c in classes.values() if len(c) > 1)
    assert len(degree2_kernel_generators(n, order)) == expected


# ---------------------------------------------------------------------------
# restriction


def test_restriction_witness_132_312():
    report = restrict((1, 3, 2), (3, 1, 2), DIAG)
    assert not report.monomial_free
    assert len(report.witnesses) == 1
    wit = report.witnesses[0]
    assert monomial_str(wit.surviving) == "P13*P2"
    assert monomial_str(wit.vanished) == "P23*P1"
    assert [c for c in wit.missing] == [(2, 3)]
    assert report.vanished_count == 0 and not report.survivors


def test_restriction_full_flag_keeps_all_generators():
    n = 4
    report = restrict(identity(n), longest(n), DIAG)
    assert report.monomial_free
    assert len(report.survivors) == len(degree2_kernel_generators(n, DIAG))
    assert report.vanished_count == 0


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_restriction_of_point_pairs_is_monomial_free(order):
    for w in all_perms(4):
        report = restrict(w, w, order)
        assert report.monomial_free
        assert not report.survivors


def test_restriction_requires_comparable_pair():
    with pytest.raises(ValueError):
        restrict((3, 1, 2), (1, 3, 2), DIAG)


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_fast_path_agrees_with_full_report(order):
    # is_monomial_free reads two cached folds; it must match the full report
    for v in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(v, w):
                assert (
                    is_monomial_free(v, w, order)
                    == restrict(v, w, order).monomial_free
                )


def _tuple_restrict(gens, v, w):
    """(survivors, witnesses, vanished count) by a tuple scan of T."""
    n = len(v)
    surviving = frozenset(
        J for J in all_subsets(n) if perm_leq_subset(v, J) and subset_leq_perm(J, w)
    )
    keep, witnesses, vanished = [], [], 0
    for g in gens:
        lhs_in = all(c in surviving for c in g.lhs)
        rhs_in = all(c in surviving for c in g.rhs)
        if lhs_in and rhs_in:
            keep.append(g)
        elif lhs_in or rhs_in:
            alive, dead = (g.lhs, g.rhs) if lhs_in else (g.rhs, g.lhs)
            missing = tuple(c for c in dead if c not in surviving)
            witnesses.append((g, alive, dead, missing))
        else:
            vanished += 1
    return tuple(keep), tuple(witnesses), vanished


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mask_restriction_agrees_with_tuple_scan(n, order):
    gens = degree2_kernel_generators(n, order)
    counts = {(r.v, r.w): r for r in classify_all(n, order)}
    for v in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(v, w):
                assert (v, w) not in counts
                with pytest.raises(ValueError):
                    is_monomial_free(v, w, order)
                continue
            keep, witnesses, vanished = _tuple_restrict(gens, v, w)
            report = restrict(v, w, order)
            assert report.survivors == keep
            assert tuple(tuple(x) for x in report.witnesses) == witnesses
            assert report.vanished_count == vanished
            assert is_monomial_free(v, w, order) == (not witnesses)
            record = counts.pop((v, w))
            assert record.num_witnesses == len(witnesses)
            assert record.monomial_free == (not witnesses)
    assert not counts


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_restrict_agrees_with_tuple_scan_seeded(n, order):
    # past the exhaustive n <= 5 gate above, up to the n = 8 that ``check``
    # runs: one pass with every fold and generator bitset cold, one warm
    gens = degree2_kernel_generators(n, order)
    pairs = [(v, w) for v, w, leq in _seeded_pairs(n, 4, seed=80 + n) if leq]
    pairs.append((identity(n), longest(n)))
    want = [_tuple_restrict(gens, v, w) for v, w in pairs]
    assert any(witnesses for _, witnesses, _ in want)
    assert any(keep for keep, _, _ in want)
    for cold in (True, False):
        for (v, w), (keep, witnesses, vanished) in zip(pairs, want):
            if cold:
                _side.cache_clear()
                _prefix_parts.cache_clear()
                _users.cache_clear()
            report = restrict(v, w, order)
            assert report.survivors == keep
            assert tuple(tuple(x) for x in report.witnesses) == witnesses
            assert report.vanished_count == vanished


def _seeded_pairs(n, comparable, seed):
    """Random (v, w, v <= w) of S_n, drawn until ``comparable`` have v <= w."""
    rng, perms, pairs = random.Random(seed), all_perms(n), []
    while comparable:
        v, w = rng.choice(perms), rng.choice(perms)
        pairs.append((v, w, bruhat_leq(v, w)))
        comparable -= pairs[-1][2]
    return pairs


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [6, 7])
def test_folded_witness_count_agrees_with_generator_scan(n, order):
    # past the exhaustive n <= 5 gate above: the table's Bruhat filter and
    # folded count against the tuple Bruhat test and the per-generator scan
    table, masks = witness_table(n, order), _generator_masks(n, order)
    row = dict(zip(all_perms(n), table))
    for v, w, leq in _seeded_pairs(n, 200, seed=n):
        prefix, _, la, ra, _, _ = row[v]
        _, below, _, _, lb, rb = row[w]
        assert (not prefix & ~below) == leq
        if leq:
            count = ((la | lb) ^ (ra | rb)).bit_count()
            assert count == sum(_scan_witnesses(masks, interval_mask(v, w)))


@functools.lru_cache(maxsize=None)
def _generator_masks(n, order):
    """The (lhs, rhs) column masks of each degree-two generator."""
    bit = subset_bits(n)
    return tuple(
        tuple(functools.reduce(operator.or_, (bit[c] for c in side)) for side in g)
        for g in degree2_kernel_generators(n, order)
    )


def _scan_witnesses(masks, T):
    """Per (lhs, rhs) mask pair: is exactly one side a submask of T?"""
    return [(not lhs & ~T) != (not rhs & ~T) for lhs, rhs in masks]


def _ref_is_monomial_free(v, w, order):
    """The per-generator scan that ``is_monomial_free`` ran before the fold."""
    return not any(_scan_witnesses(_generator_masks(len(v), order), interval_mask(v, w)))


def test_cached_fold_agrees_with_generator_scan():
    # S_6 and S_7 cases interleave, each in both orders on the same side
    # caches, so a key missing the order reads the other kernel's fold (a
    # side's key is the permutation, which carries n)
    per_n = []
    for n in (6, 7):
        # random comparable pairs are rarely monomial-free, so add family
        # pairs (free in the diagonal order) and their w0-conjugates
        free = random.Random(n).sample(tn_pairs(n), 15)
        pairs = [(v, w) for v, w, leq in _seeded_pairs(n, 30, seed=60 + n) if leq]
        per_n.append(pairs + free + [(_conjugate(v), _conjugate(w)) for v, w in free])
    cases = [
        (v, w, order)
        for pairs in zip(*per_n)
        for v, w in pairs
        for order in (DIAG, ANTI)
    ]
    want = [_ref_is_monomial_free(*case) for case in cases]
    assert len(cases) == 240 and 60 <= sum(want) <= 180
    for case, free in zip(cases, want):
        _side.cache_clear()
        _prefix_parts.cache_clear()
        assert is_monomial_free(*case) == free
    for _ in range(2):  # filling the cache, then every fold warm
        for case, free in zip(cases, want):
            assert is_monomial_free(*case) == free


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_fold_is_keyed_by_n_and_order(order):
    # the same mask read at two sizes and in both orders, against the
    # definition: bit g is set iff generator g's side uses a subset outside
    inside = [perm_masks(p).above for p in all_perms(5)[::7]]
    for mask in inside:
        for n in (5, 6, 5):
            for o in (order, ANTI if order is DIAG else DIAG):
                lhs = rhs = 0
                for g, (lhs_cols, rhs_cols) in enumerate(_generator_masks(n, o)):
                    lhs |= bool(lhs_cols & ~mask) << g
                    rhs |= bool(rhs_cols & ~mask) << g
                assert _fold(mask, n, o) == (lhs, rhs)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_cached_sides_are_the_folds_of_each_permutation(n, order):
    # every permutation, each side cold and then warm, against the uncached
    # fold of its mask
    _side.cache_clear()
    _prefix_parts.cache_clear()
    for _ in range(2):
        for p in all_perms(n):
            m = perm_masks(p)
            assert _side(p, order, False) == (m.prefix, *_fold(m.above, n, order))
            assert _side(p, order, True) == (m.below, *_fold(m.below, n, order))


def test_cached_sides_stay_within_every_mask_of_s7_in_both_orders():
    bound = 4 * 5040
    assert _side.cache_info().maxsize == bound
    # a cold single pair folds only the two sides it reads
    _side.cache_clear()
    _prefix_parts.cache_clear()
    is_monomial_free(identity(6), longest(6), DIAG)
    assert _side.cache_info().currsize == 2


def test_side_cache_holds_both_sides_of_s7_in_both_orders():
    # the bound is exactly every side of S_7 in both orders: both tables
    # fill it without an eviction, and a second pass reads every side back
    _side.cache_clear()
    for order in (DIAG, ANTI):
        witness_table(7, order)
    assert _side.cache_info().currsize == 4 * 5040
    misses = _side.cache_info().misses
    for order in (DIAG, ANTI):
        witness_table(7, order)
    assert _side.cache_info().misses == misses


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_witness_table_above_the_sweep_bound_keeps_the_side_caches(monkeypatch, order):
    # the bound is read at call time: lowered to 4, an S_5 table folds its
    # sides uncached, so it adds no side and evicts none of S_4's (each
    # permutation has two sides, one cache entry each)
    _side.cache_clear()
    small = witness_table(4, order)
    filled = _side.cache_info().currsize
    assert filled == 2 * 24
    monkeypatch.setattr(initial, "SWEEP_MAX_N", 4)
    large = witness_table(5, order)
    assert _side.cache_info().currsize == filled
    misses = _side.cache_info().misses
    assert witness_table(4, order) == small
    assert _side.cache_info().misses == misses
    # the same rows as the cached sides give
    monkeypatch.undo()
    assert witness_table(5, order) == large
    assert _side.cache_info().currsize == 2 * (24 + 120)


def _definition_fold(masks, out):
    """Bit g is set iff generator g's lhs / rhs uses a subset in ``out``,
    read off a string of one digit per generator, the last generator first."""
    return tuple(
        int("0" + "".join("1" if side[i] & out else "0" for side in masks[::-1]), 2)
        for i in (0, 1)
    )


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_prefix_parts_against_their_definitions(n, order, cones):
    # every prefix set P, filled from an empty table: its bit, its cones in
    # its layer and the folds of the layer's subsets outside each cone
    masks, bit = _generator_masks(n, order), subset_bits(n)
    _prefix_parts.cache_clear()
    parts = _prefix_parts(n, order)
    assert len(parts) == 1 << n and not any(parts)
    for P in all_subsets(n):
        key = sum(1 << (j - 1) for j in P)
        layer = sum(bit[J] for J in itertools.combinations(range(1, n + 1), len(P)))
        down, up = cones(P, n)
        part = _prefix_part(parts, key, n, order)
        assert parts[key] is part
        # the up-cone is read only through its fold
        assert part == (
            (bit[P], *_definition_fold(masks, layer & ~up)),
            (down, *_definition_fold(masks, layer & ~down)),
        )
    # the empty and the full set are no prefix set
    assert parts[0] is parts[-1] is None and all(parts[1:-1])


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_sides_of_seeded_s8_permutations_are_their_folds(order):
    # the sides read at n = 8, first with the table and both side caches
    # empty, then warm
    perms = random.Random(88).sample(all_perms(8), 40)
    perms += [identity(8), longest(8)]
    _side.cache_clear()
    _prefix_parts.cache_clear()
    for _ in range(2):
        for p in perms:
            m = perm_masks(p)
            assert _side(p, order, False) == (m.prefix, *_fold(m.above, 8, order))
            assert _side(p, order, True) == (m.below, *_fold(m.below, 8, order))


def test_cold_sides_fill_one_part_per_prefix_set():
    _side.cache_clear()
    _prefix_parts.cache_clear()
    is_monomial_free(identity(6), longest(6), DIAG)
    # {1}, {1,2}, ... for the above side of id; {6}, {5,6}, ... for the
    # below side of w0
    filled = [key for key, part in enumerate(_prefix_parts(6, DIAG)) if part]
    assert filled == sorted({(1 << k) - 1 for k in range(1, 6)} | {
        ((1 << k) - 1) << (6 - k) for k in range(1, 6)
    })


def test_verdict_refusals():
    message = "^empty Richardson variety: v is not below w in Bruhat order$"
    for verdict in (is_monomial_free, _ref_is_monomial_free):
        with pytest.raises(ValueError, match=message):
            verdict((3, 1, 2), (1, 3, 2), DIAG)
        # the sizes are checked first, before any Bruhat test
        with pytest.raises(ValueError, match="^mismatched sizes: 2 vs 3$"):
            verdict((2, 1), (1, 2, 3), ANTI)


@pytest.mark.parametrize(
    "order, digest",
    [
        (DIAG, "e2431c0645c6e223ac332160b1a09e3a5224ad104854fbbe841dfd32e8245696"),
        (ANTI, "1dbfde4eb8e2ed31c752599d8b31d82ae59a5a9304b9150355f04516f52f2403"),
    ],
)
def test_s6_classification_digest(order, digest):
    csv = classification_csv(classify_all(6, order), order)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_witness_detail_json_roundtrip():
    report = restrict((1, 3, 2), (3, 1, 2), DIAG)
    payload = json.loads(json.dumps(witness_detail(report)))
    assert payload["monomial_free"] is False
    assert payload["witnesses"][0]["surviving_term"] == "P13*P2"
    assert payload["witnesses"][0]["vanishing_subsets"] == ["23"]


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classification_matches_family(n):
    for v in all_perms(n):
        for w in all_perms(n):
            if bruhat_leq(v, w):
                assert is_monomial_free(v, w, DIAG) == in_Tn(v, w)


def _conjugate(p):
    n = len(p)
    return tuple(n + 1 - x for x in reversed(p))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_antidiagonal_classification_is_conjugate_family(n):
    # reflecting the grid columns swaps the two term orders, so the
    # antidiagonal verdict at (v, w) is the diagonal verdict at the pair
    # conjugated by the order-reversing permutation
    for v in all_perms(n):
        for w in all_perms(n):
            if bruhat_leq(v, w):
                assert is_monomial_free(v, w, ANTI) == in_Tn(
                    _conjugate(v), _conjugate(w)
                )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_antidiagonal_classification_is_reversed_family(n):
    # observed, not proved: the antidiagonal verdict at (v, w) is also the
    # diagonal verdict at (w0 w, w0 v); left multiplication by w0 reverses
    # the Bruhat order (no mismatch on any comparable pair of S_6 either)
    def w0(p):
        return tuple(n + 1 - x for x in p)

    records = classify_all(n, ANTI)
    for r in records:
        assert bruhat_leq(w0(r.w), w0(r.v))
        assert r.monomial_free == in_Tn(w0(r.w), w0(r.v))
    assert sum(r.monomial_free for r in records) == len(tn_pairs(n))


# ---------------------------------------------------------------------------
# the two w0 symmetries: left multiplication, w0·u = (n+1-u(i))_i, and right
# multiplication, u·w0 = the one-line notation reversed


def _left_w0(p):
    n = len(p)
    return tuple(n + 1 - x for x in p)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_w0_maps_the_interval_subsets(n, comparable_pairs):
    # T of (w0·w, w0·v) is {n+1-J : J in T_w^v}; T of (w·w0, v·w0) is
    # {[n] \ J : J in T_w^v}
    for v, w in comparable_pairs(n):
        T = enumerate_T(v, w)
        left = enumerate_T(_left_w0(w), _left_w0(v))
        right = enumerate_T(reverse(w), reverse(v))
        assert len(left) == len(right) == len(T)
        assert set(left) == {tuple(sorted(n + 1 - j for j in J)) for J in T}
        assert set(right) == {complement(J, n) for J in T}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_left_w0_swaps_the_term_orders(n):
    # the antidiagonal term of P_J is the diagonal term of P_{w0(J)} with
    # grid columns reflected, so P_J -> P_{w0(J)} carries the antidiagonal
    # kernel into the diagonal one, generator by generator
    def w0(J):
        return tuple(sorted(n + 1 - j for j in J))

    for J in all_subsets(n):
        reflected = tuple((r, n + 1 - c) for r, c in initial_term(w0(J), DIAG))
        assert initial_term(J, ANTI) == reflected
    for g in degree2_kernel_generators(n, ANTI):
        lhs, rhs = (sort_columns(map(w0, m)) for m in g)
        assert lhs != rhs and phi_image(lhs, DIAG) == phi_image(rhs, DIAG)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_w0_maps_the_verdicts(n):
    # the antidiagonal verdict at (v, w) is the diagonal verdict at
    # (w0·w, w0·v); (v, w) -> (w·w0, v·w0) keeps the verdict and the witness
    # count in both orders
    sweeps = {order: classify_all(n, order) for order in (DIAG, ANTI)}
    for records in sweeps.values():
        assert len({(r.v, r.w) for r in records}) == len(records)
    diag = {(r.v, r.w): r for r in sweeps[DIAG]}
    for r in sweeps[ANTI]:
        assert r.monomial_free == diag[_left_w0(r.w), _left_w0(r.v)].monomial_free
    for records in sweeps.values():
        by_pair = {(r.v, r.w): r for r in records}
        for r in records:
            image = by_pair[reverse(r.w), reverse(r.v)]
            assert (image.monomial_free, image.num_witnesses) == (r.monomial_free, r.num_witnesses)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_complementing_columns_maps_the_kernel_onto_itself(n, order):
    # complementing every column, wider column first, sends each generator
    # to a generator, lhs to lhs: the finite check behind the right w0 map
    gens = degree2_kernel_generators(n, order)

    def flip(m):
        return sort_columns(complement(J, n) for J in m)

    image = {KernelBinomial(flip(g.lhs), flip(g.rhs)) for g in gens}
    assert len(image) == len(gens)
    assert image == set(gens)


def test_monomial_freeness_is_inherited():
    # downward direction: a monomial-free pair induces a monomial-free pair
    for v in all_perms(4):
        for w in all_perms(4):
            if not bruhat_leq(v, w):
                continue
            if is_monomial_free(v, w, DIAG):
                vi, wi = induced(v), induced(w)
                assert bruhat_leq(vi, wi)
                assert is_monomial_free(vi, wi, DIAG)


def _ref_sweep(n, order):
    """The sweep before the up-set walk: every ordered pair of S_n through
    the Bruhat filter prefix[v] & ~below[w] == 0."""
    perms, table, out = all_perms(n), witness_table(n, order), []
    for v, (prefix, _, la, ra, _, _) in zip(perms, table):
        for w, (_, below, _, _, lb, rb) in zip(perms, table):
            if not prefix & ~below:
                count = ((la | lb) ^ (ra | rb)).bit_count()
                out.append(ClassifyRecord(v, w, not count, count))
    return out


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_up_set_walk_agrees_with_the_pair_filter(n, order):
    records = classify_all(n, order)
    assert records == _ref_sweep(n, order)
    assert {tuple(map(type, r)) for r in records} == {(tuple, tuple, bool, int)}
    assert {type(r) for r in records} == {ClassifyRecord}


def test_classify_all_records():
    records = classify_all(3, DIAG)
    assert len(records) == 19
    as_dict = {(r.v, r.w): r for r in records}
    assert as_dict[((1, 3, 2), (3, 1, 2))].monomial_free is False
    assert as_dict[((1, 3, 2), (3, 1, 2))].num_witnesses == 1
    assert as_dict[((1, 2, 3), (1, 3, 2))].monomial_free is True
    free = {pair for pair, r in as_dict.items() if r.monomial_free}
    assert free == set(tn_pairs(3))


def test_classify_guard(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("witness_table ran for a refused n")

    monkeypatch.setattr(initial, "witness_table", no_sweep)
    message = r"^n=8 is outside the supported range 2\.\.7$"
    with pytest.raises(ValueError, match=message):
        classify_all(8, DIAG)
    # the generator checks n at the call, not at its first row
    with pytest.raises(ValueError, match=message):
        classify_rows(8, DIAG)


def test_classify_rejects_n_below_two():
    with pytest.raises(ValueError, match="n must be at least 2"):
        classify_all(1, DIAG)


def test_forced_classify_refuses_n_above_max_n():
    with pytest.raises(ValueError, match=r"^n=9 is outside the supported range 2\.\.7$"):
        classify_all(9, DIAG)


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_classify_rows_sweeps_at_the_first_row(monkeypatch, order):
    calls = []
    real = initial.witness_table

    def counted(n, order):
        calls.append(n)
        return real(n, order)

    monkeypatch.setattr(initial, "witness_table", counted)
    rows = classify_rows(4, order)
    assert calls == []
    first = next(rows)
    assert calls == [4]
    assert [first, *rows] == classify_all(4, order)


def test_classification_csv_format():
    records = classify_all(3, DIAG)
    text = classification_csv(records, DIAG)
    lines = text.strip().splitlines()
    assert lines[0] == "v,w,order,monomial_free,num_witnesses"
    assert "132,312,diagonal,0,1" in lines
    assert len(lines) == 20


# ---------------------------------------------------------------------------
# Hilbert-style counts


def test_hilbert_dim_degree_one_counts_coordinates():
    from richtoric.perms import enumerate_T

    for v, w in [((2, 3, 1, 4), (4, 2, 3, 1)), (identity(4), longest(4))]:
        for order in (DIAG, ANTI):
            assert kernel_hilbert_dim(v, w, 1, order) == len(enumerate_T(v, w))


def test_hilbert_dim_antidiagonal_instance():
    assert kernel_hilbert_dim((2, 3, 4, 1), (4, 2, 3, 1), 1, ANTI) == 6


def test_hilbert_dim_matches_tableau_count_on_family_pairs():
    for v, w in tn_pairs(3):
        for d in (1, 2, 3):
            assert kernel_hilbert_dim(v, w, d, DIAG) == len(enumerate_ssyt(v, w, d))


def test_hilbert_budget_guard():
    with pytest.raises(BudgetError, match=re.escape("|T|^d = 254^3 exceeds budget 2000000")):
        kernel_hilbert_dim(identity(8), longest(8), 3, DIAG)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", range(2, 9))
def test_code_table_against_initial_terms(n, order):
    # every subset, decoded field by field at each width d.bit_length() for
    # d <= 400: the field of each grid cell, in row-major order, holds 1 for
    # the cells of the subset's initial term and 0 elsewhere
    subsets = all_subsets(n)
    cells = [(r, j) for r in range(1, n) for j in range(1, n + 1)]
    for width in range(1, 10):
        table = _code_table(n, width, order)
        assert len(table) == len(subsets)
        for J, code in zip(subsets, table):
            term = set(initial_term(J, order))
            fields = [code >> width * i & (1 << width) - 1 for i in range(len(cells))]
            assert fields == [int(cell in term) for cell in cells], (J, width)
            assert code >> width * len(cells) == 0
        # no two coordinates share an initial term: the degree-one count is |T|
        assert len(set(table)) == len(table)
    assert _code_table(n, 2, order) is _code_table(n, 2, order)


def _ref_kernel_hilbert_dim(v, w, d, order):
    """kernel_hilbert_dim before packed codes: a set of sorted phi images."""
    return len({
        phi_image(m, order)
        for m in itertools.combinations_with_replacement(enumerate_T(v, w), d)
    })


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_packed_hilbert_agrees_with_phi_images(n, order, comparable_pairs):
    for v, w in comparable_pairs(n):
        for d in (1, 2, 3):
            assert kernel_hilbert_dim(v, w, d, order) == _ref_kernel_hilbert_dim(v, w, d, order)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n,max_d,pairs", [(5, 3, 40), (6, 2, 40)])
def test_packed_hilbert_agrees_with_phi_images_seeded(n, max_d, pairs, order):
    for v, w, leq in _seeded_pairs(n, pairs, seed=n):
        for d in range(1, max_d + 1) if leq else ():
            assert kernel_hilbert_dim(v, w, d, order) == _ref_kernel_hilbert_dim(v, w, d, order)


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_two_hilbert_count_against_standard_count(n, order, comparable_pairs):
    # observed on every comparable pair with n <= 5 in both orders, not a
    # theorem: the images outnumber the standard monomials exactly when
    # the restricted kernel has a monomial witness, and in the diagonal
    # order they number the degree-two tableaux
    for v, w in comparable_pairs(n):
        hilbert, standard = kernel_hilbert_dim(v, w, 2, order), count_standard(v, w, 2)
        assert hilbert >= standard
        assert is_monomial_free(v, w, order) == (hilbert == standard)
        if order is DIAG:
            assert hilbert == len(enumerate_ssyt(v, w, 2))
