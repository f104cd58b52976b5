import hashlib
import itertools
import json
import random

import pytest

from richtoric.perms import (
    BudgetError,
    all_perms,
    all_subsets,
    bruhat_leq,
    enumerate_T,
    identity,
    induced,
    interval_mask,
    longest,
    perm_leq_subset,
    subset_leq_perm,
)
from richtoric.compat import in_Tn, tn_pairs
from richtoric.tableaux import count_standard, enumerate_ssyt, row_sort, sort_columns
from richtoric.initial import (
    TermOrder,
    _witnesses,
    classification_csv,
    classify_all,
    degree2_kernel_generators,
    exponent_dict,
    initial_term,
    is_monomial_free,
    kernel_hilbert_dim,
    kernel_masks,
    monomial_str,
    phi_image,
    plucker_weight,
    restriction_report,
    weight_matrix,
    weight_vector_lines,
    witness_detail,
    witness_table,
)

DIAG = TermOrder.DIAGONAL
ANTI = TermOrder.ANTIDIAGONAL


# ---------------------------------------------------------------------------
# weights and initial terms


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


def test_weight_vector_export():
    lines = weight_vector_lines(3)
    assert lines == ["1,0", "2,0", "3,0", "12,2", "13,1", "23,1"]


def test_phi_images():
    # the image identifies exactly row-wise equal monomials
    assert phi_image([(2, 3), (1,)], DIAG) == phi_image([(1, 3), (2,)], DIAG)
    assert phi_image([(1, 3), (2,)], DIAG) != phi_image([(1, 2), (3,)], DIAG)
    assert phi_image([], DIAG) == ()
    assert exponent_dict([(1, 3), (1,)], DIAG) == {(1, 1): 2, (2, 3): 1}


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


@pytest.mark.parametrize("n", [3, 4, 5])
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
    report = restriction_report((1, 3, 2), (3, 1, 2), DIAG)
    assert not report.monomial_free
    assert len(report.witnesses) == 1
    wit = report.witnesses[0]
    assert monomial_str(wit.surviving) == "P13*P2"
    assert monomial_str(wit.vanished) == "P23*P1"
    assert [c for c in wit.missing] == [(2, 3)]
    assert report.vanished_count == 0 and not report.survivors


def test_restriction_full_flag_keeps_all_generators():
    n = 4
    report = restriction_report(identity(n), longest(n), DIAG)
    assert report.monomial_free
    assert len(report.survivors) == len(degree2_kernel_generators(n, DIAG))
    assert report.vanished_count == 0


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_restriction_of_point_pairs_is_monomial_free(order):
    for w in all_perms(4):
        report = restriction_report(w, w, order)
        assert report.monomial_free
        assert not report.survivors


def test_restriction_requires_comparable_pair():
    with pytest.raises(ValueError):
        restriction_report((3, 1, 2), (1, 3, 2), DIAG)


@pytest.mark.parametrize("order", [DIAG, ANTI])
def test_fast_path_agrees_with_full_report(order):
    # is_monomial_free short-circuits; it must match the full classification
    for v in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(v, w):
                assert (
                    is_monomial_free(v, w, order)
                    == restriction_report(v, w, order).monomial_free
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
            report = restriction_report(v, w, order)
            assert report.survivors == keep
            assert tuple(tuple(x) for x in report.witnesses) == witnesses
            assert report.vanished_count == vanished
            assert is_monomial_free(v, w, order) == (not witnesses)
            record = counts.pop((v, w))
            assert record.num_witnesses == len(witnesses)
            assert record.monomial_free == (not witnesses)
    assert not counts


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
    table, masks = witness_table(n, order), kernel_masks(n, order)
    row = dict(zip(all_perms(n), table))
    for v, w, leq in _seeded_pairs(n, 200, seed=n):
        prefix, _, la, ra, _, _ = row[v]
        _, below, _, _, lb, rb = row[w]
        assert (not prefix & ~below) == leq
        if leq:
            count = ((la | lb) ^ (ra | rb)).bit_count()
            assert count == sum(_witnesses(masks, interval_mask(v, w)))


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
    report = restriction_report((1, 3, 2), (3, 1, 2), DIAG)
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


@pytest.mark.parametrize("n", [3, 4])
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


def test_classify_all_records():
    records = classify_all(3, DIAG)
    assert len(records) == 19
    as_dict = {(r.v, r.w): r for r in records}
    assert as_dict[((1, 3, 2), (3, 1, 2))].monomial_free is False
    assert as_dict[((1, 3, 2), (3, 1, 2))].num_witnesses == 1
    assert as_dict[((1, 2, 3), (1, 3, 2))].monomial_free is True
    free = {pair for pair, r in as_dict.items() if r.monomial_free}
    assert free == set(tn_pairs(3))


def test_classify_guard():
    with pytest.raises(BudgetError):
        classify_all(7, DIAG)


def test_classify_rejects_n_below_two():
    with pytest.raises(ValueError, match="n must be at least 2"):
        classify_all(1, DIAG)


def test_forced_classify_refuses_n_above_max_n():
    with pytest.raises(ValueError, match=r"^n=9 is outside the supported range 2\.\.8$"):
        classify_all(9, DIAG, force=True)


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
    with pytest.raises(BudgetError):
        kernel_hilbert_dim(identity(4), longest(4), 3, DIAG, budget=10)


def _ref_kernel_hilbert_dim(v, w, d, order):
    """kernel_hilbert_dim before packed codes: a set of sorted phi images."""
    return len({
        phi_image(m, order)
        for m in itertools.combinations_with_replacement(enumerate_T(v, w), d)
    })


def _comparable(n):
    return [(v, w) for v, w in itertools.product(all_perms(n), repeat=2) if bruhat_leq(v, w)]


@pytest.mark.parametrize("order", [DIAG, ANTI])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_packed_hilbert_agrees_with_phi_images(n, order):
    for v, w in _comparable(n):
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
def test_degree_two_hilbert_count_against_standard_count(n, order):
    # observed on every comparable pair with n <= 5 in both orders, not a
    # theorem: the images outnumber the standard monomials exactly when
    # the restricted kernel has a monomial witness, and in the diagonal
    # order they number the degree-two tableaux
    for v, w in _comparable(n):
        hilbert, standard = kernel_hilbert_dim(v, w, 2, order), count_standard(v, w, 2)
        assert hilbert >= standard
        assert is_monomial_free(v, w, order) == (hilbert == standard)
        if order is DIAG:
            assert hilbert == len(enumerate_ssyt(v, w, 2))
