import itertools
import random
import re
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from richtoric.perms import (
    BudgetError,
    all_perms,
    all_subsets,
    ascending_completion,
    bruhat_leq,
    bruhat_leq_mask,
    descending_completion,
    identity,
    inversions,
    longest,
    partition_perm,
    perm_leq_subset,
    subset_leq_perm,
    subset_str,
)
from richtoric.tableaux import (
    NoExtensionError,
    count_standard,
    enumerate_ssyt,
    is_ssyt,
    is_standard,
    max_defining_chain,
    max_truncation,
    min_defining_chain,
    min_extension,
    parse_tableau,
    row_sort,
    rows_of,
    sort_columns,
    tableau_str,
)


# ---------------------------------------------------------------------------
# semi-standardness and row sorting


def test_is_ssyt_examples():
    assert is_ssyt([(1, 2, 5), (2, 4, 6), (3, 5)])
    assert is_ssyt([(1, 2), (3,)])
    assert not is_ssyt([(3, 5), (1, 2, 5)])
    assert is_ssyt([(1, 3), (2,)])
    assert not is_ssyt([(2, 3), (1,)])


def test_row_sort_examples():
    assert row_sort([(2, 3), (1,)]) == ((1, 3), (2,))
    assert row_sort([(2, 4), (1, 3)]) == ((1, 3), (2, 4))
    # fixed points
    for t in [((1, 3), (2,)), ((1, 2), (3,)), ((1, 2, 5), (2, 4, 6), (3, 5))]:
        assert row_sort(t) == t


def _all_monomials(n, d):
    """All degree-d column multisets over the nonempty proper subsets of [n]."""
    return [
        sort_columns(cols)
        for cols in itertools.combinations_with_replacement(all_subsets(n), d)
    ]


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_row_sort_is_the_unique_ssyt_in_each_row_class(n, d):
    classes = {}
    for cols in _all_monomials(n, d):
        classes.setdefault(rows_of(cols), []).append(cols)
    for rows, members in classes.items():
        ssyts = [m for m in members if is_ssyt(m)]
        assert len(ssyts) == 1, f"row class {rows} holds {len(ssyts)} SSYT"
        for m in members:
            out = row_sort(m)
            assert out == ssyts[0]
            assert rows_of(out) == rows
            assert row_sort(out) == out  # idempotent


@given(
    st.lists(
        st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_row_sort_properties_random(raw_cols):
    cols = sort_columns(tuple(sorted(c)) for c in raw_cols)
    out = row_sort(cols)
    assert is_ssyt(out)
    assert rows_of(out) == rows_of(cols)
    assert row_sort(out) == out


def test_tableau_serialisation():
    t = ((1, 2, 5), (2, 4, 6), (3, 5))
    assert tableau_str(t) == "[125,246,35]"
    assert parse_tableau("[125,246,35]") == t
    assert parse_tableau("[]") == ()


# ---------------------------------------------------------------------------
# chain extension steps


def test_min_extension_examples():
    assert min_extension((1, 3, 2), (2,)) == (2, 3, 1)
    assert min_extension((1, 2, 3), (3,)) == (3, 1, 2)
    assert min_extension(identity(3), (1, 2)) == (1, 2, 3)


def test_min_extension_no_candidate():
    # nothing above (2, 1, 3) starts with the set {1}
    with pytest.raises(NoExtensionError):
        min_extension((2, 1, 3), (1,))


def test_max_truncation_examples():
    assert max_truncation((3, 1, 2), (1, 3)) == (3, 1, 2)
    assert max_truncation(longest(3), (1, 2)) == (2, 1, 3)
    with pytest.raises(NoExtensionError):
        max_truncation((1, 2, 3), (3,))


@pytest.mark.parametrize("build", [min_defining_chain, max_defining_chain])
def test_chains_refuse_bad_tableaux(build):
    for cols, n, why in [
        ([(1, 5)], 3, "outside 1..3"),
        ([(1, 2), (3,)], 2, "outside 1..2"),
        ([], 3, "empty"),
        ([(3, 5), (1, 2, 5)], 5, "not semi-standard"),
    ]:
        with pytest.raises(ValueError, match=why):
            build(cols, n)


def test_is_standard_refuses_entries_outside_n():
    with pytest.raises(ValueError, match="outside"):
        is_standard([(1, 4)], (1, 2, 3), (3, 2, 1))


def test_chain_examples():
    assert min_defining_chain([(1, 2), (3,)], 3) == ((1, 2, 3), (3, 1, 2))
    assert min_defining_chain([(1, 3), (2,)], 3) == ((1, 3, 2), (2, 3, 1))
    # single column: ascending and descending completions
    assert min_defining_chain([(1, 3)], 4) == ((1, 3, 2, 4),)
    assert max_defining_chain([(1, 3)], 4) == ((3, 1, 4, 2),)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3)])
def test_chain_invariants(n, d):
    ident, w0 = identity(n), longest(n)
    for cols in enumerate_ssyt(ident, w0, d):
        lo = min_defining_chain(cols, n)
        hi = max_defining_chain(cols, n)
        for chain in (lo, hi):
            assert all(bruhat_leq(a, b) for a, b in zip(chain, chain[1:]))
            for u, col in zip(chain, cols):
                assert tuple(sorted(u[: len(col)])) == col
        assert all(bruhat_leq(a, b) for a, b in zip(lo, hi))


def _is_up_run(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))


def _is_down_run(seq):
    return all(a > b for a, b in zip(seq, seq[1:]))


def _splits_into_runs(entries, first_set, descending=False):
    """entries == (A run)(B run) with A = first_set and B inside a given set."""
    run = _is_down_run if descending else _is_up_run
    k = len(first_set)
    return set(entries[:k]) == set(first_set) and run(entries[:k]) and run(entries[k:])


@pytest.mark.parametrize("n", [3, 4])
def test_two_column_chain_shapes(n):
    # second minimum: J ascending, then a subset of I ascending, then the rest
    # first maximum: part of I descending, rest of I descending, then the rest
    ident, w0 = identity(n), longest(n)
    for I, J in enumerate_ssyt(ident, w0, 2):
        lo = min_defining_chain((I, J), n)[1]
        assert tuple(sorted(lo[: len(J)])) == J and _is_up_run(lo[: len(J)])
        mid = lo[len(J):]
        assert any(
            set(mid[:k]) <= set(I)
            and _is_up_run(mid[:k])
            and _is_up_run(mid[k:])
            for k in range(len(mid) + 1)
        )
        hi = max_defining_chain((I, J), n)[0]
        head = hi[: len(I)]
        assert set(head) == set(I)
        assert any(
            _is_down_run(head[:k]) and _is_down_run(head[k:]) and _is_down_run(hi[len(I):])
            for k in range(len(I) + 1)
        )


def _ordered_partitions_3(n):
    elems = set(range(1, n + 1))
    for size1 in range(1, n - 1):
        for p1 in itertools.combinations(sorted(elems), size1):
            rest1 = elems - set(p1)
            for size2 in range(1, len(rest1)):
                for p2 in itertools.combinations(sorted(rest1), size2):
                    p3 = tuple(sorted(rest1 - set(p2)))
                    yield p1, p2, p3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_partition_bound_implications(n):
    # with P1 <= w:  (P1^, P2^, P3^) not<= w  implies  P1 u P2 not<= w
    # with v <= P1 u P2:  v not<= (P1v, P2v, P3v)  implies  v not<= P1
    for p1, p2, p3 in _ordered_partitions_3(n):
        up = partition_perm([p1, p2, p3], ["up", "up", "up"])
        down = partition_perm([p1, p2, p3], ["down", "down", "down"])
        union = tuple(sorted(p1 + p2))
        for w in all_perms(n):
            if subset_leq_perm(p1, w) and not bruhat_leq(up, w):
                assert not subset_leq_perm(union, w)
            if perm_leq_subset(w, union) and not bruhat_leq(w, down):
                assert not perm_leq_subset(w, p1)


# ---------------------------------------------------------------------------
# standardness


def test_is_standard_examples():
    assert is_standard([(1, 2), (3,)], identity(3), (3, 1, 2))
    assert not is_standard([(1, 3), (2,)], identity(3), (3, 1, 2))


def test_single_columns_are_standard():
    v, w = (1, 3, 2), (3, 1, 2)
    for (col,) in enumerate_ssyt(v, w, 1):
        assert is_standard([col], v, w)


@pytest.mark.parametrize("n", [3, 4])
def test_standard_implies_columns_survive(n):
    ident, w0 = identity(n), longest(n)
    tableaux = enumerate_ssyt(ident, w0, 1) + enumerate_ssyt(ident, w0, 2)
    for v in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(v, w):
                continue
            for cols in tableaux:
                if is_standard(cols, v, w):
                    for J in cols:
                        assert perm_leq_subset(v, J) and subset_leq_perm(J, w)


def _with_prefix(J, n):
    """All permutations of [n] whose first |J| entries form the set J."""
    rest = [x for x in range(1, n + 1) if x not in J]
    return [
        head + tail
        for head in itertools.permutations(J)
        for tail in itertools.permutations(rest)
    ]


def _scan(u, J, leq, above):
    """The Bruhat-least candidate with leading set J above u (or the greatest
    below u), found by scanning every candidate; None when there is none."""
    if above:
        cands = [z for z in _with_prefix(J, len(u)) if leq(u, z)]
        best = min(cands, key=inversions, default=None)
        assert all(leq(best, z) for z in cands)
    else:
        cands = [z for z in _with_prefix(J, len(u)) if leq(z, u)]
        best = max(cands, key=inversions, default=None)
        assert all(leq(z, best) for z in cands)
    return best


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lift_agrees_with_the_candidate_scan(n):
    # every (u, J), both directions, including every NoExtensionError
    for u in all_perms(n):
        for J in all_subsets(n):
            for lift, above in ((min_extension, True), (max_truncation, False)):
                want = _scan(u, J, bruhat_leq_mask, above)
                if want is None:
                    with pytest.raises(NoExtensionError):
                        lift(u, J)
                else:
                    assert lift(u, J) == want, (lift.__name__, u, J)


def _tuple_chains(cols, n):
    lo = [ascending_completion(cols[0], n)]
    for J in cols[1:]:
        lo.append(_scan(lo[-1], J, bruhat_leq, above=True))
    hi = [descending_completion(cols[-1], n)]
    for I in reversed(cols[:-1]):
        hi.append(_scan(hi[-1], I, bruhat_leq, above=False))
    return tuple(lo), tuple(reversed(hi))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mask_chains_agree_with_tuple_bruhat(n):
    # every SSYT with one or two columns, every comparable pair
    ident, w0 = identity(n), longest(n)
    tableaux = enumerate_ssyt(ident, w0, 1) + enumerate_ssyt(ident, w0, 2)
    chains = {}
    for cols in tableaux:
        chains[cols] = _tuple_chains(cols, n)
        assert (min_defining_chain(cols, n), max_defining_chain(cols, n)) == chains[cols]
    for v in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(v, w):
                with pytest.raises(ValueError):
                    is_standard(tableaux[0], v, w)
                continue
            for cols in tableaux:
                lo, hi = chains[cols]
                assert is_standard(cols, v, w) == (
                    bruhat_leq(lo[-1], w) and bruhat_leq(v, hi[0])
                )


# ---------------------------------------------------------------------------
# enumeration and counting


def test_enumerate_ssyt_examples():
    assert len(enumerate_ssyt((1, 3, 2), (3, 1, 2), 1)) == 4
    w = (2, 4, 3, 1)
    # exactly the prefix columns of w, listed in canonical (string) order
    assert enumerate_ssyt(w, w, 1) == [((2,),), ((2, 3, 4),), ((2, 4),)]
    # brute-force oracle: gale-ordered pairs drawn from the surviving columns
    cols = [(1,), (2,), (3,), (1, 2), (1, 3)]
    from richtoric.perms import gale_leq

    expected = sorted(
        ((a, b) for a in cols for b in cols if gale_leq(a, b)),
    )
    got = sorted(enumerate_ssyt(identity(3), (3, 1, 2), 2))
    assert len(expected) == 15
    assert got == expected


def test_enumerate_ssyt_canonical_order():
    out = enumerate_ssyt(identity(3), (3, 1, 2), 2)
    keys = [tuple(map("".join, (map(str, c) for c in t))) for t in out]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_ssyt_emits_the_sorted_form(n):
    # the search emits canonical order directly; pin it against sorting
    for v, w in itertools.product(all_perms(n), repeat=2):
        if bruhat_leq(v, w):
            for d in (1, 2, 3):
                out = enumerate_ssyt(v, w, d)
                assert out == sorted(out, key=lambda t: tuple(map(subset_str, t)))


def test_count_standard_examples():
    v, w = identity(3), (3, 1, 2)
    assert count_standard(v, w, 2) == 14  # [13,2] is the unique non-standard
    assert count_standard(v, w, 1) == len(enumerate_ssyt(v, w, 1))
    # degree one always counts the surviving columns
    v, w = (2, 3, 1, 4), (4, 2, 3, 1)
    assert count_standard(v, w, 1) == 9


def _ref_count_standard(v, w, d):
    """count_standard before the pruned walk: the standard test on every SSYT."""
    return sum(is_standard(t, v, w) for t in enumerate_ssyt(v, w, d))


def _comparable_pairs(n):
    return [(v, w) for v, w in itertools.product(all_perms(n), repeat=2) if bruhat_leq(v, w)]


def _ref_standard(cols, v, w):
    """is_standard's test before it read the defining chains: both chain ends
    folded directly with min_extension and max_truncation."""
    n = len(v)
    top = reduce(min_extension, cols[1:], ascending_completion(cols[0], n))
    if not bruhat_leq_mask(top, w):
        return False
    bottom = reduce(max_truncation, reversed(cols[:-1]), descending_completion(cols[-1], n))
    return bruhat_leq_mask(v, bottom)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_is_standard_agrees_with_folded_chain_ends(n):
    for v, w in _comparable_pairs(n):
        for d in (1, 2, 3):
            for cols in enumerate_ssyt(v, w, d):
                assert is_standard(cols, v, w) == _ref_standard(cols, v, w), (cols, v, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_standard_agrees_with_is_standard(n):
    # the pruned walk against is_standard on every enumerated tableau
    for v, w in _comparable_pairs(n):
        for d in (1, 2, 3):
            assert count_standard(v, w, d) == _ref_count_standard(v, w, d), (v, w, d)


@pytest.mark.parametrize("n,max_d,count", [(5, 3, 40), (6, 2, 25)])
def test_count_standard_agrees_with_is_standard_seeded(n, max_d, count):
    for v, w in random.Random(n).sample(_comparable_pairs(n), count):
        for d in range(1, max_d + 1):
            assert count_standard(v, w, d) == _ref_count_standard(v, w, d), (v, w, d)


def test_count_standard_refuses_bad_pairs():
    for v, w, d, why in [
        ((1, 2), (3, 2, 1), 1, "mismatched sizes"),
        ((3, 2, 1), (1, 2, 3), 1, "empty Richardson variety"),
        ((1, 2, 3), (3, 2, 1), 0, "degree must be positive"),
    ]:
        with pytest.raises(ValueError, match=why):
            count_standard(v, w, d)


def test_count_standard_refuses_over_budget():
    # the walk checks |T|^d itself, before any tableau is built
    with pytest.raises(BudgetError, match=re.escape("|T|^d = 14^3 exceeds budget 10")):
        count_standard(identity(4), longest(4), 3, budget=10)

