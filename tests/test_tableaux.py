import itertools
import os
import random
import re
import sys
import time
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from richtoric.compat import tn_pairs
from richtoric.initial import MONOMIAL_BUDGET, TermOrder, kernel_hilbert_dim
from richtoric.perms import (
    BudgetError,
    all_perms,
    all_subsets,
    ascending_completion,
    bruhat_leq,
    bruhat_leq_mask,
    degree_mask,
    descending_completion,
    enumerate_T,
    gale_leq,
    identity,
    interval_mask,
    inversions,
    longest,
    partition_perm,
    perm_leq_subset,
    perm_masks,
    subset_bits,
    subset_leq_perm,
    subset_str,
    subsets_of,
)
from richtoric import tableaux
from richtoric.tableaux import (
    SSYT_BUDGET,
    NoExtensionError,
    _chain_table,
    _ChainTable,
    count_standard,
    enumerate_ssyt,
    is_ssyt,
    is_standard,
    max_defining_chain,
    max_truncation,
    min_defining_chain,
    min_extension,
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


def test_steps_refuse_a_prefix_that_is_not_a_set_in_range():
    # no permutation of S_3 leads with a repeated value or one outside 1..3
    for J in ((1, 1), (4,), (0, 2)):
        for lift, side in ((min_extension, "above"), (max_truncation, "below")):
            with pytest.raises(NoExtensionError, match=re.escape(f"no permutation {side} (1, 2, 3) with prefix {J}")):
                lift((1, 2, 3), J)


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


def test_chains_and_standard_test_refuse_columns_not_strictly_increasing():
    # a repeated or descending entry is no subset, so no chain permutation
    # can lead with it; is_ssyt alone compares only consecutive columns
    for cols in ([(2, 2)], [(3, 1)], [(1, 1, 2)], [(2, 2), (2, 2)]):
        for build in (min_defining_chain, max_defining_chain):
            with pytest.raises(ValueError, match="^column not strictly increasing: "):
                build(cols, 3)
        with pytest.raises(ValueError, match="^column not strictly increasing: "):
            is_standard(cols, (1, 2, 3), (3, 2, 1))


def test_is_standard_refuses_entries_outside_n():
    with pytest.raises(ValueError, match="outside"):
        is_standard([(1, 4)], (1, 2, 3), (3, 2, 1))


def test_is_standard_refusals():
    message = "^empty Richardson variety: v is not below w in Bruhat order$"
    with pytest.raises(ValueError, match=message):
        is_standard([(1,)], (3, 1, 2), (1, 3, 2))
    # the sizes are checked first, before any Bruhat test
    with pytest.raises(ValueError, match="^mismatched sizes: 2 vs 3$"):
        is_standard([(1,)], (2, 1), (1, 2, 3))


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


def _ref_lift(u, J, above):
    """The chain step before the slack count: the coset-end preflight, then
    the tuple greedy with a sort and a gale_leq per candidate.  Below u it
    runs on the value mirror.  None when no permutation qualifies."""
    n = len(u)
    if not above:
        z = _ref_lift(tuple(n + 1 - x for x in u), tuple(sorted(n + 1 - x for x in J)), True)
        return z and tuple(n + 1 - x for x in z)
    if not bruhat_leq_mask(u, descending_completion(J, n)):
        return None
    k, z = len(J), []
    for i in range(1, n + 1):
        floor = sorted(u[:i])
        pool = J if i <= k else range(1, n + 1)
        z.append(min(y for y in pool if y not in z and gale_leq(floor, sorted(z + [y]))))
    return tuple(z)


def _assert_lifts_agree(cases):
    """Both directions of every (u, J) against _ref_lift, refusals and their
    messages included; returns the number of refusals met."""
    refused = 0
    for u, J in cases:
        for lift, above, side in ((min_extension, True, "above"), (max_truncation, False, "below")):
            want = _ref_lift(u, J, above)
            try:
                got = lift.__wrapped__(u, J)
            except NoExtensionError as e:
                got = str(e)
            if want is None:
                refused += 1
                want = f"no permutation {side} {u} with prefix {J}"
            assert got == want, (lift.__name__, u, J)
    return refused


def test_lift_agrees_with_the_tuple_greedy_at_n6():
    cases = [(u, J) for u in all_perms(6) for J in all_subsets(6)]
    assert _assert_lifts_agree(cases) > 0


@pytest.mark.parametrize("n", [7, 8])
def test_lift_agrees_with_the_tuple_greedy_seeded(n):
    rng = random.Random(700 + n)
    subsets = all_subsets(n)
    cases = [(tuple(rng.sample(range(1, n + 1), n)), rng.choice(subsets)) for _ in range(2000)]
    assert _assert_lifts_agree(cases) > 0


def test_chain_steps_never_run_the_tuple_test(monkeypatch):
    # cold chain steps make no gale_leq call, so none can fall back to the
    # tuple path unseen
    from richtoric import perms, tableaux

    def refuse(I, J):
        raise AssertionError("gale_leq called")

    monkeypatch.setattr(perms, "gale_leq", refuse)
    monkeypatch.setattr(tableaux, "gale_leq", refuse)
    min_extension.cache_clear()
    max_truncation.cache_clear()
    _chain_table.cache_clear()
    assert count_standard(identity(5), longest(5), 3) == 3332


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
def test_is_standard_agrees_with_folded_chain_ends(n, comparable_pairs):
    for v, w in comparable_pairs(n):
        for d in (1, 2, 3):
            for cols in enumerate_ssyt(v, w, d):
                assert is_standard(cols, v, w) == _ref_standard(cols, v, w), (cols, v, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_standard_agrees_with_is_standard(n, comparable_pairs):
    # the pruned walk against is_standard on every enumerated tableau
    for v, w in comparable_pairs(n):
        for d in (1, 2, 3):
            assert count_standard(v, w, d) == _ref_count_standard(v, w, d), (v, w, d)


@pytest.mark.parametrize("n,max_d,count", [(5, 3, 40), (6, 2, 25)])
def test_count_standard_agrees_with_is_standard_seeded(n, max_d, count, comparable_pairs):
    for v, w in random.Random(n).sample(comparable_pairs(n), count):
        for d in range(1, max_d + 1):
            assert count_standard(v, w, d) == _ref_count_standard(v, w, d), (v, w, d)


def _gale_up(n):
    """Each subset I of [n], in ``all_subsets`` order, with the mask (in
    ``all_subsets`` bits) of the subsets J with I <= J, read back from the
    chain table's serial-numbered Gale masks, decoded bit by bit."""
    table, bit = _chain_table(n), subset_bits(n)
    gale = dict(zip(table.subsets, table.gale))
    return {
        I: sum(bit[J] for q, J in enumerate(table.subsets) if gale[I] >> q & 1)
        for I in all_subsets(n)
    }


def _ref_count_walk(v, w, d):
    """count_standard before the chain table: the same pruned walk on tuples,
    with the lru_cache'd min_extension and max_truncation, a |T|^2 successor
    dict and suffix bottoms keyed by column tuples."""
    cols = subsets_of(degree_mask(v, w, d, SSYT_BUDGET), len(v))
    if d == 1:
        return len(cols)
    n = len(v)
    bit, up = subset_bits(n), _gale_up(n)
    succ = {I: [J for J in cols if bit[J] & up[I]] for I in cols}
    not_below_w = ~perm_masks(w).below
    prefix_v = perm_masks(v).prefix
    bottoms = {(): longest(n)}

    def bottom(suffix):
        b = bottoms.get(suffix)
        if b is None:
            b = bottoms[suffix] = max_truncation(bottom(suffix[1:]), suffix[0])
        return b

    def walk(prefix, top):
        count = 0
        if len(prefix) + 1 < d:
            for J in succ[prefix[-1]] if prefix else cols:
                z = min_extension(top, J)
                if not perm_masks(z).prefix & not_below_w:
                    count += walk(prefix + (J,), z)
            return count
        first, rest = prefix[0], prefix[1:]
        for J in succ[prefix[-1]]:
            if perm_masks(min_extension(top, J)).prefix & not_below_w:
                continue
            b = max_truncation(bottom(rest + (J,)), first)
            count += not prefix_v & ~perm_masks(b).below
        return count

    return walk((), identity(n))


def _seeded_pairs(n, count, seed):
    """``count`` comparable pairs of S_n, drawn with the tuple Bruhat test."""
    rng, pairs = random.Random(seed), []
    while len(pairs) < count:
        v, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
        if bruhat_leq(v, w):
            pairs.append((v, w))
    return pairs


@pytest.mark.parametrize(
    "n,max_d,count", [(5, 3, 300), (6, 2, 100), (7, 2, 50), (8, 2, 50), (6, 3, 30), (7, 3, 12)]
)
def test_count_standard_agrees_with_the_tuple_walk_cold_and_warm(n, max_d, count):
    # the integer walk against the tuple walk it replaced, first on a chain
    # table cleared just before the pass, so every step it takes is lifted
    # on a miss, then again on the table that pass filled
    cases = [(v, w, d) for v, w in _seeded_pairs(n, count, 2000 + n) for d in range(1, max_d + 1)]
    want = [_ref_count_walk(*case) for case in cases]
    _chain_table.cache_clear()
    for side in ("cold", "warm"):
        got = [count_standard(*case) for case in cases]
        assert got == want, (side, [c for c, g, r in zip(cases, got, want) if g != r][:5])


@pytest.mark.parametrize("n,d", [(6, 3), (5, 4)])
def test_count_standard_of_the_whole_flag_variety_agrees_with_the_tuple_walk(n, d):
    # (id, w0): T is every subset, so every tableau's chains are walked
    want = _ref_count_walk(identity(n), longest(n), d)
    _chain_table.cache_clear()
    assert count_standard(identity(n), longest(n), d) == want


def _cold_steps(monkeypatch, call, *args):
    """The chain steps ``call`` lifts from a cleared chain table and cleared
    min_extension and max_truncation caches, with its result."""
    lifted = []

    def counted(u, J, down, *lift):
        lifted.append((u, J, down))
        return step(u, J, down, *lift)

    step = tableaux._step
    _chain_table.cache_clear()
    min_extension.cache_clear()
    max_truncation.cache_clear()
    monkeypatch.setattr(tableaux, "_step", counted)
    try:
        return call(*args), lifted
    finally:
        monkeypatch.setattr(tableaux, "_step", step)


@pytest.mark.parametrize("n,count", [(5, 8), (6, 6), (7, 2), (8, 2)])
def test_count_standard_lifts_no_more_chain_steps_than_the_tuple_walk(n, count, monkeypatch):
    # a cold count takes no chain step that a walk to every leaf would not;
    # pairs over the d = 3 budget refuse before any step and are left out
    for v, w in _seeded_pairs(n, count, 3000 + n):
        for d in (2, 3):
            if len(subsets_of(interval_mask(v, w), n)) ** d > SSYT_BUDGET:
                continue
            want, ref = _cold_steps(monkeypatch, _ref_count_walk, v, w, d)
            got, new = _cold_steps(monkeypatch, count_standard, v, w, d)
            assert got == want, (v, w, d)
            assert len(new) <= len(ref), (v, w, d)


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (6, 2)])
def test_whole_flag_variety_count_lifts_every_chain_step(n, d, monkeypatch):
    # the pair-study set-up: the count at (id, w0) lifts every step the walk
    # to every leaf lifts, so later pairs of that n find them in the table
    want, ref = _cold_steps(monkeypatch, _ref_count_walk, identity(n), longest(n), d)
    got, new = _cold_steps(monkeypatch, count_standard, identity(n), longest(n), d)
    assert got == want
    assert sorted(new) == sorted(ref)


def _held_ends(table):
    """The two-column chain ends a chain table holds, read through its step
    rows without filling them: each Gale pair (I, J) of subsets with the id
    of the identity stepped up through I then J (``tops``) and with that of
    w0 stepped down through J then I (``bottoms``)."""
    subsets, tops, bottoms = table.subsets, {}, {}
    for base, rows, ends, down in ((identity(table.n), table.up, tops, False),
                                   (longest(table.n), table.down, bottoms, True)):
        if base not in table.ids:
            continue
        for a, z in rows[table.ids[base]].items():
            for b, end in rows[z].items():
                cols = (subsets[b], subsets[a]) if down else (subsets[a], subsets[b])
                if gale_leq(*cols):
                    ends[cols] = end
    return tops, bottoms


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (6, 2)])
def test_rows_filled_by_a_whole_flag_variety_count_hold_the_chain_steps(n, d):
    # every step a cold count stored in a row is the step min_extension or
    # max_truncation takes, and every two-column end is its chain's end
    _chain_table.cache_clear()
    count_standard(identity(n), longest(n), d)
    table = _chain_table(n)
    ids, perms, subsets = table.ids, table.perms, table.subsets
    for rows, lift in ((table.up, min_extension), (table.down, max_truncation)):
        assert sum(map(len, rows)) > 0
        for i, row in enumerate(rows):
            for c, z in row.items():
                assert ids.get(lift.__wrapped__(perms[i], subsets[c])) == z, (lift.__name__, perms[i], c)
    tops, bottoms = _held_ends(table)
    gale = {(I, J) for I in subsets for J in subsets if gale_leq(I, J)}
    assert set(tops) == set(bottoms) == gale
    for cols in gale:
        assert perms[tops[cols]] == min_defining_chain(cols, n)[-1], cols
        assert perms[bottoms[cols]] == max_defining_chain(cols, n)[0], cols


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_interned_masks_are_the_permutation_masks(n):
    # intern ORs each id's masks along its running key; they must be the
    # masks perm_masks folds, after the pair-study warm-up counts and, at
    # n = 7 and 8, after one seeded cold count
    _chain_table.cache_clear()
    warm_up = {4: 3, 5: 3, 6: 2}
    if n in warm_up:
        count_standard(identity(n), longest(n), warm_up[n])
    else:
        count_standard(*_seeded_pairs(n, 1, 4100 + n)[0], 2)
    table = _chain_table(n)
    assert len(table.perms) > n
    for i, z in enumerate(table.perms):
        masks = perm_masks(z)
        assert table.prefix[i] == masks.prefix, z
        assert table.not_below[i] == table.full ^ masks.below, z


def test_a_refused_row_step_raises_and_stores_nothing():
    _chain_table.cache_clear()
    table = _chain_table(3)
    for rows, u, J, side in ((table.up, (2, 1, 3), (1,), "above"), (table.down, (1, 2, 3), (3,), "below")):
        row, c, known = rows[table.intern(u)], table.subsets.index(J), len(table.perms)
        with pytest.raises(NoExtensionError, match=re.escape(f"no permutation {side} {u} with prefix {J}")):
            row[c]
        assert c not in row and len(table.perms) == known


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_steps_agree_with_the_tuple_greedy(n):
    # every (u, J), both directions, read through the chain table's rows,
    # refusals and their messages included
    _chain_table.cache_clear()
    table, refused = _chain_table(n), 0
    for u in all_perms(n):
        i = table.intern(u)
        for c, J in enumerate(table.subsets):
            for rows, above, side in ((table.up, True, "above"), (table.down, False, "below")):
                want = _ref_lift(u, J, above)
                try:
                    got = table.perms[rows[i][c]]
                except NoExtensionError as e:
                    got = str(e)
                if want is None:
                    refused += 1
                    want = f"no permutation {side} {u} with prefix {J}"
                assert got == want, (u, J, side)
    assert refused > 0


# A and B share n; C is of another n
_A, _B, _C = ((2, 1, 3, 5, 4), (4, 5, 2, 1, 3)), ((1, 3, 2, 4, 5), (5, 3, 4, 1, 2)), ((2, 1, 3, 4), (4, 2, 3, 1))


@pytest.mark.parametrize("pairs", [(_A, _B, _A), (_A, _C, _A), (_C, _A, _B, _C, _A)])
def test_successors_kept_for_the_last_pair_give_the_cold_results(pairs, monkeypatch):
    # each pair's answers from a chain table cleared just before it, then
    # the pairs interleaved on warm tables: every result is the cold one,
    # and a visit renumbers its T once, or not at all when it was the last
    # pair of its n (each n's table keeps its own last T)
    def cold(v, w, d):
        _chain_table.cache_clear()
        return enumerate_ssyt(v, w, d), count_standard(v, w, d)

    want = {(pair, d): cold(*pair, d) for pair in set(pairs) for d in (2, 3)}
    serial, renumbered = _ChainTable.serial, []

    def counted(table, mask):
        renumbered.append(mask)
        return serial(table, mask)

    _chain_table.cache_clear()
    for v, _ in pairs:
        _chain_table(len(v))  # built unpatched: the Gale masks are renumbered too
    monkeypatch.setattr(_ChainTable, "serial", counted)
    last = {}
    for pair in pairs:
        del renumbered[:]
        for d in (2, 3):
            assert (enumerate_ssyt(*pair, d), count_standard(*pair, d)) == want[pair, d], (pair, d)
        assert count_standard(*pair, 3) == want[pair, 3][1]
        assert enumerate_ssyt(*pair, 2) == want[pair, 2][0]
        n = len(pair[0])
        assert len(renumbered) == (last.get(n) != pair), pair
        last[n] = pair


@pytest.mark.parametrize("pairs", [(_A, _C, _A), (_C, _A, _B, _C, _A)])
def test_two_column_ends_kept_across_pairs_give_the_cold_results(pairs):
    # each pair's counts from a chain table cleared just before it, then the
    # pairs in turn on warm tables, cleared once midway: every count is the
    # cold one, every two-column end held is the end of its pair's chain, and
    # the ends held after the second pass include, for every pair, the top
    # of each Gale pair of its T and the bottom of each one whose top is <= w
    def cold(v, w, d):
        _chain_table.cache_clear()
        return count_standard(v, w, d)

    want = {(pair, d): cold(*pair, d) for pair in set(pairs) for d in (2, 3, 4)}
    _chain_table.cache_clear()
    for i, pair in enumerate(pairs + pairs):
        if i == len(pairs):
            _chain_table.cache_clear()
        for d in (2, 3, 4):
            assert count_standard(*pair, d) == want[pair, d], (pair, d)
    for n in {len(v) for v, _ in pairs}:
        table = _chain_table(n)
        tops, bottoms = _held_ends(table)
        for v, w in {pair for pair in pairs if len(pair[0]) == n}:
            T = enumerate_T(v, w)
            gale = {(I, J) for I in T for J in T if gale_leq(I, J)}
            assert gale <= set(tops), (v, w)
            assert {cols for cols in gale if bruhat_leq(min_defining_chain(cols, n)[-1], w)} <= set(bottoms), (v, w)
        for cols, top in tops.items():
            assert table.perms[top] == min_defining_chain(cols, n)[-1], cols
            if cols in bottoms:
                assert table.perms[bottoms[cols]] == max_defining_chain(cols, n)[0], cols


@pytest.mark.parametrize("pair", [_A, _B, _C])
def test_degree_two_reads_a_bottom_only_below_its_top(pair, monkeypatch):
    # a cold degree-2 count fills the top of every Gale pair of T, and the
    # only down steps it lifts are those to the bottoms of the pairs whose
    # top is <= w: w0 down through J, then through I
    v, w = pair
    n = len(v)
    T = enumerate_T(v, w)
    gale = {(I, J) for I in T for J in T if gale_leq(I, J)}
    below = {cols for cols in gale if bruhat_leq(min_defining_chain(cols, n)[-1], w)}
    assert below < gale
    _, lifted = _cold_steps(monkeypatch, count_standard, v, w, 2)
    tops, bottoms = _held_ends(_chain_table(n))
    assert set(tops) == gale and set(bottoms) >= below
    want = {(longest(n), J, True) for _, J in below} | {(descending_completion(J, n), I, True) for I, J in below}
    assert sorted(step for step in lifted if step[2]) == sorted(want)


FULL_TIER = os.environ.get("RICHTORIC_FULL") == "1"


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (RICHTORIC_FULL=1)")
def test_every_degree_three_tableau_of_t6_is_standard():
    # the paper's theorem by counts: for a pair of T_6 every SSYT with
    # columns in T is standard
    pairs = tn_pairs(6)
    assert len(pairs) == 4536
    for v, w in pairs:
        assert count_standard(v, w, 3) == len(enumerate_ssyt(v, w, 3)), (v, w)


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (RICHTORIC_FULL=1)")
def test_count_standard_agrees_with_the_tuple_walk_on_a_slice_of_s6(comparable_pairs):
    for v, w in random.Random(6000).sample(comparable_pairs(6), 2000):
        assert count_standard(v, w, 3) == _ref_count_walk(v, w, 3), (v, w)


def test_count_standard_refuses_bad_pairs():
    for v, w, d, why in [
        ((1, 2), (3, 2, 1), 1, "mismatched sizes"),
        ((3, 2, 1), (1, 2, 3), 1, "empty Richardson variety"),
        ((1, 2, 3), (3, 2, 1), 0, "degree must be positive"),
    ]:
        with pytest.raises(ValueError, match=why):
            count_standard(v, w, d)


@pytest.mark.parametrize("n,d,count", [(2, 4, None), (3, 4, None), (4, 4, 40), (3, 5, None)])
def test_walks_agree_with_their_references_above_degree_three(n, d, count, comparable_pairs):
    # above d = 3 a leaf steps down through three or more prefix columns
    pairs = comparable_pairs(n)
    if count is not None:
        pairs = random.Random(4000 + n).sample(pairs, count)
    for v, w in pairs:
        want = _ref_count_walk(v, w, d)
        assert count_standard(v, w, d) == want == _ref_count_standard(v, w, d), (v, w, d)
        assert enumerate_ssyt(v, w, d) == _ref_enumerate_ssyt(v, w, d), (v, w, d)


def test_enumerate_ssyt_at_n9_needs_no_chain_step():
    # the table numbers columns at any n; only chain steps refuse n = 9
    assert len(enumerate_ssyt(identity(9), longest(9), 2)) == 91_355
    table = _chain_table(9)
    assert not table.up and not table.down and not table.perms


@pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
def test_single_column_counts_as_two_against_the_budget(pair):
    # |T| = 1 only at n = 2 with v = w; a walk there still steps once per
    # column, so d >= 20 is refused as 2^d would be
    for d in (1, 19):
        assert enumerate_ssyt(pair, pair, d) == [((pair[0],),) * d]
        assert count_standard(pair, pair, d) == 1
    message = re.escape(f"|T|^d = 1^400 (|T| counted as 2) exceeds budget {SSYT_BUDGET}")
    for call in (enumerate_ssyt, count_standard):
        with pytest.raises(BudgetError, match=message):
            call(pair, pair, 400)
        with pytest.raises(BudgetError, match=re.escape("1^20 (|T| counted as 2) exceeds")):
            call(pair, pair, 20)
    with pytest.raises(BudgetError, match=re.escape(f"1^400 (|T| counted as 2) exceeds budget {MONOMIAL_BUDGET}")):
        kernel_hilbert_dim(pair, pair, 400, TermOrder.DIAGONAL)
    assert kernel_hilbert_dim(pair, pair, 20, TermOrder.DIAGONAL) == 1


@pytest.mark.parametrize("pair,size", [(((1, 2, 3), (3, 2, 1)), "6"), (((1, 2), (1, 2)), "1")])
def test_degree_mask_refuses_a_huge_degree_at_once(pair, size):
    # the base is at least 2, so a degree of budget.bit_length() or more is
    # refused without taking the power, with the message the power would give
    counted = " (|T| counted as 2)" if size == "1" else ""
    message = re.escape(f"|T|^d = {size}^{10**12}{counted} exceeds budget {SSYT_BUDGET}")
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=message):
        degree_mask(*pair, 10**12, SSYT_BUDGET)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "call,budget",
    [
        (count_standard, SSYT_BUDGET),
        (enumerate_ssyt, SSYT_BUDGET),
        (lambda v, w, d: kernel_hilbert_dim(v, w, d, TermOrder.DIAGONAL), MONOMIAL_BUDGET),
    ],
    ids=["count_standard", "enumerate_ssyt", "kernel_hilbert_dim"],
)
def test_a_degree_too_long_to_print_is_refused_by_budget(call, budget):
    # str refuses ints of more digits than the interpreter's limit; such a
    # degree is shown by its bit length, and every printable one as before
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        pair = (1, 2, 3), (3, 2, 1)
        printable = 10**4299
        with pytest.raises(BudgetError, match=re.escape(f"|T|^d = 6^{printable} exceeds budget {budget}")):
            call(*pair, printable)
        huge = 10**5000
        with pytest.raises(BudgetError, match=re.escape(f"|T|^d = 6^<16610-bit d> exceeds budget {budget}")):
            call(*pair, huge)
        with pytest.raises(BudgetError, match=re.escape("|T|^d = 1^<16610-bit d> (|T| counted as 2) exceeds")):
            call((1, 2), (1, 2), huge)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_standard_refuses_over_budget():
    # the walk checks |T|^d itself, before any tableau is built
    with pytest.raises(BudgetError, match=re.escape("|T|^d = 254^3 exceeds budget 1000000")):
        count_standard(identity(8), longest(8), 3)


N9 = "n=9 is outside the supported range 1..8"


@pytest.mark.parametrize(
    "call",
    [
        lambda: min_extension(identity(9), (2,)),
        lambda: max_truncation(longest(9), (1,)),
        lambda: is_standard([(1,), (2,)], identity(9), longest(9)),
        lambda: count_standard(identity(9), longest(9), 2),
        lambda: count_standard((1, 2, 3, 4, 5, 6, 7, 9, 8), (2, 1, 3, 4, 5, 6, 7, 9, 8), 3),
    ],
    ids=["min_extension", "max_truncation", "is_standard", "count_standard_d2", "count_standard_d3"],
)
def test_chain_layer_refuses_n_above_max_n(call):
    # _lift keeps one slack field per threshold 0..MAX_N, and _lifts builds
    # its step tables from them; at n = 9 threshold 9 has no field
    with pytest.raises(ValueError, match=re.escape(N9)):
        call()


def test_count_standard_degree_one_needs_no_chains_at_n9():
    assert count_standard(identity(9), longest(9), 1) == 510



# ---------------------------------------------------------------------------
# the subset-mask tableau layer against its references


@pytest.mark.parametrize("n", range(2, 9))
def test_gale_up_table_agrees_with_gale_leq(n):
    bit, up = subset_bits(n), _gale_up(n)
    subsets = all_subsets(n)
    assert list(up) == list(subsets)
    for I in subsets:
        for J in subsets:
            assert bool(up[I] & bit[J]) == gale_leq(I, J), (I, J)


def _ref_enumerate_ssyt(v, w, d):
    """Every d-tuple of columns of T that is an SSYT, in canonical order."""
    tuples = itertools.product(enumerate_T(v, w), repeat=d)
    return sorted((t for t in tuples if is_ssyt(t)), key=lambda t: tuple(map(subset_str, t)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_ssyt_agrees_with_product_reference(n, comparable_pairs):
    for v, w in comparable_pairs(n):
        for d in (1, 2, 3):
            assert enumerate_ssyt(v, w, d) == _ref_enumerate_ssyt(v, w, d), (v, w, d)


@pytest.mark.parametrize("n,max_d,count", [(5, 3, 40), (6, 2, 25)])
def test_enumerate_ssyt_and_count_standard_agree_with_product_reference_seeded(
    n, max_d, count, comparable_pairs
):
    for v, w in random.Random(1000 + n).sample(comparable_pairs(n), count):
        for d in range(1, max_d + 1):
            ref = _ref_enumerate_ssyt(v, w, d)
            assert enumerate_ssyt(v, w, d) == ref, (v, w, d)
            assert count_standard(v, w, d) == sum(is_standard(t, v, w) for t in ref), (v, w, d)


def test_chains_oracle_draws_its_own_tableaux(monkeypatch):
    # the oracle filters every tuple of subsets itself and fails when the
    # fast enumeration counts differently
    from richtoric import verify

    ok, detail = verify.chains_oracle(3, 2)
    assert ok, detail
    monkeypatch.setattr(verify, "enumerate_ssyt", lambda v, w, d: enumerate_ssyt(v, w, d)[1:])
    ok, detail = verify.chains_oracle(3, 2)
    assert not ok
    assert "SSYT drawn, enumerate_ssyt gives" in detail


def test_chains_oracle_catches_a_wrong_min_chain(monkeypatch):
    # the oracle's cached Bruhat tests must still tell a max chain from
    # the componentwise minimum
    from richtoric import verify

    monkeypatch.setattr(verify, "min_defining_chain", verify.max_defining_chain)
    ok, detail = verify.chains_oracle(3, 2)
    assert not ok
    assert "failures: []" not in detail
