import random

import pytest

from richtoric import compat
from richtoric.perms import (
    all_perms,
    bruhat_leq,
    bruhat_leq_mask,
    identity,
    induced,
    inversions,
    longest,
    perm_str,
)
from richtoric.compat import (
    blocks,
    extensions_in_Tn,
    in_Tn,
    is_213_avoiding,
    is_312_avoiding,
    is_compatible,
    lower_w,
    maximum_block,
    raise_v,
    tn_pairs,
)


# ---------------------------------------------------------------------------
# compatibility and family membership


def test_compatibility_examples():
    assert is_compatible((1, 3, 4, 2), (2, 4, 3, 1))
    assert not is_compatible((1, 3, 2), (3, 1, 2))
    for w in all_perms(3):
        assert is_compatible(w, w)
    assert is_compatible((1,), (1,))


def test_family_examples():
    assert in_Tn((1, 3, 4, 2), (2, 4, 3, 1))
    assert not in_Tn((1, 3, 2), (3, 1, 2))
    assert in_Tn((1,), (1,))
    assert in_Tn(identity(4), identity(4))
    # compatible at the top level but failing one level down
    assert is_compatible((2, 1, 4, 3), (1, 2, 4, 3))
    assert not in_Tn((2, 1, 4, 3), (1, 2, 4, 3))


def _ref_compatible(v, w):
    """is_compatible as it was before the size check moved out of it, on a
    pair of one size."""
    n = len(v)
    if n == 1:
        return True
    t, tp = v.index(n) + 1, w.index(n) + 1
    if t == tp:
        return True
    if tp > t:
        return False
    s, sp = v.index(n - 1) + 1, w.index(n - 1) + 1
    if sp > t or tp > s:
        return False
    return all(w[k] > w[k + 1] and v[k] < v[k + 1] for k in range(tp - 1, t - 1))


def _ref_in_Tn(v, w):
    """in_Tn before the single size check: compatibility at every level,
    the induced pairs by filtering, no memo."""
    n = len(v)
    if n == 1:
        return v == (1,) and w == (1,)
    return _ref_compatible(v, w) and _ref_in_Tn(
        tuple(x for x in v if x != n), tuple(x for x in w if x != n)
    )


def test_family_membership_agrees_with_the_checked_recursion():
    perms = all_perms(5)
    for v in perms:
        for w in perms:
            assert in_Tn(v, w) == _ref_in_Tn(v, w)
    rng, perms = random.Random(6), all_perms(6)
    pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(3000)]
    pairs += rng.sample(tn_pairs(6), 300)
    for _ in range(2):  # the memo cold at n = 5 and below, then warm
        assert [in_Tn(v, w) for v, w in pairs] == [_ref_in_Tn(v, w) for v, w in pairs]
    # a memo hit never skips the size check: only checked pairs are stored
    for v, w in [((1, 2), (1, 2, 3)), ((1, 3, 2), (2, 1)), (identity(6), identity(5))]:
        with pytest.raises(ValueError, match=f"^mismatched sizes: {len(v)} vs {len(w)}$"):
            in_Tn(v, w)


def test_family_walk_agrees_with_the_references_on_every_comparable_s6_pair():
    perms = all_perms(6)
    pairs = [(v, w) for v in perms for w in perms if bruhat_leq_mask(v, w)]
    assert len(pairs) == 98_407
    want = [_ref_in_Tn(v, w) for v, w in pairs]
    assert sum(want) == len(tn_pairs(6))
    compat._tn_memo.clear()
    for _ in range(2):  # the memo cold, then warm
        assert [in_Tn(v, w) for v, w in pairs] == want
    assert [is_compatible(v, w) for v, w in pairs] == [
        _ref_compatible(v, w) for v, w in pairs
    ]


def _insert_top(vbar, wbar, a, b):
    n = len(vbar) + 1
    return vbar[:a] + (n,) + vbar[a:], wbar[:b] + (n,) + wbar[b:]


@pytest.mark.parametrize("n", [7, 8])
def test_family_walk_agrees_with_the_references_on_seeded_slices(n):
    rng, perms = random.Random(70 + n), all_perms(n)
    pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(1500)]
    # members, drawn as extensions of members one size down
    for vbar, wbar in rng.sample(tn_pairs(n - 1), 150):
        pairs.append(rng.choice(extensions_in_Tn(vbar, wbar)))
    # compatible at the top (n at one position) but outside the family lower
    # down, and n inserted at random positions into members
    small = all_perms(n - 1)
    for _ in range(300):
        a = rng.randrange(n)
        pairs.append(_insert_top(rng.choice(small), rng.choice(small), a, a))
        vbar, wbar = rng.choice(tn_pairs(n - 1))
        pairs.append(_insert_top(vbar, wbar, rng.randrange(n), rng.randrange(n)))
    want = [_ref_in_Tn(v, w) for v, w in pairs]
    assert 150 <= sum(want) < len(pairs)
    assert sum(_ref_compatible(v, w) and not x for (v, w), x in zip(pairs, want)) > 100
    compat._tn_memo.clear()
    for _ in range(2):  # the memo cold, then warm
        assert [in_Tn(v, w) for v, w in pairs] == want
    assert [is_compatible(v, w) for v, w in pairs] == [
        _ref_compatible(v, w) for v, w in pairs
    ]


def test_family_walk_at_size_one_and_on_mismatched_sizes():
    assert in_Tn((1,), (1,)) == _ref_in_Tn((1,), (1,)) is True
    assert is_compatible((1,), (1,)) == _ref_compatible((1,), (1,)) is True
    for v, w in [((1, 2), (1, 2, 3)), ((1,), (2, 1)), (identity(8), identity(7))]:
        message = f"^mismatched sizes: {len(v)} vs {len(w)}$"
        with pytest.raises(ValueError, match=message):
            is_compatible(v, w)
        with pytest.raises(ValueError, match=message):
            in_Tn(v, w)


def _ref_visited(v, w):
    """The pairs the family walk meets from (v, w) down: each induced pair
    while the pairs above it stay compatible, the first incompatible one
    included."""
    out = [(v, w)]
    while len(v) > 1 and _ref_compatible(v, w):
        v, w = induced(v), induced(w)
        out.append((v, w))
    return out


def test_memo_holds_exactly_the_visited_small_pairs():
    rng, perms = random.Random(56), all_perms(6)
    pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(200)]
    pairs += rng.sample(tn_pairs(6), 40)
    pairs += [_insert_top(*rng.sample(all_perms(5), 2), a, a) for a in range(6)]
    refused = 0
    for v, w in pairs:
        compat._tn_memo.clear()
        assert in_Tn(v, w) == _ref_in_Tn(v, w)
        visited = [(x, y) for x, y in _ref_visited(v, w) if 1 < len(x) <= 5]
        assert compat._tn_memo == {(x, y): _ref_in_Tn(x, y) for x, y in visited}
        refused += not visited  # refused at n = 6: nothing is written
    assert 50 <= refused < len(pairs)
    # a stored verdict answers the next query at its own size
    compat._tn_memo.clear()
    v, w = (1, 3, 5, 6, 4, 2), (2, 4, 6, 5, 3, 1)
    assert in_Tn(v, w) and compat._tn_memo[induced(v), induced(w)] is True


def test_family_census():
    assert [len(tn_pairs(n)) for n in range(1, 6)] == [1, 3, 14, 83, 577]


def test_extension_example():
    got = extensions_in_Tn((1, 3, 2), (2, 3, 1))
    want = [
        ((1, 3, 2, 4), (2, 3, 1, 4)),
        ((1, 3, 4, 2), (2, 3, 4, 1)),
        ((1, 3, 4, 2), (2, 4, 3, 1)),
        ((1, 4, 3, 2), (2, 4, 3, 1)),
        ((4, 1, 3, 2), (4, 2, 3, 1)),
    ]
    assert got == sorted(want)


def test_extension_of_the_size_one_seed():
    # equal-position insertions of 2 plus the one split-position pair
    assert extensions_in_Tn((1,), (1,)) == [
        ((1, 2), (1, 2)),
        ((1, 2), (2, 1)),
        ((2, 1), (2, 1)),
    ]


def test_extension_rejects_non_members():
    with pytest.raises(ValueError):
        extensions_in_Tn((1, 3, 2), (3, 1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extensions_partition_the_family(n):
    generated = [
        pair
        for seed in tn_pairs(n - 1)
        for pair in extensions_in_Tn(*seed)
    ]
    assert len(generated) == len(set(generated))
    swept = {
        (v, w) for v in all_perms(n) for w in all_perms(n) if in_Tn(v, w)
    }
    assert set(generated) == swept
    assert set(tn_pairs(n)) == swept


def test_family_members_are_comparable():
    for n in range(1, 6):
        for v, w in tn_pairs(n):
            assert bruhat_leq(v, w)


def test_sweep_guard():
    # S_7 is inside the sweep bound; its family is built, not refused
    assert len(tn_pairs(7)) == 39_600


def test_forced_sweep_refuses_n_above_max_n():
    # the range check is the only bound, so no S_9 sweep starts
    with pytest.raises(ValueError, match=r"^n=9 is outside the supported range 1\.\.8$"):
        tn_pairs(9)


# ---------------------------------------------------------------------------
# blocks


def test_blocks_instance_with_three_blocks():
    v, w = (3, 5, 6, 4, 1, 2), (4, 6, 5, 3, 2, 1)
    got = [(b.i, b.j) for b in blocks(v, w)]
    assert got == [(1, 4), (2, 3), (5, 6)]
    assert maximum_block(v, w)[:2] == (2, 3)


def test_blocks_instance_with_one_block():
    v, w = (1, 2, 4, 5, 3), (2, 4, 5, 3, 1)
    got = [(b.i, b.j) for b in blocks(v, w)]
    assert got == [(1, 5)]
    assert maximum_block(v, w)[:2] == (1, 5)


def test_blocks_smallest_cases():
    assert [(b.i, b.j, b.provenance) for b in blocks((1,), (1,))] == [
        (1, 1, "creation")
    ]
    got = blocks(identity(2), identity(2))
    assert ((2, 2), "creation") in [((b.i, b.j), b.provenance) for b in got]


def test_blocks_reject_non_members():
    with pytest.raises(ValueError):
        blocks((1, 3, 2), (3, 1, 2))


def test_maximum_block_of_equal_pair_is_singleton():
    for w in all_perms(4):
        d = w.index(4) + 1
        assert maximum_block(w, w)[:2] == (d, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_entry_sets_and_endpoints(n):
    for v, w in tn_pairs(n):
        for b in blocks(v, w):
            ventries = v[b.i - 1 : b.j]
            wentries = w[b.i - 1 : b.j]
            assert set(ventries) == set(wentries)
            assert v[b.i - 1] == w[b.j - 1] == min(ventries)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_blocks_non_crossing_and_max_block_runs(n):
    for v, w in tn_pairs(n):
        bl = blocks(v, w)
        for x in range(len(bl)):
            for y in range(x + 1, len(bl)):
                a, b = bl[x], bl[y]
                assert not (a.i < b.i < a.j < b.j or b.i < a.i < b.j < a.j)
        mb = maximum_block(v, w)
        d = v.index(n) + 1
        e = w.index(n) + 1
        assert mb.i <= min(d, e) and max(d, e) <= mb.j
        assert all(v[k] < v[k + 1] for k in range(mb.i - 1, d - 1))
        assert all(w[k] > w[k + 1] for k in range(e - 1, mb.j - 1))


# ---------------------------------------------------------------------------
# the adjacent-swap moves


def test_swap_example():
    v, w = (1, 3, 4, 2), (2, 4, 3, 1)
    assert raise_v(v, w) == (1, 4, 3, 2)
    assert lower_w(v, w) == (2, 3, 4, 1)
    assert in_Tn(raise_v(v, w), w)
    assert in_Tn(v, lower_w(v, w))
    assert inversions(raise_v(v, w)) == inversions(v) + 1
    assert inversions(lower_w(v, w)) == inversions(w) - 1


def test_swap_preconditions():
    with pytest.raises(ValueError):
        raise_v((1, 2, 3), (1, 2, 3))  # positions of n coincide
    with pytest.raises(ValueError):
        lower_w((1, 3, 2), (3, 1, 2))  # not in the family


@pytest.mark.parametrize("n", [3, 4])
def test_swap_bookkeeping(n):
    for v, w in tn_pairs(n):
        if v.index(n) == w.index(n):
            continue
        vp, wp = raise_v(v, w), lower_w(v, w)
        assert inversions(vp) == inversions(v) + 1
        assert inversions(wp) == inversions(w) - 1
        assert in_Tn(vp, w) and in_Tn(v, wp)
        dim = inversions(w) - inversions(v)
        assert inversions(w) - inversions(vp) == dim - 1
        assert inversions(wp) - inversions(v) == dim - 1


# ---------------------------------------------------------------------------
# pattern avoidance


def test_pattern_examples():
    assert not is_312_avoiding((3, 1, 2))
    assert not is_213_avoiding((2, 1, 3))
    assert is_312_avoiding(identity(5))
    assert is_213_avoiding(identity(5))
    assert is_312_avoiding(longest(5))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pattern_characterisations(n):
    ident, w0 = identity(n), longest(n)
    for w in all_perms(n):
        assert in_Tn(ident, w) == is_312_avoiding(w)
        assert in_Tn(w, w0) == is_213_avoiding(w)
