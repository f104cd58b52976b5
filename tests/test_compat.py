import pytest

from richtoric.perms import (
    BudgetError,
    all_perms,
    bruhat_leq,
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
    tn_membership_csv,
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
    with pytest.raises(BudgetError):
        tn_pairs(7)


def test_forced_and_unforced_families_share_one_cache():
    assert tn_pairs(5, force=True) is tn_pairs(5)
    assert tn_pairs(4) is tn_pairs(4, force=True)
    # the guard sits outside the cache: a forced call leaves it standing
    with pytest.raises(BudgetError, match="pass force=True to override"):
        tn_pairs(7)


@pytest.mark.parametrize("sweep", [tn_pairs, tn_membership_csv])
def test_forced_sweeps_refuse_n_above_max_n(sweep):
    # checked before the force flag, so no S_9 sweep starts
    with pytest.raises(ValueError, match=r"^n=9 is outside the supported range 1\.\.8$"):
        sweep(9, force=True)


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


# ---------------------------------------------------------------------------
# membership table export


def test_membership_csv():
    text = tn_membership_csv(3)
    lines = text.strip().splitlines()
    assert lines[0] == "v,w,compatible,in_Tn"
    rows = {tuple(line.split(",")) for line in lines[1:]}
    assert ("132", "312", "0", "0") in rows
    assert ("123", "132", "1", "1") in rows
    # one row per comparable pair
    comparable = sum(
        1 for v in all_perms(3) for w in all_perms(3) if bruhat_leq(v, w)
    )
    assert len(lines) - 1 == comparable
