import itertools
import os
import random

import pytest
from hypothesis import given, strategies as st

from richtoric.perms import (
    all_perms,
    all_subsets,
    ascending_completion,
    bruhat_leq,
    bruhat_leq_mask,
    check_perm,
    complement,
    descending_completion,
    enumerate_S,
    enumerate_T,
    gale_leq,
    identity,
    induced,
    interval_mask,
    inversions,
    longest,
    parse_perm,
    partition_perm,
    perm_leq_subset,
    perm_leq_subset_bruhat,
    perm_masks,
    perm_str,
    perm_up,
    prefix_set,
    reverse,
    set_bits,
    subset_leq_perm,
    subset_leq_perm_bruhat,
    subset_bits,
    subset_str,
    subsets_of,
    upper_indices,
)


# ---------------------------------------------------------------------------
# validation


def test_check_perm_rejects_non_bijections():
    for bad in [(), (0, 1), (1, 1), (2, 3), (1, 2, 4)]:
        with pytest.raises(ValueError):
            check_perm(bad)


@pytest.mark.parametrize(
    "complete,J",
    [
        (ascending_completion, (2, 2)),
        (ascending_completion, (4,)),
        (ascending_completion, (0, 1)),
        (descending_completion, (3, 1)),
        (descending_completion, (2, 2)),
        (descending_completion, (1, 4)),
    ],
)
def test_completions_refuse_what_is_no_subset_of_n(complete, J):
    # a repeated, descending or out-of-range entry gave a tuple that is no
    # permutation, or the other completion
    with pytest.raises(ValueError, match=r"not a strictly increasing subset of 1\.\.3"):
        complete(J, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_completions_of_every_subset_are_unchanged(n):
    # the formulas before the refusal, on every subset of [n], the empty one too
    for J in [()] + list(all_subsets(n)):
        rest = complement(J, n)
        assert ascending_completion(J, n) == J + rest
        assert descending_completion(J, n) == tuple(reversed(J)) + tuple(reversed(rest))
        assert ascending_completion(list(J), n) == J + rest


# ---------------------------------------------------------------------------
# subset order


def test_gale_examples():
    assert gale_leq((1, 2), (2,))
    assert not gale_leq((2, 3), (1, 3))
    assert gale_leq((1, 3), (1, 3))
    # size increase is never dominated
    assert not gale_leq((2,), (1, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gale_is_a_partial_order(n):
    subs = all_subsets(n)
    for I in subs:
        assert gale_leq(I, I)
    for I, J in itertools.permutations(subs, 2):
        if gale_leq(I, J) and gale_leq(J, I):
            assert I == J
    for I in subs:
        for J in subs:
            if not gale_leq(I, J):
                continue
            for K in subs:
                if gale_leq(J, K):
                    assert gale_leq(I, K)


# ---------------------------------------------------------------------------
# Bruhat order


def test_bruhat_examples():
    assert bruhat_leq((1, 3, 2), (3, 1, 2))
    assert bruhat_leq((2, 3, 1, 4), (4, 3, 1, 2))
    assert not bruhat_leq(longest(3), identity(3))
    assert bruhat_leq(identity(4), longest(4))


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_is_a_partial_order(n):
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    up = []
    for p in perms:
        mask = 0
        for q in perms:
            if bruhat_leq(p, q):
                mask |= 1 << index[q]
        up.append(mask)
    for i, p in enumerate(perms):
        assert up[i] >> i & 1  # reflexive
        for j, q in enumerate(perms):
            if up[i] >> j & 1 and up[j] >> i & 1:
                assert i == j  # antisymmetric
            if up[i] >> j & 1:
                assert up[j] & ~up[i] == 0  # transitive


# ---------------------------------------------------------------------------
# mixed comparisons and the Bruhat reformulation


def test_subset_vs_perm_examples():
    assert subset_leq_perm((2, 3), (2, 4, 3, 1))
    assert not perm_leq_subset((2, 3, 1, 4), (1, 2))
    w = (2, 4, 3, 1)
    for k in range(1, 4):
        assert subset_leq_perm(tuple(sorted(w[:k])), w)


def test_reformulation_examples():
    assert subset_leq_perm_bruhat((2, 3), (2, 4, 3, 1))
    assert not perm_leq_subset_bruhat((2, 3, 1, 4), (1, 2))
    # {1} extends to the identity, below everything
    for w in all_perms(4):
        assert subset_leq_perm_bruhat((1,), w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reformulation_agrees_exhaustively(n):
    for I in all_subsets(n):
        for w in all_perms(n):
            assert subset_leq_perm(I, w) == subset_leq_perm_bruhat(I, w)
            assert perm_leq_subset(w, I) == perm_leq_subset_bruhat(w, I)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complement_reversal_claim(n):
    # K <= w iff reverse(w) <= complement(K)
    for K in all_subsets(n):
        Kc = complement(K, n)
        for w in all_perms(n):
            assert subset_leq_perm(K, w) == perm_leq_subset(reverse(w), Kc)


# ---------------------------------------------------------------------------
# inversions, induced


def test_inversions():
    assert inversions(identity(5)) == 0
    assert inversions(longest(4)) == 6
    assert inversions((4, 2, 3, 1)) == 5


def test_induced_examples():
    assert induced((1, 3, 4, 2)) == (1, 3, 2)
    assert induced((2, 4, 3, 1)) == (2, 3, 1)
    assert induced(identity(5)) == identity(4)
    with pytest.raises(ValueError):
        induced((1,))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_induced_fibers(n):
    fibers = {}
    for w in all_perms(n):
        fibers.setdefault(induced(w), 0)
        fibers[induced(w)] += 1
    assert set(fibers) == set(all_perms(n - 1))
    assert all(count == n for count in fibers.values())
    # the slice around n against the filter it replaced, tuple for tuple
    for w in all_perms(n):
        assert type(induced(w)) is tuple
        assert induced(w) == tuple(x for x in w if x != n)


# ---------------------------------------------------------------------------
# surviving and vanishing coordinate sets


def test_survivor_sets_2314_4231():
    v, w = (2, 3, 1, 4), (4, 2, 3, 1)
    assert [subset_str(J) for J in enumerate_T(v, w)] == [
        "2", "3", "4", "23", "24", "123", "124", "134", "234",
    ]
    assert [subset_str(J) for J in enumerate_S(v, w)] == ["1", "12", "13", "14", "34"]


def test_survivors_at_identity_are_prefixes():
    n = 4
    ident = identity(n)
    assert enumerate_T(ident, ident) == [(1,), (1, 2), (1, 2, 3)]


def test_survivors_incomparable_pair_raises():
    with pytest.raises(ValueError):
        enumerate_T((3, 1, 2), (1, 3, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_survivors_contain_both_prefix_chains(n):
    for v in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(v, w):
                continue
            surviving = set(enumerate_T(v, w))
            for k in range(1, n):
                assert tuple(sorted(w[:k])) in surviving
                assert tuple(sorted(v[:k])) in surviving


def _tuple_scan_T(v, w):
    return [J for J in all_subsets(len(v)) if perm_leq_subset(v, J) and subset_leq_perm(J, w)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_masks_agree_with_tuple_comparisons(n):
    # every ordered pair, so both (v, w) and (w, v)
    subs = all_subsets(n)
    for v in all_perms(n):
        for w in all_perms(n):
            comparable = bruhat_leq(v, w)
            assert bruhat_leq_mask(v, w) == comparable
            if not comparable:
                with pytest.raises(ValueError):
                    interval_mask(v, w)
                continue
            T = _tuple_scan_T(v, w)
            assert subsets_of(interval_mask(v, w), n) == T
            assert enumerate_T(v, w) == T
            assert enumerate_S(v, w) == [J for J in subs if J not in T]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_up_set_walk_agrees_with_bruhat_order(n):
    perms = all_perms(n)
    for i, up in enumerate(perm_up(n)):
        assert up == sum(1 << p for p, w in enumerate(perms) if perm_masks(w).below >> i & 1)
    for v in perms:
        upper = [perms[p] for p in upper_indices(perm_masks(v).prefix, n)]
        assert upper == [w for w in perms if bruhat_leq_mask(v, w)]
        if n <= 4:
            assert upper == [w for w in perms if bruhat_leq(v, w)]


def _check_prefix_set(n, key, cones):
    P = tuple(j for j in range(1, n + 1) if key >> (j - 1) & 1)
    bit = subset_bits(n)
    layer = sum(bit[J] for J in itertools.combinations(range(1, n + 1), len(P)))
    assert prefix_set(n, key) == (bit[P], layer, *cones(P, n)), (n, P)


@pytest.mark.parametrize("n", range(2, 9))
def test_prefix_set_against_the_cone_definition(n, cones):
    # every nonempty proper set, keyed by its element mask
    for key in range(1, (1 << n) - 1):
        _check_prefix_set(n, key, cones)


def test_prefix_set_against_the_cone_definition_seeded_n9(cones):
    for key in random.Random(909).sample(range(1, (1 << 9) - 1), 60):
        _check_prefix_set(9, key, cones)


def _ref_perm_masks(w, cones):
    """perm_masks before the prefix-set table: one sorted tuple per prefix."""
    n = len(w)
    bit = subset_bits(n)
    prefix = below = above = 0
    for k in range(1, n):
        P = tuple(sorted(w[:k]))
        down, up = cones(P, n)
        prefix |= bit[P]
        below |= down
        above |= up
    return prefix, below, above


@pytest.mark.parametrize("n", range(1, 9))
def test_perm_masks_against_sorted_prefix_reference(n, cones):
    perms = all_perms(n)
    if n == 8:
        perms = random.Random(808).sample(perms, 2_000)
    for w in perms:
        assert perm_masks(w) == _ref_perm_masks(w, cones), w


def _ref_perm_up(n):
    """perm_up before the prefix-set holders: every permutation's below
    mask decoded bit by bit, one bit set per subset in it."""
    perms = all_perms(n)
    size = (len(perms) + 7) // 8
    up = [bytearray(size) for _ in all_subsets(n)]
    for p, w in enumerate(perms):
        byte, flag = p >> 3, 1 << (p & 7)
        below = perm_masks(w).below
        for i in range(len(up)):
            if below >> i & 1:
                up[i][byte] |= flag
    return tuple(int.from_bytes(b, "little") for b in up)


@pytest.mark.parametrize(
    "n",
    [*range(2, 8), pytest.param(8, marks=pytest.mark.skipif(
        os.environ.get("RICHTORIC_FULL") != "1", reason="full tier only (RICHTORIC_FULL=1)"))],
)
def test_perm_up_against_below_mask_decode(n):
    assert perm_up(n) == _ref_perm_up(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_subset_indices_decode_every_bit(n):
    # the decoder against a bit-by-bit scan: 0, every single bit, the full
    # subset mask and seeded random masks, then seeded ints as long as the
    # 8,586 kernel generators and the 40,320 permutations at n = 8
    width = len(all_subsets(n))
    rng = random.Random(300 + n)
    masks = [0, (1 << width) - 1, *(1 << i for i in range(width))]
    masks += [rng.getrandbits(width) for _ in range(500)]
    for mask in masks:
        assert set_bits(mask) == [i for i in range(width) if mask >> i & 1]
    for bits in (8_586, 40_320):
        for mask in (1 << bits - 1, rng.getrandbits(bits) | 1 << bits - 1):
            assert set_bits(mask) == [i for i in range(bits) if mask >> i & 1]


# ---------------------------------------------------------------------------
# permutations from ordered partitions


def test_partition_perm_examples():
    assert partition_perm([(1, 3), (2, 4)], ["up", "up"]) == (1, 3, 2, 4)
    assert partition_perm([(2, 5), (1, 3, 4)], ["down", "down"]) == (5, 2, 4, 3, 1)
    assert partition_perm([(2,), (1,), (3,)], ["up", "down", "up"]) == (2, 1, 3)


def test_partition_perm_rejects_bad_partitions():
    with pytest.raises(ValueError):
        partition_perm([(1, 2), (2, 3)], ["up", "up"])
    with pytest.raises(ValueError):
        partition_perm([(1, 2)], ["up", "up"])
    with pytest.raises(ValueError):
        partition_perm([(1, 2), (3,)], ["up", "sideways"])


# ---------------------------------------------------------------------------
# serialisation


def test_serialisation_examples():
    assert perm_str((2, 3, 1, 4)) == "2314"
    assert parse_perm("2314") == (2, 3, 1, 4)
    assert subset_str((2, 3, 4)) == "234"
    big = tuple(range(1, 11))
    assert parse_perm(perm_str(big)) == big
    assert "," in perm_str(big)


@given(st.permutations(list(range(1, 9))))
def test_perm_roundtrip(p):
    w = tuple(p)
    assert parse_perm(perm_str(w)) == w
