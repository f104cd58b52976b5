"""
Acceptance suite: one test per criterion, each printing a PASS line with its
steady-state runtime.  Exhaustive sweeps run at the stated sizes; the S_5
classification sweep and the streamed S_7 sweep belong to the full tier and
are enabled by setting RICHTORIC_FULL=1 (the S_5 sweep is also exercised by
``richtoric verify --level full``).
"""

import os
import time

import pytest

from richtoric.perms import (
    all_perms,
    bruhat_leq,
    enumerate_S,
    enumerate_T,
    identity,
    inversions,
    longest,
    perm_str,
    subset_str,
)
from richtoric.tableaux import (
    count_standard,
    enumerate_ssyt,
    is_standard,
    min_defining_chain,
)
from richtoric.compat import in_Tn, tn_pairs
from richtoric.initial import (
    TermOrder,
    classify_all,
    classify_rows,
    degree2_kernel_generators,
    is_monomial_free,
    kernel_hilbert_dim,
    monomial_str,
    restrict,
)
from richtoric.table1 import compare_with_table1, table1_rows
from richtoric import verify

FULL_TIER = os.environ.get("RICHTORIC_FULL") == "1"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _report(name, seconds):
    print(f"ACCEPTANCE PASS {name} ({seconds * 1000:.2f} ms)")


def test_criterion_1_survivor_sets():
    v, w = (2, 3, 1, 4), (4, 2, 3, 1)
    enumerate_T(v, w)  # warm
    got_t, dt1 = _timed(enumerate_T, v, w)
    got_s, dt2 = _timed(enumerate_S, v, w)
    assert {subset_str(J) for J in got_t} == {
        "2", "3", "4", "23", "24", "123", "124", "134", "234",
    }
    assert {subset_str(J) for J in got_s} == {"1", "12", "13", "14", "34"}
    assert dt1 < 0.001 and dt2 < 0.001
    _report("survivor sets of (2314, 4231)", dt1 + dt2)


def test_criterion_2_diagonal_witness():
    v, w = (1, 3, 2), (3, 1, 2)
    gens = degree2_kernel_generators(3, TermOrder.DIAGONAL)
    restrict(v, w, TermOrder.DIAGONAL)  # warm
    report, dt = _timed(restrict, v, w, TermOrder.DIAGONAL)
    assert len(gens) == 1
    assert not report.monomial_free
    assert len(report.witnesses) == 1
    assert monomial_str(report.witnesses[0].surviving) == "P13*P2"
    assert not is_monomial_free(v, w, TermOrder.DIAGONAL)
    assert dt < 0.001
    _report("diagonal monomial witness at (132, 312)", dt)


def test_criterion_3_classification_small():
    degree2_kernel_generators(4, TermOrder.DIAGONAL)  # warm

    def sweep(n):
        for v in all_perms(n):
            for w in all_perms(n):
                if bruhat_leq(v, w):
                    assert is_monomial_free(v, w, TermOrder.DIAGONAL) == in_Tn(v, w)

    _, dt3 = _timed(sweep, 3)
    _, dt4 = _timed(sweep, 4)
    assert dt4 < 1.0
    _report("diagonal classification == family membership (S3, S4)", dt3 + dt4)


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (RICHTORIC_FULL=1)")
def test_criterion_3_classification_s5():
    degree2_kernel_generators(5, TermOrder.DIAGONAL)  # warm

    def sweep():
        for v in all_perms(5):
            for w in all_perms(5):
                if bruhat_leq(v, w):
                    assert is_monomial_free(v, w, TermOrder.DIAGONAL) == in_Tn(v, w)

    _, dt = _timed(sweep)
    assert dt < 120.0
    _report("diagonal classification == family membership (S5)", dt)


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (RICHTORIC_FULL=1)")
def test_criterion_3_classification_s7_stream():
    # the whole S_7 sweep, one row at a time: nothing holds all the rows
    def sweep():
        pairs, free = 0, set()
        for r in classify_rows(7, TermOrder.DIAGONAL):
            pairs += 1
            if r.monomial_free:
                free.add((r.v, r.w))
        return pairs, free

    (pairs, free), dt = _timed(sweep)
    assert pairs == 3_550_919
    assert len(free) == 39_600
    assert free == set(tn_pairs(7))
    _report("streamed diagonal classification == family membership (S7)", dt)


def test_criterion_3_family_monomial_free_small(monkeypatch):
    counts = {2: 3, 3: 14, 4: 83, 5: 577, 6: 4536}
    for n, pairs in counts.items():
        ok, detail = verify.family_monomial_free(n)
        assert ok and detail == f"n={n}: {pairs} family pairs, 0 with a witness: []"
    # a pair outside T_3 with a diagonal witness is reported
    monkeypatch.setattr(verify, "tn_pairs", lambda n: (((1, 3, 2), (3, 1, 2)),))
    assert verify.family_monomial_free(3) == (
        False, "n=3: 1 family pairs, 1 with a witness: ['132,312']"
    )


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (RICHTORIC_FULL=1)")
def test_criterion_3_family_monomial_free_s8():
    # every pair of T_8 is diagonal monomial-free, read off the S_8 table
    (ok, detail), dt = _timed(verify.family_monomial_free, 8)
    assert ok, detail
    assert detail.startswith("n=8: 380063 family pairs, 0 with a witness:")
    _report("T8 pairs are diagonal monomial-free", dt)


def test_criterion_4_reference_table():
    def run():
        records = classify_all(4, TermOrder.ANTIDIAGONAL)
        return compare_with_table1(
            [(r.v, r.w) for r in records if r.monomial_free]
        )

    cmp, dt = _timed(run)
    assert len(table1_rows()) == 58
    assert len(cmp.covered) == 58
    assert not cmp.missing
    if cmp.surplus:  # informational, never a failure
        extras = [f"{perm_str(v)},{perm_str(w)}" for v, w in cmp.surplus if v != w]
        print(f"  surplus verdict-true pairs beyond the reference list: "
              f"{len(cmp.surplus)} total, non-trivial: {extras}")
    assert dt < 1.0
    _report("antidiagonal reference table covered (58/58)", dt)


def test_criterion_5_count_agreement_on_family():
    def run():
        for v, w in tn_pairs(4):
            for d in (1, 2, 3):
                total = len(enumerate_ssyt(v, w, d))
                assert count_standard(v, w, d) == total
                assert kernel_hilbert_dim(v, w, d, TermOrder.DIAGONAL) == total

    _, dt = _timed(run)
    assert dt < 30.0
    _report("tableau = standard = kernel counts on family pairs of S4, d <= 3", dt)


def test_criterion_6_negative_control():
    v, w = identity(3), (3, 1, 2)
    assert not in_Tn(v, w)
    tableau = ((1, 3), (2,))
    ssyt2 = enumerate_ssyt(v, w, 2)
    assert tableau in ssyt2
    chain = min_defining_chain(tableau, 3)
    assert chain[-1] == (2, 3, 1)
    assert not bruhat_leq(chain[-1], w)
    assert not is_standard(tableau, v, w)
    assert count_standard(v, w, 2) < len(ssyt2)
    _report("negative control at (123, 312)", 0.0)


def test_criterion_7_polytope_instance():
    verify.polytope_instance()  # warm
    (ok, detail), dt = _timed(verify.polytope_instance)
    assert ok, detail
    assert dt < 0.010
    _report("degeneration polytope of (2341, 4231)", dt)


def test_criterion_8_pattern_avoidance_s5():
    (ok, detail), dt = _timed(verify.pattern_avoidance, 5)
    assert ok, detail
    assert dt < 5.0
    _report("312/213-avoidance equivalences on S5", dt)


def test_criterion_9_block_suite():
    (ok, detail), dt = _timed(verify.block_suite, 6)
    assert ok, detail
    assert dt < 120.0
    _report("block structure, n <= 6", dt)


def test_criterion_10a_chain_oracle():
    (ok, detail), dt = _timed(verify.chains_oracle, 4, 3)
    assert ok, detail
    _report("greedy chains == brute-force extrema (n <= 4, d <= 3)", dt)


def test_criterion_10b_comparison_oracle():
    (ok, detail), dt = _timed(verify.subset_compare_oracle, 5)
    assert ok, detail
    _report("subset comparisons == Bruhat reformulation (n <= 5)", dt)


def test_criterion_10c_complement_claim():
    (ok, detail), dt = _timed(verify.complement_claim, 5)
    assert ok, detail
    _report("complement-reversal equivalence (n <= 5)", dt)


def test_criterion_10d_swap_moves():
    (ok, detail), dt = _timed(verify.adjacent_swap_suite, 5)
    assert ok, detail
    _report("adjacent-swap bookkeeping on family pairs of S5", dt)
