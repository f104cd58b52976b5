"""
Reproduction and property suites behind the ``verify`` command.

Each suite returns (ok, detail) and is pure; the quick tier keeps every
exhaustive sweep at n <= 4, the full tier raises the bounds to n = 5 (the
chain oracle at degree <= 2) and to n = 6 for the classification and
block suites, and adds the polytope-dimension suite at n = 5.
Brute-force oracles (chain enumeration, the Bruhat reformulation of subset
comparisons) are implemented here from scratch so that they stay
independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import time
from functools import cache
from typing import NamedTuple

from .perms import (
    all_perms,
    all_subsets,
    bruhat_leq,
    complement,
    enumerate_S,
    enumerate_T,
    identity,
    inversions,
    longest,
    perm_leq_subset,
    perm_leq_subset_bruhat,
    perm_str,
    reverse,
    subset_leq_perm,
    subset_leq_perm_bruhat,
    subset_str,
)
from .tableaux import (
    count_standard,
    enumerate_ssyt,
    is_ssyt,
    is_standard,
    max_defining_chain,
    min_defining_chain,
    tableau_str,
)
from .compat import (
    blocks,
    in_Tn,
    is_213_avoiding,
    is_312_avoiding,
    lower_w,
    maximum_block,
    raise_v,
    tn_pairs,
)
from .initial import (
    TermOrder,
    classify_all,
    degree2_kernel_generators,
    is_monomial_free,
    kernel_hilbert_dim,
    monomial_str,
    restrict,
    witness_table,
)
from .polytope import lattice_points, polytope, restricted_map_matrix, segre_matrix
from .table1 import compare_with_table1, table1_rows


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# reproduction suites


def survivor_sets():
    v, w = (2, 3, 1, 4), (4, 2, 3, 1)
    got_t = {subset_str(J) for J in enumerate_T(v, w)}
    got_s = {subset_str(J) for J in enumerate_S(v, w)}
    want_t = {"2", "3", "4", "23", "24", "123", "124", "134", "234"}
    want_s = {"1", "12", "13", "14", "34"}
    ok = got_t == want_t and got_s == want_s
    return ok, f"T={sorted(got_t)} S={sorted(got_s)}"


def diagonal_witness():
    v, w = (1, 3, 2), (3, 1, 2)
    gens = degree2_kernel_generators(3, TermOrder.DIAGONAL)
    report = restrict(v, w, TermOrder.DIAGONAL)
    ok = (
        len(gens) == 1
        and not report.monomial_free
        and len(report.witnesses) == 1
        and monomial_str(report.witnesses[0].surviving) == "P13*P2"
        and [subset_str(c) for c in report.witnesses[0].missing] == ["23"]
        and not is_monomial_free(v, w, TermOrder.DIAGONAL)
    )
    detail = (
        f"{len(gens)} generator(s); witnesses="
        f"{[monomial_str(x.surviving) for x in report.witnesses]}"
    )
    return ok, detail


def classification_family_agreement(max_n: int = 4):
    """Monomial-freeness of the diagonal degeneration vs family membership."""
    counts = []
    for n in range(3, max_n + 1):
        records = classify_all(n, TermOrder.DIAGONAL)
        family = frozenset(tn_pairs(n))
        mismatches = sum(r.monomial_free != ((r.v, r.w) in family) for r in records)
        counts.append((n, len(records), mismatches))
    ok = all(m == 0 for _, _, m in counts)
    detail = "; ".join(f"n={n}: {t} pairs, {m} mismatches" for n, t, m in counts)
    return ok, detail


def family_monomial_free(n: int = 8):
    """Every pair of T_n is monomial-free in the diagonal order, read off
    ``witness_table(n, diagonal)``: (La | Lb) ^ (Ra | Rb) is empty for the
    row of v and the row of w.  Not a suite of :func:`run_suites`; at n = 8
    it is the first step of the exhaustive S_8 check, run on its own."""
    row = dict(zip(all_perms(n), witness_table(n, TermOrder.DIAGONAL)))
    pairs = tn_pairs(n)
    bad = []
    for v, w in pairs:
        _, _, la, ra, _, _ = row[v]
        _, _, _, _, lb, rb = row[w]
        if (la | lb) ^ (ra | rb):
            bad.append(f"{perm_str(v)},{perm_str(w)}")
    detail = f"n={n}: {len(pairs)} family pairs, {len(bad)} with a witness: {bad[:5]}"
    return not bad, detail


def table1_coverage():
    records = classify_all(4, TermOrder.ANTIDIAGONAL)
    true_pairs = [(r.v, r.w) for r in records if r.monomial_free]
    cmp = compare_with_table1(true_pairs)
    rows = table1_rows()
    ok = len(rows) == 58 and not cmp.missing
    detail = (
        f"covered {len(cmp.covered)}/{len(rows)}, missing {len(cmp.missing)}, "
        f"surplus {len(cmp.surplus)} (informational)"
    )
    return ok, detail


def ssyt_count_agreement(n: int = 4, max_d: int = 3):
    """Tableau count == standard count == restricted-kernel Hilbert count."""
    bad = []
    checked = 0
    for v, w in tn_pairs(n):
        for d in range(1, max_d + 1):
            total = len(enumerate_ssyt(v, w, d))
            standard = count_standard(v, w, d)
            hilbert = kernel_hilbert_dim(v, w, d, TermOrder.DIAGONAL)
            checked += 1
            if not (total == standard == hilbert):
                bad.append((perm_str(v), perm_str(w), d, total, standard, hilbert))
    return not bad, f"{checked} (pair, degree) checks; disagreements: {bad[:5]}"


def negative_control():
    v, w = (1, 2, 3), (3, 1, 2)
    tableau = ((1, 3), (2,))
    ssyt2 = enumerate_ssyt(v, w, 2)
    lo = min_defining_chain(tableau, 3)
    standard = count_standard(v, w, 2)
    ok = (
        tableau in ssyt2
        and lo[-1] == (2, 3, 1)
        and not bruhat_leq(lo[-1], w)
        and not is_standard(tableau, v, w)
        and standard < len(ssyt2)
    )
    return ok, (
        f"|SSYT_2|={len(ssyt2)}, standard={standard}, "
        f"min chain of {tableau_str(tableau)} tops at {perm_str(lo[-1])}"
    )


# the antidiagonal degeneration polytope of ((2341), (4231)); rows x2..z2,
# columns ordered P2,P3,P4,P23,P24,P234 and products thereof
EXPECTED_A = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 1),
    (0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 1),
)
EXPECTED_S = (
    (1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (1, 1, 1, 1, 1, 1),
)
EXPECTED_AS = (
    (1, 1, 0, 0, 0, 0),
    (1, 0, 2, 1, 1, 0),
    (1, 2, 1, 2, 2, 3),
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
)


def polytope_instance():
    v, w = (2, 3, 4, 1), (4, 2, 3, 1)
    order = TermOrder.ANTIDIAGONAL
    poly = polytope(v, w, order)
    a = restricted_map_matrix(v, w, order)
    s = segre_matrix(v, w)
    prod = a.mul(s)
    plane_ok = all(p[0] + p[1] + p[2] == 3 for p in poly.points)
    checks = [
        a.row_labels == ("x2", "x3", "x4", "y2", "y3", "z2"),
        a.entries == EXPECTED_A,
        s.entries == EXPECTED_S,
        prod.entries == EXPECTED_AS,
        prod.column(3) == prod.column(4),
        len(poly.points) == 5,
        poly.affine_dim == 2,
        plane_ok,
        set(poly.points) <= set(map(tuple, lattice_points(poly))),
    ]
    return all(checks), (
        f"dim={poly.affine_dim}, {len(poly.points)} distinct points, "
        f"plane check {'ok' if plane_ok else 'FAILED'}, checks={checks}"
    )


def polytope_dimensions(max_n: int = 5):
    """The polytope's affine dimension against dim X_w^v = N(w) - N(v).

    Checked on every monomial-free pair with n <= max_n, in both orders.
    This is observed evidence that the degeneration polytope has the
    dimension of the Richardson variety, not a theorem of the paper.
    """
    checked, bad = 0, []
    for n in range(2, max_n + 1):
        for order in TermOrder:
            for r in classify_all(n, order):
                if r.monomial_free:
                    checked += 1
                    dim = polytope(r.v, r.w, order).affine_dim
                    if dim != inversions(r.w) - inversions(r.v):
                        bad.append(f"{perm_str(r.v)},{perm_str(r.w)},{order.value}")
    return not bad, (
        f"affine dim == N(w)-N(v) on {checked} monomial-free (pair, order) "
        f"cases, n <= {max_n} (observed); exceptions: {len(bad)} {bad[:5]}"
    )


def pattern_avoidance(n: int = 5):
    w0 = longest(n)
    ident = identity(n)
    bad = 0
    for w in all_perms(n):
        if in_Tn(ident, w) != is_312_avoiding(w):
            bad += 1
        if in_Tn(w, w0) != is_213_avoiding(w):
            bad += 1
    return bad == 0, f"both equivalences over S_{n}: {bad} mismatches"


# the two six-letter reference pairs with known block lists
_BLOCK_INSTANCES = (
    ((3, 5, 6, 4, 1, 2), (4, 6, 5, 3, 2, 1), ((1, 4), (2, 3), (5, 6)), (2, 3)),
    ((1, 2, 4, 5, 3), (2, 4, 5, 3, 1), ((1, 5),), (1, 5)),
)


def block_suite(max_n: int = 6):
    problems = []
    pair_count = 0
    for n in range(1, max_n + 1):
        family = tn_pairs(n)
        # dual route: the membership predicate must carve out the same set
        swept = {
            (v, w)
            for v in all_perms(n)
            for w in all_perms(n)
            if in_Tn(v, w)
        }
        if swept != set(family):
            problems.append(f"n={n}: predicate sweep disagrees with extensions")
        for v, w in family:
            pair_count += 1
            if not bruhat_leq(v, w):
                problems.append(f"{perm_str(v)},{perm_str(w)}: not comparable")
            bl = blocks(v, w)
            for b in bl:
                ventries = v[b.i - 1 : b.j]
                wentries = w[b.i - 1 : b.j]
                if set(ventries) != set(wentries):
                    problems.append(f"{perm_str(v)},{perm_str(w)}: entry sets differ on {b}")
                if v[b.i - 1] != w[b.j - 1] or v[b.i - 1] != min(ventries):
                    problems.append(f"{perm_str(v)},{perm_str(w)}: endpoints of {b}")
            for b1, b2 in itertools.combinations(bl, 2):
                if b1.i < b2.i < b1.j < b2.j or b2.i < b1.i < b2.j < b1.j:
                    problems.append(f"{perm_str(v)},{perm_str(w)}: crossing {b1} {b2}")
            mb = maximum_block(v, w)
            d = v.index(n) + 1
            e = w.index(n) + 1
            if not all(v[k] < v[k + 1] for k in range(mb.i - 1, d - 1)):
                problems.append(f"{perm_str(v)},{perm_str(w)}: ascent chain fails")
            if not all(w[k] > w[k + 1] for k in range(e - 1, mb.j - 1)):
                problems.append(f"{perm_str(v)},{perm_str(w)}: descent chain fails")
    for v, w, want_blocks, want_max in _BLOCK_INSTANCES:
        if max_n < len(v):
            continue
        got = tuple((b.i, b.j) for b in blocks(v, w))
        if got != want_blocks:
            problems.append(f"{perm_str(v)},{perm_str(w)}: blocks {got} != {want_blocks}")
        mb = maximum_block(v, w)
        if (mb.i, mb.j) != want_max:
            problems.append(f"{perm_str(v)},{perm_str(w)}: max block {(mb.i, mb.j)}")
    return not problems, f"{pair_count} family pairs checked; problems: {problems[:5]}"


# ---------------------------------------------------------------------------
# brute-force oracles


def _oracle_chains(cols, n, leq):
    """Every defining chain of a tableau, by filtered product."""
    per_column = []
    for J in cols:
        rest = complement(J, n)
        per_column.append(
            [
                head + tail
                for head in itertools.permutations(J)
                for tail in itertools.permutations(rest)
            ]
        )
    chains = [[u] for u in per_column[0]]
    for options in per_column[1:]:
        chains = [
            chain + [u]
            for chain in chains
            for u in options
            if leq(chain[-1], u)
        ]
    return chains


def _unique_minimum(values, leq):
    for cand in values:
        if all(leq(cand, other) for other in values):
            return cand
    return None


def _unique_maximum(values, leq):
    for cand in values:
        if all(leq(other, cand) for other in values):
            return cand
    return None


def chains_oracle(max_n: int = 4, max_d: int = 3):
    """Greedy min/max chains == componentwise extrema over all chains.

    The tableaux are drawn by filtering every d-tuple of subsets of [n] with
    :func:`is_ssyt`, not from the fast enumeration; how many there are is
    then checked against ``enumerate_ssyt(id, w0, d)``.  Every Bruhat test
    goes through one cache local to the call, so the tuple ``bruhat_leq``
    runs at most once per ordered pair.
    """
    bad = []
    checked = 0
    leq = cache(bruhat_leq)
    for n in range(2, max_n + 1):
        ident, w0 = identity(n), longest(n)
        for d in range(1, max_d + 1):
            drawn = [t for t in itertools.product(all_subsets(n), repeat=d) if is_ssyt(t)]
            fast = len(enumerate_ssyt(ident, w0, d))
            if len(drawn) != fast:
                bad.append((n, d, f"{len(drawn)} SSYT drawn, enumerate_ssyt gives {fast}"))
            for cols in drawn:
                checked += 1
                chains = _oracle_chains(cols, n, leq)
                lo = min_defining_chain(cols, n)
                hi = max_defining_chain(cols, n)
                for k in range(d):
                    values = {chain[k] for chain in chains}
                    lo_k, hi_k = _unique_minimum(values, leq), _unique_maximum(values, leq)
                    if lo_k != lo[k] or hi_k != hi[k]:
                        bad.append((n, tableau_str(cols), k))
                        break
                if not all(leq(a, b) for a, b in zip(lo, hi)):
                    bad.append((n, tableau_str(cols), "min>max"))
    return not bad, f"{checked} tableaux checked; failures: {bad[:5]}"


def subset_compare_oracle(max_n: int = 5):
    """Direct subset/permutation comparisons vs the Bruhat reformulation."""
    bad = 0
    checked = 0
    for n in range(2, max_n + 1):
        for I in all_subsets(n):
            for w in all_perms(n):
                checked += 2
                if subset_leq_perm(I, w) != subset_leq_perm_bruhat(I, w):
                    bad += 1
                if perm_leq_subset(w, I) != perm_leq_subset_bruhat(w, I):
                    bad += 1
    return bad == 0, f"{checked} comparisons, {bad} disagreements"


def complement_claim(max_n: int = 5):
    """K <= w iff reverse(w) <= complement(K)."""
    bad = 0
    checked = 0
    for n in range(2, max_n + 1):
        for K in all_subsets(n):
            Kc = complement(K, n)
            for w in all_perms(n):
                checked += 1
                if subset_leq_perm(K, w) != perm_leq_subset(reverse(w), Kc):
                    bad += 1
    return bad == 0, f"{checked} instances, {bad} disagreements"


def adjacent_swap_suite(n: int = 5):
    """Swap moves stay in the family and shift inversions by exactly one."""
    bad = []
    eligible = 0
    for v, w in tn_pairs(n):
        if v.index(n) == w.index(n):
            continue
        eligible += 1
        vp = raise_v(v, w)
        wp = lower_w(v, w)
        if inversions(vp) != inversions(v) + 1:
            bad.append((perm_str(v), perm_str(w), "N(v')"))
        if inversions(wp) != inversions(w) - 1:
            bad.append((perm_str(v), perm_str(w), "N(w')"))
        if not in_Tn(vp, w) or not in_Tn(v, wp):
            bad.append((perm_str(v), perm_str(w), "membership"))
    return not bad, f"{eligible} eligible pairs; failures: {bad[:5]}"


# ---------------------------------------------------------------------------
# driver


def run_suites(level: str = "quick") -> list[SuiteResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    full = level == "full"
    plan = [
        ("sets", survivor_sets),
        ("witness", diagonal_witness),
        ("classification", lambda: classification_family_agreement(6 if full else 4)),
        ("table1", table1_coverage),
        ("ssyt-counts", lambda: ssyt_count_agreement(5 if full else 4, 3)),
        ("negative-control", negative_control),
        ("polytope", polytope_instance),
        ("patterns", lambda: pattern_avoidance(5 if full else 4)),
        ("blocks", lambda: block_suite(6 if full else 4)),
        ("oracle-chains", lambda: chains_oracle(5, 2) if full else chains_oracle(4, 3)),
        ("oracle-compare", lambda: subset_compare_oracle(5 if full else 4)),
        ("oracle-complement", lambda: complement_claim(5 if full else 4)),
        ("oracle-swaps", lambda: adjacent_swap_suite(5 if full else 4)),
    ]
    if full:
        plan.append(("polytope-dims", lambda: polytope_dimensions(5)))
    out = []
    for name, fn in plan:
        t0 = time.perf_counter()
        ok, detail = fn()
        out.append(SuiteResult(name, ok, detail, time.perf_counter() - t0))
    return out
