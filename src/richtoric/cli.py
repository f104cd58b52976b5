"""
Command-line driver.

Subcommands:

    check     decide compatibility, family membership, and monomial-freeness
              for one pair (v, w); exit 0 if toric, 1 if not, 2 on error
    classify  sweep all Bruhat-comparable pairs of S_n and write a CSV,
              optionally diffing against the bundled reference list
    ssyt      tableau, standard-monomial and kernel counts for one pair
    polytope  the degeneration matrices and polytope of one pair
    verify    run the reproduction/property suites (quick or full tier)

Permutations are written as digit strings for n <= 9 ("2314").  The
RICHTORIC_OUTDIR environment variable sets the default output directory
for files written by ``classify``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .perms import (
    MAX_N,
    BudgetError,
    Perm,
    bruhat_leq,
    enumerate_T,
    inversions,
    parse_perm,
    perm_str,
    subset_str,
)
from .tableaux import (
    chain_str,
    count_standard,
    enumerate_ssyt,
    is_standard,
    max_defining_chain,
    min_defining_chain,
    tableau_str,
)
from .compat import in_Tn, is_compatible
from .initial import (
    TermOrder,
    classification_csv,
    classify_all,
    is_monomial_free,
    kernel_hilbert_dim,
    monomial_str,
    restriction_report,
    witness_detail,
)
from .polytope import lattice_points, product_polytope, restricted_map_matrix, segre_matrix
from .table1 import compare_with_table1, table1_rows
from .verify import run_suites

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _parse_pair(args) -> tuple[Perm, Perm]:
    v = parse_perm(args.v)
    w = parse_perm(args.w)
    if len(v) != len(w):
        raise ValueError(f"v and w have different sizes ({len(v)} vs {len(w)})")
    if not 2 <= len(v) <= MAX_N:
        raise ValueError(f"n={len(v)} is outside the supported range 2..{MAX_N}")
    return v, w


def _valid_pair(args, degree: int | None = None) -> tuple[Perm, Perm] | None:
    """The pair (v, w) of a single-pair command, or None after reporting why not.

    Checks run in this order: the permutations and their size, then
    ``degree`` when given, then v <= w in Bruhat order.  Every refusal
    means exit code 2.
    """
    try:
        v, w = _parse_pair(args)
        if degree is not None and degree < 1:
            raise ValueError("degree must be at least 1")
    except ValueError as exc:
        _fail(str(exc))
        return None
    if not bruhat_leq(v, w):
        print("empty Richardson variety: v is not below w in Bruhat order")
        return None
    return v, w


def _order(args) -> TermOrder:
    return TermOrder(args.order)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    pair = _valid_pair(args)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = _order(args)
    report = restriction_report(v, w, order)
    dim = inversions(w) - inversions(v)
    surviving = enumerate_T(v, w)
    if args.format == "json":
        payload = witness_detail(report)
        payload.update(
            {
                "compatible": is_compatible(v, w),
                "in_family": in_Tn(v, w),
                "dimension": dim,
                "num_surviving": len(surviving),
                "surviving": [subset_str(J) for J in surviving],
            }
        )
        print(json.dumps(payload, indent=2))
    else:
        print(f"pair: v={perm_str(v)} w={perm_str(w)} (n={len(v)})")
        print(f"dim X_w^v = N(w)-N(v) = {inversions(w)}-{inversions(v)} = {dim}")
        print(f"compatible: {'yes' if is_compatible(v, w) else 'no'}")
        print(f"in family T_n: {'yes' if in_Tn(v, w) else 'no'}")
        print(f"|T_w^v| = {len(surviving)}: {','.join(subset_str(J) for J in surviving)}")
        print(f"order: {order.value}")
        print(f"monomial-free: {'yes' if report.monomial_free else 'no'}")
        if report.witnesses:
            print(f"monomial witnesses ({len(report.witnesses)}):")
            for wit in report.witnesses:
                missing = ",".join(subset_str(c) for c in wit.missing)
                print(
                    f"  {monomial_str(wit.surviving)}"
                    f"  (from {wit.generator}; vanishing: {missing})"
                )
        print(f"verdict: {'toric' if report.monomial_free else 'non-toric'}")
    return EXIT_OK if report.monomial_free else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    order = _order(args)
    if args.compare == "table1" and (args.n != 4 or order is not TermOrder.ANTIDIAGONAL):
        return _fail("--compare table1 applies to --n 4 --order antidiagonal")
    try:
        records = classify_all(args.n, order, force=args.force)
    except BudgetError as exc:
        return _fail(f"{exc} (use --force to override)")
    except ValueError as exc:
        return _fail(str(exc))

    if args.output == "-":
        out_path = None
    elif args.output:
        out_path = args.output
    else:
        outdir = os.environ.get("RICHTORIC_OUTDIR", ".")
        out_path = os.path.join(outdir, f"classify_n{args.n}_{order.value}.csv")

    if args.format == "json":
        body = json.dumps(
            [
                {
                    "v": perm_str(r.v),
                    "w": perm_str(r.w),
                    "order": order.value,
                    "monomial_free": r.monomial_free,
                    "num_witnesses": r.num_witnesses,
                }
                for r in records
            ],
            indent=2,
        ) + "\n"
    else:
        body = classification_csv(records, order)

    if out_path is None:
        sys.stdout.write(body)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(body)
        except OSError as exc:
            return _fail(f"cannot write {out_path}: {exc.strerror}")
        free = sum(1 for r in records if r.monomial_free)
        print(f"wrote {out_path}: {len(records)} pairs, {free} monomial-free")

    exit_code = EXIT_OK
    if args.compare == "table1":
        cmp = compare_with_table1([(r.v, r.w) for r in records if r.monomial_free])
        print(
            f"table1 comparison: covered {len(cmp.covered)}/{len(table1_rows())}, "
            f"missing {len(cmp.missing)}, surplus {len(cmp.surplus)}"
        )
        for v, w in cmp.missing:
            print(f"  missing: {perm_str(v)},{perm_str(w)}")
        for v, w in cmp.surplus:
            print(f"  surplus (informational): {perm_str(v)},{perm_str(w)}")
        if cmp.missing:
            exit_code = EXIT_NEGATIVE
    elif args.compare == "tn":
        mismatches = [
            r for r in records if r.monomial_free != in_Tn(r.v, r.w)
        ]
        print(
            f"family comparison ({order.value}): {len(records)} pairs, "
            f"{len(mismatches)} mismatches"
        )
        for r in mismatches[:20]:
            print(f"  mismatch: {perm_str(r.v)},{perm_str(r.w)}")
        if mismatches:
            exit_code = EXIT_NEGATIVE
    return exit_code


# ---------------------------------------------------------------------------
# ssyt


def cmd_ssyt(args) -> int:
    pair = _valid_pair(args, degree=args.d)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = _order(args)
    from .tableaux import SSYT_BUDGET
    from .initial import MONOMIAL_BUDGET

    t_budget = None if args.force else SSYT_BUDGET
    k_budget = None if args.force else MONOMIAL_BUDGET
    try:
        print(f"pair: v={perm_str(v)} w={perm_str(w)} (n={len(v)}), order={order.value}")
        for d in range(1, args.d + 1):
            tableaux = enumerate_ssyt(v, w, d, t_budget)
            standard = count_standard(v, w, d, t_budget)
            kernel = kernel_hilbert_dim(v, w, d, order, k_budget)
            print(f"d={d}: ssyt={len(tableaux)} standard={standard} kernel={kernel}")
        if args.list:
            n = len(v)
            for t in enumerate_ssyt(v, w, args.d, t_budget):
                tag = "standard" if is_standard(t, v, w) else "non-standard"
                lo = chain_str(min_defining_chain(t, n))
                hi = chain_str(max_defining_chain(t, n))
                print(f"  {tableau_str(t)}  {tag}  min={lo} max={hi}")
    except BudgetError as exc:
        return _fail(str(exc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# polytope


def cmd_polytope(args) -> int:
    pair = _valid_pair(args)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = _order(args)
    try:
        s = segre_matrix(v, w)
    except BudgetError as exc:
        return _fail(str(exc))
    a = restricted_map_matrix(v, w, order)
    prod = a.mul(s)
    poly = product_polytope(prod)
    points = None
    points_error = None
    try:
        points = lattice_points(poly)
    except (ValueError, BudgetError) as exc:
        points_error = str(exc)

    if args.format == "json":
        payload = {
            "v": perm_str(v),
            "w": perm_str(w),
            "order": order.value,
            "ambient": list(poly.ambient_labels),
            "columns": {
                lbl: list(col) for lbl, col in zip(prod.col_labels, prod.columns())
            },
            "distinct_points": [list(p) for p in poly.points],
            "point_labels": [list(g) for g in poly.point_labels],
            "affine_dim": poly.affine_dim,
            "lattice_points": None if points is None else [list(p) for p in points],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        for name, m in (("A", a), ("S", s), ("AS", prod)):
            print(f"# {name}")
            sys.stdout.write(m.csv())
    else:
        print(f"pair: v={perm_str(v)} w={perm_str(w)} (n={len(v)}), order={order.value}")
        print()
        print(a.text("A"))
        print()
        print(s.text("S"))
        print()
        print(prod.text("AS"))
        print()
        print(f"distinct points ({len(poly.points)} of {len(prod.col_labels)} columns):")
        for p, group in zip(poly.points, poly.point_labels):
            print(f"  {p}  <- {', '.join(group)}")
        print(f"affine dimension: {poly.affine_dim}")
        if points is not None:
            print(f"lattice points ({len(points)}):")
            for p in points:
                print(f"  {p}")
        else:
            print(f"lattice points: skipped ({points_error})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    results = run_suites(args.level)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.name:<24} {r.seconds:7.2f}s  {r.detail}")
    total = sum(r.seconds for r in results)
    print(
        f"level {args.level}: {len(results) - len(failed)}/{len(results)} "
        f"suites passed in {total:.1f}s"
    )
    return EXIT_OK if not failed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richtoric",
        description="toric degenerations of Richardson varieties at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(p):
        p.add_argument("--v", required=True, help="permutation v, e.g. 2314")
        p.add_argument("--w", required=True, help="permutation w, e.g. 4231")
        p.add_argument(
            "--order",
            choices=[o.value for o in TermOrder],
            default=TermOrder.DIAGONAL.value,
        )

    p_check = sub.add_parser("check", help="classify a single pair")
    add_pair_args(p_check)
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="sweep all comparable pairs of S_n")
    p_classify.add_argument("--n", type=int, required=True)
    p_classify.add_argument(
        "--order",
        choices=[o.value for o in TermOrder],
        default=TermOrder.DIAGONAL.value,
    )
    p_classify.add_argument("--compare", choices=["table1", "tn"])
    p_classify.add_argument("--format", choices=["csv", "json"], default="csv")
    p_classify.add_argument("--force", action="store_true")
    p_classify.add_argument("--output", help="output path, or - for stdout")
    p_classify.set_defaults(func=cmd_classify)

    p_ssyt = sub.add_parser("ssyt", help="tableau and standard-monomial counts")
    add_pair_args(p_ssyt)
    p_ssyt.add_argument("--d", type=int, default=3, help="maximum degree")
    p_ssyt.add_argument("--list", action="store_true", help="list tableaux and chains")
    p_ssyt.add_argument("--force", action="store_true")
    p_ssyt.set_defaults(func=cmd_ssyt)

    p_poly = sub.add_parser("polytope", help="degeneration matrices and polytope")
    add_pair_args(p_poly)
    p_poly.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_poly.set_defaults(func=cmd_polytope)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
