"""
Command-line driver.

Subcommands:

    check     decide compatibility, family membership, and monomial-freeness
              for one pair (v, w); exit 0 if toric, 1 if not, 2 on error
    classify  sweep all Bruhat-comparable pairs of S_n and write a CSV or
              JSON file, optionally diffing against the bundled reference list
    ssyt      tableau, standard-monomial and kernel counts for one pair
    polytope  the degeneration matrices and polytope of one pair
    verify    run the reproduction/property suites (quick or full tier)

Permutations are written as digit strings for n <= 9 ("2314").  The
RICHTORIC_OUTDIR environment variable sets the default output directory
for files written by ``classify``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

# every command but verify runs these two; each command imports the rest of
# what it runs, so a fresh process compiles only that
from .perms import (
    MAX_N,
    BudgetError,
    Perm,
    bruhat_leq_mask,
    degree_mask,
    enumerate_T,
    inversions,
    parse_perm,
    perm_str,
    subset_str,
    tableau_str,
)
from .initial import (
    ClassifyRecord,
    RestrictionReport,
    TermOrder,
    classify_rows,
    kernel_hilbert_dim,
    monomial_str,
    restrict,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _valid_pair(args, degree: int | None = None) -> tuple[Perm, Perm] | None:
    """The pair (v, w) of a single-pair command, or None after reporting why not.

    Checks run in this order: the permutations and their size, then
    ``degree`` when given, then v <= w in Bruhat order.  Every refusal
    means exit code 2.
    """
    try:
        v, w = parse_perm(args.v), parse_perm(args.w)
        if len(v) != len(w):
            raise ValueError(f"v and w have different sizes ({len(v)} vs {len(w)})")
        if not 2 <= len(v) <= MAX_N:
            raise ValueError(f"n={len(v)} is outside the supported range 2..{MAX_N}")
        if degree is not None and degree < 1:
            raise ValueError("degree must be at least 1")
    except ValueError as exc:
        _fail(str(exc))
        return None
    if not bruhat_leq_mask(v, w):
        print("empty Richardson variety: v is not below w in Bruhat order")
        return None
    return v, w


# ---------------------------------------------------------------------------
# check


def witness_detail(report: RestrictionReport) -> dict:
    """The restriction part of the ``check --format json`` payload."""
    return {
        "v": perm_str(report.v),
        "w": perm_str(report.w),
        "order": report.order.value,
        "monomial_free": report.monomial_free,
        "survivors": [
            {"lhs": monomial_str(g.lhs), "rhs": monomial_str(g.rhs)}
            for g in report.survivors
        ],
        "witnesses": [
            {
                "generator": {
                    "lhs": monomial_str(wit.generator.lhs),
                    "rhs": monomial_str(wit.generator.rhs),
                },
                "surviving_term": monomial_str(wit.surviving),
                "vanished_term": monomial_str(wit.vanished),
                "vanishing_subsets": [subset_str(c) for c in wit.missing],
            }
            for wit in report.witnesses
        ],
        "vanished_count": report.vanished_count,
    }


def cmd_check(args) -> int:
    from .compat import in_Tn, is_compatible

    pair = _valid_pair(args)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = TermOrder(args.order)
    report = restrict(v, w, order)
    dim = inversions(w) - inversions(v)
    surviving = enumerate_T(v, w)
    if args.format == "json":
        import json

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
                lhs, rhs = wit.generator
                missing = ",".join(subset_str(c) for c in wit.missing)
                print(
                    f"  {monomial_str(wit.surviving)}  (from {monomial_str(lhs)}"
                    f" ~ {monomial_str(rhs)}; vanishing: {missing})"
                )
        print(f"verdict: {'toric' if report.monomial_free else 'non-toric'}")
    return EXIT_OK if report.monomial_free else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# classify


CSV_HEADER = "v,w,order,monomial_free,num_witnesses\n"


class _PermLabels(dict):
    """``perm_str`` of each permutation, made once, at its first lookup."""

    def __missing__(self, p: Perm) -> str:
        self[p] = label = perm_str(p)
        return label


def csv_line(r: ClassifyRecord, order: TermOrder, labels: _PermLabels) -> str:
    """One classification CSV row, newline included; the permutations'
    labels are looked up in ``labels``, which a sweep's rows share."""
    return (
        f"{labels[r.v]},{labels[r.w]},{order.value},"
        f"{int(r.monomial_free)},{r.num_witnesses}\n"
    )


def classification_csv(records, order: TermOrder) -> str:
    """The whole CSV body of ``classify --format csv`` for ``records``."""
    labels = _PermLabels()
    return CSV_HEADER + "".join(csv_line(r, order, labels) for r in records)


def _write_rows(fh, rows, order: TermOrder, args):
    """Write the rows as the sweep yields them, one write per v; return the
    pair count, the monomial-free pairs and the ``--compare tn`` mismatches."""
    as_json = args.format == "json"
    labels = _PermLabels()
    family = frozenset()
    if args.compare == "tn":
        from .compat import tn_pairs

        family = frozenset(tn_pairs(args.n))
    pairs, free, mismatches = 0, [], []
    fh.write("[\n" if as_json else CSV_HEADER)
    sep = ""
    for _, group in itertools.groupby(rows, key=lambda r: r.v):
        group = list(group)
        if as_json:
            fh.write(sep + ",\n".join(_json_row(r, order, labels) for r in group))
            sep = ",\n"
        else:
            fh.write("".join(csv_line(r, order, labels) for r in group))
        pairs += len(group)
        free += [(r.v, r.w) for r in group if r.monomial_free]
        if args.compare == "tn":
            mismatches += [r for r in group if r.monomial_free != ((r.v, r.w) in family)]
    fh.write("\n]\n" if as_json else "")
    return pairs, free, mismatches


def _json_row(r, order: TermOrder, labels) -> str:
    """One element of ``json.dumps(rows, indent=2)``, written out by hand:
    with ``indent`` set, json falls back to its pure-Python encoder."""
    return (
        f'  {{\n    "v": "{labels[r.v]}",\n    "w": "{labels[r.w]}",\n'
        f'    "order": "{order.value}",\n'
        f'    "monomial_free": {"true" if r.monomial_free else "false"},\n'
        f'    "num_witnesses": {r.num_witnesses}\n  }}'
    )


def cmd_classify(args) -> int:
    order = TermOrder(args.order)
    if args.compare == "table1" and (args.n != 4 or order is not TermOrder.ANTIDIAGONAL):
        return _fail("--compare table1 applies to --n 4 --order antidiagonal")
    try:
        rows = classify_rows(args.n, order)
    except ValueError as exc:
        return _fail(str(exc))
    if args.output == "-":
        out_path = None
    elif args.output:
        out_path = args.output
    else:
        name = f"classify_n{args.n}_{order.value}.{args.format}"
        out_path = os.path.join(os.environ.get("RICHTORIC_OUTDIR", "."), name)

    # opened before the sweep starts, so an unwritable path is refused at once
    if out_path is None:
        pairs, free, mismatches = _write_rows(sys.stdout, rows, order, args)
    else:
        try:
            with open(out_path, "w") as fh:
                pairs, free, mismatches = _write_rows(fh, rows, order, args)
        except OSError as exc:
            return _fail(f"cannot write {out_path}: {exc.strerror}")
        print(f"wrote {out_path}: {pairs} pairs, {len(free)} monomial-free")

    exit_code = EXIT_OK
    if args.compare == "table1":
        from .table1 import compare_with_table1, table1_rows

        cmp = compare_with_table1(free)
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
        print(
            f"family comparison ({order.value}): {pairs} pairs, "
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
    from .tableaux import (
        SSYT_BUDGET,
        chain_str,
        count_standard,
        enumerate_ssyt,
        is_standard,
        max_defining_chain,
        min_defining_chain,
    )

    pair = _valid_pair(args, degree=args.d)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = TermOrder(args.order)
    try:
        # refused before anything prints: |T|^d grows with d, and no budget
        # the loop meets is below SSYT_BUDGET
        degree_mask(v, w, args.d, SSYT_BUDGET)
        print(f"pair: v={perm_str(v)} w={perm_str(w)} (n={len(v)}), order={order.value}")
        for d in range(1, args.d + 1):
            tableaux = enumerate_ssyt(v, w, d)
            standard = count_standard(v, w, d)
            kernel = kernel_hilbert_dim(v, w, d, order)
            print(f"d={d}: ssyt={len(tableaux)} standard={standard} kernel={kernel}")
        if args.list:
            # the loop's last list is degree args.d
            n = len(v)
            for t in tableaux:
                tag = "standard" if is_standard(t, v, w) else "non-standard"
                lo, hi = min_defining_chain(t, n), max_defining_chain(t, n)
                print(f"  {tableau_str(t)}  {tag}  min={chain_str(lo)} max={chain_str(hi)}")
    except BudgetError as exc:
        return _fail(str(exc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# polytope


def cmd_polytope(args) -> int:
    from .polytope import IntMatrix, lattice_points, polytope, restricted_map_matrix, segre_matrix

    pair = _valid_pair(args)
    if pair is None:
        return EXIT_ERROR
    v, w = pair
    order = TermOrder(args.order)
    try:
        poly = polytope(v, w, order)
    except BudgetError as exc:
        return _fail(str(exc))
    # the matrices are display only; polytope() refused an oversized S above.
    # AS holds each product's point, read back from the merged labels.
    a = restricted_map_matrix(v, w, order)
    s = segre_matrix(v, w)
    point_of = {lbl: p for p, group in zip(poly.points, poly.point_labels) for lbl in group}
    prod = IntMatrix(a.row_labels, s.col_labels, tuple(zip(*map(point_of.get, s.col_labels))))
    points = None
    points_error = None
    try:
        points = lattice_points(poly)
    except (ValueError, BudgetError) as exc:
        points_error = str(exc)

    if args.format == "json":
        import json

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
    from .verify import run_suites  # only this command needs the suites

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

    def add_order_arg(p):
        p.add_argument(
            "--order",
            choices=[o.value for o in TermOrder],
            default=TermOrder.DIAGONAL.value,
        )

    def add_pair_args(p):
        p.add_argument("--v", required=True, help="permutation v, e.g. 2314")
        p.add_argument("--w", required=True, help="permutation w, e.g. 4231")
        add_order_arg(p)

    p_check = sub.add_parser("check", help="classify a single pair")
    add_pair_args(p_check)
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    p_classify = sub.add_parser("classify", help="sweep all comparable pairs of S_n")
    p_classify.add_argument("--n", type=int, required=True)
    add_order_arg(p_classify)
    p_classify.add_argument("--compare", choices=["table1", "tn"])
    p_classify.add_argument("--format", choices=["csv", "json"], default="csv")
    p_classify.add_argument("--output", help="output path, or - for stdout")
    p_classify.set_defaults(func=cmd_classify)

    p_ssyt = sub.add_parser("ssyt", help="tableau and standard-monomial counts")
    add_pair_args(p_ssyt)
    p_ssyt.add_argument("--d", type=int, default=3, help="maximum degree")
    p_ssyt.add_argument("--list", action="store_true", help="list tableaux and chains")
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

