"""Record the expected answers of every workload from the current program.

Run it at the commit whose answers are the reference, from the repository
root:

    python3 perfbench/record.py

It writes ``perfbench/expected/{sweep,pairs,cli}.json``.  The catalogues
are drawn from a fixed seed, so a rerun at the same commit gives the same
entries and answers; only ``seed_s``, the measured cost that sorts entries
into cost bands, differs between reruns.
"""

from __future__ import annotations

import json
import random
import sys
import time

import inputs
from inputs import EXPECTED_DIR, ORDERS, draw_pair, perm_text, program_env
from workloads import (
    DEADLINE_S,
    canonical_stdout,
    pair_outputs,
    pair_summary,
    run_cli,
    sha256,
    verdict_digest,
    warm_up,
)

CATALOGUE_SEED = 1729

#: Catalogue pairs per n for pair-study.
PAIR_CATALOGUE = 60

#: Catalogue requests per pair-based CLI slot, and cost bands per slot:
#: as many bands as a cli-cold run has rounds, so every run draws one
#: request from every band.
CLI_PER_SLOT = 18
CLI_BANDS = 4

HANG = ["polytope", "--v", "123456", "--w", "654321"]


def distinct_pairs(rng, n, count, first=()):
    seen = list(first)
    while len(seen) < count:
        pair = draw_pair(rng, n)
        if pair not in seen:
            seen.append(pair)
    return [(perm_text(v), perm_text(w)) for v, w in seen]


def record_sweep(rt) -> dict:
    out = {"classify": {}, "table1_rows": len(rt.table1_rows())}
    for n in (4, 5):
        for order in ORDERS:
            records = rt.classify_all(n, rt.TermOrder(order))
            out["classify"][f"{n}/{order}"] = {
                "pairs": len(records),
                "monomial_free": sum(r.monomial_free for r in records),
                "digest": verdict_digest(records),
            }
    return out


def record_pairs(rt, rng) -> dict:
    warm_up(rt, "pair-study")
    catalogue = {}
    for n in (4, 5, 6):
        entries = []
        for v, w in distinct_pairs(rng, n, PAIR_CATALOGUE):
            entry = {"v": v, "w": w, "order": rng.choice(ORDERS)}
            entry["in_family"] = rt.in_Tn(inputs.perm_tuple(v), inputs.perm_tuple(w))
            t0 = time.perf_counter()
            outputs = pair_outputs(rt, entry)
            entry["seed_s"] = time.perf_counter() - t0
            entry["values"] = pair_summary(outputs)
            entries.append(entry)
        catalogue[str(n)] = entries
    return {"pairs": catalogue}


def cli_slots(rng) -> dict:
    def pair_requests(command, n, extra, first=()):
        out = []
        for v, w in distinct_pairs(rng, n, CLI_PER_SLOT, first):
            out.append([command, "--v", v, "--w", w, "--order", rng.choice(ORDERS), *extra(rng)])
        return out

    def fmt(*choices):
        return lambda r: ["--format", r.choice(choices)]

    def classify(n):
        out = []
        for order in ORDERS:
            compare = {"diagonal": "tn", "antidiagonal": "table1" if n == 4 else None}[order]
            for form in ("csv", "json"):
                base = ["classify", "--n", str(n), "--order", order, "--format", form, "--output", "-"]
                out.append(base)
                if compare:
                    out.append(base + ["--compare", compare])
        return out

    def forced(v, w):
        """A heavy request every catalogue of its slot starts with."""
        return ((inputs.perm_tuple(v), inputs.perm_tuple(w)),)

    return {
        "check6": pair_requests("check", 6, fmt("text", "json")),
        "check7": pair_requests("check", 7, fmt("text", "json")),
        "check8": pair_requests("check", 8, fmt("text", "json"), forced("12345678", "87654321")),
        "ssyt5": pair_requests("ssyt", 5, lambda r: ["--d", "3"]),
        "ssyt6": pair_requests("ssyt", 6, lambda r: ["--d", "2"], forced("123456", "654321")),
        "polytope4": pair_requests("polytope", 4, fmt("text", "csv", "json")),
        "polytope5": pair_requests("polytope", 5, fmt("text", "csv", "json"), forced("12345", "54321")),
        "classify4": classify(4),
        "classify5": classify(5),
        "verify": [["verify", "--level", "quick"]],
    }


def record_cli(rng) -> dict:
    env = program_env()
    slots = {}
    for name, requests in cli_slots(rng).items():
        entries = []
        for argv in requests:
            result = run_cli([sys.executable, "-m", "richtoric", *argv], env, 60.0)
            if result.exit is None:
                raise RuntimeError(f"{' '.join(argv)} did not finish")
            if result.elapsed > DEADLINE_S / 3:
                print(f"warning: {' '.join(argv)} took {result.elapsed:.2f}s", file=sys.stderr)
            entries.append(
                {
                    "argv": argv,
                    "exit": result.exit,
                    "sha256": sha256(canonical_stdout(argv, result.stdout)),
                    "stdout_bytes": len(result.stdout),
                    "seed_s": result.elapsed,
                }
            )
        slots[name] = entries
        print(f"{name}: {len(entries)} requests, {sum(e['seed_s'] for e in entries):.2f}s", file=sys.stderr)
    return {"bands": CLI_BANDS, "slots": slots, "hang": {"argv": HANG}}


def write(name, data) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(which) -> None:
    rt = inputs.import_program()
    if "sweep" in which:
        write("sweep", record_sweep(rt))
    if "pairs" in which:
        write("pairs", record_pairs(rt, random.Random(f"{CATALOGUE_SEED}:pairs")))
    if "cli" in which:
        write("cli", record_cli(random.Random(f"{CATALOGUE_SEED}:cli")))


if __name__ == "__main__":
    main(sys.argv[1:] or ["sweep", "pairs", "cli"])
