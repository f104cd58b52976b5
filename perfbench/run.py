"""Run one workload of the richtoric benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ``src``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run (spans are written to ``perfbench/out``).  Every time is in
reference-speed seconds (see ``refclock.py``); the lines before the JSON
show the raw figures beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

import inputs
import stats
import workloads
from refclock import RefClock, scale

WORKLOADS = ("sweep", "cli-cold", "pair-study")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "perms.bruhat_leq.calls": "count",
    "perms.bruhat_leq.self_s": "s",
    "perms.subset_leq.calls": "count",
    "perms.subset_leq.self_s": "s",
    "perms.enumerate_T.calls": "count",
    "perms.enumerate_T.self_s": "s",
    "perms.enumerate_T.mean_size": "count",
    "initial.kernel_build.misses": "count",
    "initial.kernel_build.self_s": "s",
    "initial.kernel_build.generators": "count",
    "initial.kernel_cache.hit_ratio": "1",
    "initial.restrict.calls": "count",
    "initial.restrict.self_s": "s",
    "initial.restrict.generators_scanned": "count",
    "initial.restrict.witnesses": "count",
    "initial.restrict.vanished": "count",
    "initial.monomial_free.calls": "count",
    "initial.monomial_free.self_s": "s",
    "initial.hilbert.self_s": "s",
    "initial.hilbert.images": "count",
    "compat.in_Tn.calls": "count",
    "compat.in_Tn.self_s": "s",
    "compat.is_compatible.calls": "count",
    "tableaux.enumerate_ssyt.self_s": "s",
    "tableaux.enumerate_ssyt.tableaux": "count",
    "tableaux.chain.calls": "count",
    "tableaux.chain.self_s": "s",
    "tableaux.chain.cache_hit_ratio": "1",
    "tableaux.is_standard.self_s": "s",
    "tableaux.standard_ratio": "1",
    "polytope.matrices.self_s": "s",
    "polytope.build.self_s": "s",
    "polytope.columns": "count",
    "polytope.distinct_points": "count",
    "polytope.dedupe_ratio": "1",
    "polytope.affine_rank.self_s": "s",
    "polytope.lattice.self_s": "s",
    "polytope.lattice.box_points": "count",
    "polytope.lattice.hit_ratio": "1",
    "polytope.render.self_s": "s",
    "polytope.render.bytes": "B",
    "cli.startup_s": "s",
    "cli.check.p50_s": "s",
    "cli.ssyt.p50_s": "s",
    "cli.polytope.p50_s": "s",
    "cli.classify.p50_s": "s",
    "cli.verify.p50_s": "s",
    "cli.stdout_bytes": "B",
    "cli.deadline_kills": "count",
    "bench.ref_s": "s",
    "bench.trace_overhead": "1",
}

CLI_COMMANDS = ("check", "ssyt", "polytope", "classify", "verify")


def load_baseline() -> dict:
    with open(inputs.BENCH_DIR / "baseline.json") as fh:
        return json.load(fh)


def plan(workload, seconds, ops_per_round=1):
    """A phase's fixed work: as many rounds as took ``seconds`` reference
    seconds at the commit that recorded ``round_ref_s`` in baseline.json."""
    rounds = workloads.rounds_for(seconds, load_baseline()["round_ref_s"][workload])
    return workloads.Plan(rounds * ops_per_round, workloads.WALL_CAP * seconds)


def timed_phase(workload, rt, clock, seconds, seed, tracer=None):
    """One timed phase of an in-process workload."""
    if workload == "sweep":
        pairs = inputs.sweep_pairs(seed, workloads.SWEEP_BLOCK)
        return workloads.sweep_phase(rt, clock, plan(workload, seconds), pairs, inputs.load_expected("sweep"), tracer)
    pool = inputs.pair_pool(seed, inputs.load_expected("pairs"), workloads.PAIRS_PER_N)
    return workloads.pair_phase(rt, clock, plan(workload, seconds, len(pool)), pool, tracer)


def cli_rounds(seed):
    return inputs.cli_rounds(seed, inputs.load_expected("cli"))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced_run(workload, seed, seconds, clock):
    setups = workloads.measure_setup(workload, clock)
    if workload == "cli-cold":
        tally, requests = workloads.cli_phase(clock, plan(workload, seconds), cli_rounds(seed))
        peak_kb = max(r.maxrss_kb for r in requests if not r.killed)
    else:
        rt = inputs.import_program()
        workloads.warm_up(rt, workload)
        tally = timed_phase(workload, rt, clock, seconds, seed)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    latencies, raw_latencies = tally.latencies(), tally.raw_latencies()
    pct, tail = stats.tail(latencies)
    _, tail_raw = stats.tail(raw_latencies)
    ok = (tally.attempted - tally.failed) / tally.attempted
    figures = {  # name: (reference-speed value, raw value)
        "setup_s": (
            statistics.median([clock.normalize(raw, k) for raw, k in setups]),
            statistics.median([raw for raw, _ in setups]),
        ),
        "throughput_ops_s": (tally.throughput(), tally.throughput_raw()),
        "latency_p50_s": (statistics.median(latencies), statistics.median(raw_latencies)),
        "latency_tail_s": (tail, tail_raw),
        "ok_ratio": (ok, ok),
        "peak_rss_mb": (peak_kb / 1024, peak_kb / 1024),
    }
    for name, (value, raw) in figures.items():
        print(f"{name:<18} {value:>12.6g} {END_TO_END[name]:<6} raw {raw:.6g}")
    print(f"latency_tail_s is p{pct:g} of {len(latencies)} latency samples")
    print(f"setup repeats {len(setups)}; attempted {tally.attempted}, failed {tally.failed}; "
          f"timed work {tally.busy_s():.4g} s (raw {tally.busy_raw_s():.4g} s)")
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in figures.items()}
    return tally.attempted, tally.failed, tally.wrong, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(workload, seed, seconds, clock):
    import tracer as tracing

    inputs.OUT_DIR.mkdir(exist_ok=True)
    requests = []
    if workload == "cli-cold":
        for stale in inputs.OUT_DIR.glob("cli-*.json"):
            stale.unlink()
        traced, requests = workloads.cli_phase(clock, plan(workload, seconds), cli_rounds(seed), traced=True)
        children = []
        for path in sorted(inputs.OUT_DIR.glob("cli-*.json")):
            with open(path) as fh:
                children.append(json.load(fh))
            path.unlink()
        summary = tracing.merge(children)
        startups = [c["startup_s"] for c in children]
        spans = [[i, *span] for i, c in enumerate(children, 1) for span in c["span_list"]]
        untraced, _ = workloads.cli_phase(clock, plan(workload, seconds), cli_rounds(seed))
    else:
        rt = inputs.import_program()
        tracer = tracing.install()
        workloads.warm_up(rt, workload)
        traced = timed_phase(workload, rt, clock, seconds, seed, tracer)
        tracer.uninstall()
        untraced = timed_phase(workload, rt, clock, seconds, seed)
        summary = tracer.summary()
        startups = []
        spans = [[0, *span] for span in tracer.spans]

    path = inputs.OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracing.write_spans(path, spans)
    overhead = untraced.throughput() / traced.throughput()
    metrics = layer_metrics(summary, clock, overhead, requests, startups)
    for name, value in metrics.items():
        print(f"{name:<38} {value:>14.6g} {PER_LAYER[name]}")
    print_kinds(summary["kinds"], clock, requests)
    print(f"traced ops {traced.attempted}; spans kept {summary['spans']}, "
          f"aggregated only {summary['spans_dropped']}; written to {path.relative_to(inputs.ROOT)}")
    attempted = traced.attempted + untraced.attempted
    failed = traced.failed + untraced.failed
    return attempted, failed, traced.wrong + untraced.wrong, {
        name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()
    }


#: Traced functions by layer, for the per-kind breakdown.
LAYERS = {
    "perms": ("bruhat_leq", "subset_leq_perm", "perm_leq_subset", "enumerate_T"),
    "kernel_build": ("degree2_kernel_generators",),
    "restrict": ("restrict", "is_monomial_free"),
    "hilbert": ("kernel_hilbert_dim",),
    "compat": ("in_Tn", "is_compatible"),
    "tableaux": ("enumerate_ssyt", "min_extension", "max_truncation", "is_standard"),
    "polytope": ("restricted_map_matrix", "segre_matrix", "polytope", "affine_rank", "lattice_points", "render"),
}


def print_kinds(kinds, clock, requests) -> None:
    """Self time per layer for each kind of operation (reference-speed seconds)."""
    print("self time by operation kind:")
    for kind in sorted(kinds):
        names = kinds[kind]
        per_layer = {
            layer: scale(sum(names.get(n, 0.0) for n in members), clock.nominal_s, clock.median())
            for layer, members in LAYERS.items()
        }
        shown = ", ".join(f"{layer} {t:.4g}" for layer, t in per_layer.items() if t > 0)
        times = [clock.normalize(r.raw_s, r.stretch) for r in requests if r.kind == kind and not r.killed]
        p50 = f"; request p50 {statistics.median(times):.4g} s over {len(times)}" if times else ""
        print(f"  {kind}: {shown}{p50}")


def layer_metrics(summary, clock, overhead, requests, startups) -> dict:
    ref_s = clock.median()
    calls, counts = summary["calls"], summary["counts"]

    def self_s(*names):
        return scale(sum(summary["self_s"].get(n, 0.0) for n in names), clock.nominal_s, ref_s)

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(*caches):
        hits = sum(summary["caches"].get(c, [0, 0])[0] for c in caches)
        misses = sum(summary["caches"].get(c, [0, 0])[1] for c in caches)
        return ratio(hits, hits + misses)

    def p50(command):
        times = [clock.normalize(r.raw_s, r.stretch) for r in requests if r.command == command and not r.killed]
        return statistics.median(times) if times else 0.0

    chain = ("min_extension", "max_truncation")
    m = {
        "perms.bruhat_leq.calls": n("bruhat_leq"),
        "perms.bruhat_leq.self_s": self_s("bruhat_leq"),
        "perms.subset_leq.calls": n("subset_leq_perm", "perm_leq_subset"),
        "perms.subset_leq.self_s": self_s("subset_leq_perm", "perm_leq_subset"),
        "perms.enumerate_T.calls": n("enumerate_T"),
        "perms.enumerate_T.self_s": self_s("enumerate_T"),
        "perms.enumerate_T.mean_size": ratio(counts.get("enumerate_T.size", 0), n("enumerate_T")),
        "initial.kernel_build.misses": summary["caches"].get("kernel", [0, 0])[1],
        "initial.kernel_build.self_s": self_s("degree2_kernel_generators"),
        "initial.kernel_build.generators": counts.get("kernel.generators", 0),
        "initial.kernel_cache.hit_ratio": hit_ratio("kernel"),
        "initial.restrict.calls": n("restrict"),
        "initial.restrict.self_s": self_s("restrict"),
        "initial.restrict.generators_scanned": counts.get("restrict.generators_scanned", 0),
        "initial.restrict.witnesses": counts.get("restrict.witnesses", 0),
        "initial.restrict.vanished": counts.get("restrict.vanished", 0),
        "initial.monomial_free.calls": n("is_monomial_free"),
        "initial.monomial_free.self_s": self_s("is_monomial_free"),
        "initial.hilbert.self_s": self_s("kernel_hilbert_dim"),
        "initial.hilbert.images": counts.get("hilbert.images", 0),
        "compat.in_Tn.calls": n("in_Tn"),
        "compat.in_Tn.self_s": self_s("in_Tn"),
        "compat.is_compatible.calls": n("is_compatible"),
        "tableaux.enumerate_ssyt.self_s": self_s("enumerate_ssyt"),
        "tableaux.enumerate_ssyt.tableaux": counts.get("ssyt.tableaux", 0),
        "tableaux.chain.calls": n(*chain),
        "tableaux.chain.self_s": self_s(*chain),
        "tableaux.chain.cache_hit_ratio": hit_ratio(*chain),
        "tableaux.is_standard.self_s": self_s("is_standard"),
        "tableaux.standard_ratio": ratio(counts.get("is_standard.true", 0), n("is_standard")),
        "polytope.matrices.self_s": self_s("restricted_map_matrix", "segre_matrix"),
        "polytope.build.self_s": self_s("polytope"),
        "polytope.columns": counts.get("polytope.columns", 0),
        "polytope.distinct_points": counts.get("polytope.distinct_points", 0),
        "polytope.dedupe_ratio": ratio(counts.get("polytope.distinct_points", 0), counts.get("polytope.columns", 0)),
        "polytope.affine_rank.self_s": self_s("affine_rank"),
        "polytope.lattice.self_s": self_s("lattice_points"),
        "polytope.lattice.box_points": counts.get("lattice.box_points", 0),
        "polytope.lattice.hit_ratio": ratio(counts.get("lattice.points", 0), counts.get("lattice.box_points", 0)),
        "polytope.render.self_s": self_s("render"),
        "polytope.render.bytes": counts.get("render.bytes", 0),
        "cli.startup_s": scale(statistics.median(startups), clock.nominal_s, ref_s) if startups else 0.0,
        "cli.stdout_bytes": sum(r.stdout_bytes for r in requests),
        "cli.deadline_kills": sum(r.killed for r in requests),
        "bench.ref_s": ref_s,
        "bench.trace_overhead": overhead,
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_s"] = p50(command)
    return {name: m[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        inputs.check_program()
    except inputs.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    clock = RefClock(load_baseline()["ref_nominal_s"])
    clock.sample()
    run = traced_run if args.trace else untraced_run
    attempted, failed, wrong, metrics = run(args.workload, args.seed, args.seconds, clock)
    print(f"reference kernel: median {clock.median():.6g} s over {len(clock.samples)} samples, "
          f"nominal {clock.nominal_s:.6g} s")
    for problem in wrong[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
