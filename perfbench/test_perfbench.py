"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time

import pytest

import inputs
import run
import stats
import tracer
import workloads
from refclock import REFERENCE_RESULT, RefClock, reference_kernel, scale


# -- seeded inputs -------------------------------------------------------------


def first_rounds(seed, count=3):
    rounds = inputs.cli_rounds(seed, inputs.load_expected("cli"))
    return [[(slot, entry["argv"]) for slot, entry in next(rounds)] for _ in range(count)]


def test_same_seed_same_inputs():
    assert inputs.sweep_pairs(7, 300) == inputs.sweep_pairs(7, 300)
    pairs = inputs.load_expected("pairs")
    assert inputs.pair_pool(7, pairs, 20) == inputs.pair_pool(7, pairs, 20)
    assert first_rounds(7) == first_rounds(7)


def test_different_seeds_different_inputs():
    assert inputs.sweep_pairs(7, 300) != inputs.sweep_pairs(8, 300)
    pairs = inputs.load_expected("pairs")
    assert inputs.pair_pool(7, pairs, 20) != inputs.pair_pool(8, pairs, 20)
    assert first_rounds(7) != first_rounds(8)


def test_sweep_pairs_are_comparable():
    for v, w in inputs.sweep_pairs(3, 200):
        assert inputs.bruhat(v, w)


def test_own_bruhat_order_matches_the_definition_on_s4():
    # v <= w iff w is reached from v by transpositions raising the length
    perms = list(itertools.permutations(range(1, 5)))

    def length(p):
        return sum(1 for i, j in itertools.combinations(range(4), 2) if p[i] > p[j])

    above = {p: {p} for p in perms}
    for p in sorted(perms, key=length, reverse=True):
        for i, j in itertools.combinations(range(4), 2):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            q = tuple(q)
            if length(q) > length(p):
                above[p] |= above[q]
    for v in perms:
        for w in perms:
            assert inputs.bruhat(v, w) == (w in above[v])


def test_cli_rounds_cover_every_slot_and_hang_once():
    rounds = first_rounds(11, 4)
    slots = set(inputs.load_expected("cli")["slots"])
    for r, requests in enumerate(rounds):
        names = [slot for slot, _ in requests]
        assert set(names) - {"hang"} == slots
        assert names.count("hang") == (1 if r == 0 else 0)


def test_cost_bands_keep_heavy_entries_alone():
    entries = [{"seed_s": c} for c in (5.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5)]
    bands = inputs.cost_bands(entries, 5)
    assert [[e["seed_s"] for e in b] for b in bands] == [[5.0], [1.0], [1.0], [1.0], [1.0, 0.5, 0.5]]
    assert len(inputs.cost_bands(entries, 9)) == len(entries)
    assert sorted(e["seed_s"] for b in bands for e in b) == sorted(e["seed_s"] for e in entries)


# -- statistics ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, want",
    [(10, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    values = list(range(1, n + 1))
    pct, value = stats.tail(values)
    assert pct == want
    if pct > 50:
        assert sum(1 for v in values if v > value) >= stats.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 9000) == 90
    assert stats.percentile(values, 5000) == 50
    assert stats.percentile(values, 9999) == 100


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 5) == 0.0
    assert stats.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- reference-speed normalization --------------------------------------------


def test_scale():
    assert scale(2.0, 1.0, 0.5) == 4.0
    assert scale(3.0, 0.002, 0.002) == 3.0


def test_reference_kernel_result():
    assert reference_kernel() == REFERENCE_RESULT


def test_normalize_uses_samples_around_the_stretch():
    clock = RefClock(nominal_s=1.0)
    clock.samples = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert clock.local(1) == 1.0  # samples 0..2
    assert clock.local(4) == 2.0  # samples 2..5
    assert clock.normalize(4.0, 4) == 2.0  # twice as slow as nominal: halved
    assert clock.median() == 2.0


def test_tally_normalizes_each_unit_with_its_stretch():
    clock = RefClock(nominal_s=1.0)
    clock.samples = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    tally = workloads.Tally(clock)
    tally.add(2.0, 1)  # local 1.0
    tally.add(8.0, 6, ops=2, failed=1, wrong="x")  # local 4.0
    assert tally.busy_s() == 4.0
    assert tally.busy_raw_s() == 10.0
    assert tally.throughput() == (3 - 1) / 4.0
    assert tally.latencies() == [2.0, 2.0]
    assert tally.wrong == ["x"]
    tally.add(9.0, 6, failed=1, fixed_s=6.0)  # killed at a 6 s deadline
    assert tally.busy_s() == 10.0
    assert tally.latencies()[-1] == 6.0


# -- fixed work per phase --------------------------------------------------------


def test_rounds_come_from_seconds_and_recorded_cost_only():
    assert workloads.rounds_for(24, 1.97) == 12
    assert workloads.rounds_for(24, 5.93) == 4
    assert workloads.rounds_for(24, 14.1) == 2
    assert workloads.rounds_for(1, 22.7) == 1


def test_plan_stops_only_at_the_wall_cap():
    assert list(workloads.Plan(4, 60.0)) == [0, 1, 2, 3]
    assert list(workloads.Plan(4, -1.0)) == [0]  # cap already passed: the first round still runs


class Slowed:
    """The program, with every tableau enumeration made slower."""

    def __init__(self, rt, delay_s):
        self._rt, self._delay_s = rt, delay_s

    def __getattr__(self, name):
        return getattr(self._rt, name)

    def enumerate_ssyt(self, *args):
        time.sleep(self._delay_s)
        return self._rt.enumerate_ssyt(*args)


def test_program_speed_changes_neither_op_count_nor_tail_percentile():
    rt = inputs.import_program()
    pool = sorted(inputs.load_expected("pairs")["pairs"]["4"], key=lambda e: e["seed_s"])[:6]
    seen = []
    for program in (rt, Slowed(rt, 0.01)):
        clock = RefClock(nominal_s=0.0015)
        clock.sample()
        tally = workloads.pair_phase(program, clock, workloads.Plan(7 * len(pool), 60.0), pool)
        seen.append((tally.attempted, tally.failed, stats.tail(tally.latencies())[0]))
    assert seen[0] == seen[1] == (42, 0, 75.0)


# -- tracing -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    def leaf(seconds):
        work(seconds)

    def middle():
        work(1.0)
        t.call("leaf", leaf, (0.5,), {}, keep=False)  # aggregated only
        work(2.0)

    def root():
        work(1.0)
        t.call("middle", middle, (), {})
        t.call("leaf", leaf, (2.0,), {}, keep=False)
        work(0.25)

    t.call("root", root, (), {})
    assert t.self_s["root"] == pytest.approx(1.25)
    assert t.self_s["middle"] == pytest.approx(3.0)
    assert t.self_s["leaf"] == pytest.approx(2.5)
    assert t.calls == {"root": 1, "middle": 1, "leaf": 2}
    spans = {s[3]: s for s in t.spans}
    assert set(spans) == {"root", "middle"}
    assert spans["middle"][1] == spans["root"][0]  # parent id
    assert spans["root"][5] - spans["root"][4] == pytest.approx(6.75)


def test_tracer_restores_the_package():
    rt = inputs.import_program()
    from richtoric import perms, tableaux

    before = (perms.bruhat_leq, tableaux.bruhat_leq, rt.bruhat_leq, rt.IntMatrix.text)
    t = tracer.install()
    assert tableaux.bruhat_leq is not before[1]
    assert rt.bruhat_leq((1, 2, 3), (3, 2, 1))
    assert t.calls["bruhat_leq"] == 1
    t.uninstall()
    assert (perms.bruhat_leq, tableaux.bruhat_leq, rt.bruhat_leq, rt.IntMatrix.text) == before


# -- the command ---------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    with open(inputs.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_verify_timings_are_not_hashed():
    a = b"[PASS] sets                        0.01s  ok\nlevel quick: 13/13 suites passed in 0.5s\n"
    b = b"[PASS] sets                        0.02s  ok\nlevel quick: 13/13 suites passed in 0.7s\n"
    assert workloads.canonical_stdout(["verify"], a) == workloads.canonical_stdout(["verify"], b)
    assert workloads.canonical_stdout(["check"], a) == a


def test_run_cli_kills_at_the_deadline():
    result = workloads.run_cli([sys.executable, "-c", "import time; time.sleep(30)"], None, 0.3)
    assert result.exit is None
    assert result.elapsed < 5


def test_refuses_without_the_program():
    """In a directory with only the benchmark, it fails and prints no result."""
    bare = inputs.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(inputs.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(inputs.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
