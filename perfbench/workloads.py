"""The three workloads, each a closed loop with one client.

``sweep``
    The research sweep: ``classify_all`` at n = 4, 5 in both orders (full
    witness reports), then a seeded sample of comparable S_6 pairs
    classified with early-exit ``is_monomial_free`` plus ``in_Tn``.  One
    operation is one comparable pair.  Latency samples are the S_6 pairs,
    the only operations timed one by one.
``pair-study``
    A research script looping in one process over seeded comparable pairs
    at n = 4..6 in mixed orders: tableau, standard-monomial and Hilbert
    counts for every degree up to ``PAIR_DEGREE[n]``, and for n <= 5 the
    polytope, its lattice points and the A/S/AS rendering.  One operation
    is one pair.  Chain caches persist across pairs, as for a real user.
``cli-cold``
    A researcher at the terminal: every request is a fresh ``python -m richtoric``
    process, so each pays for the interpreter, the import and cold caches.
    One operation is one request.

A phase does a fixed amount of work, decided before it starts: whole
rounds (sweep, cli-cold) or whole passes over the pool (pair-study), as
many as take ``--seconds`` reference-speed seconds at the commit that
defined the benchmark (see :class:`Plan`).  So how many operations a run
makes, and with it which tail percentile it reports, depends neither on
the machine's speed nor on the program's.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from inputs import BENCH_DIR, ORDERS, ROOT, perm_text, perm_tuple, program_env

#: S_6 pairs classified per sweep round, after the S_4 and S_5 sweeps.
SWEEP_BLOCK = 500

#: Highest degree studied per n in pair-study (n = 6 stops at 2: degree 3
#: on large S_6 intervals takes seconds per pair).
PAIR_DEGREE = {4: 3, 5: 3, 6: 2}

#: Pairs per n in one pair-study pool.
PAIRS_PER_N = 40

#: Wall-clock deadline of one CLI request, several times the slowest
#: request of the catalogue, so only a hanging request reaches it.
DEADLINE_S = 6.0

#: Fresh set-ups timed per run; setup_s is their median.
SETUP_REPEATS = {"sweep": 9, "cli-cold": 9, "pair-study": 3}

#: A phase stops early after this many times ``--seconds`` of wall time,
#: so a run of a much slower program still ends in bounded time.
WALL_CAP = 3.0


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Plan:
    """The fixed work of one phase: ``rounds`` rounds, stopped early only
    after ``wall_s`` seconds of wall time (with a warning on stderr).

    ``rounds`` comes from :func:`rounds_for`, never from how fast the work
    goes, so a faster or slower program makes the same operations.
    """

    rounds: int
    wall_s: float

    def __iter__(self):
        start = time.perf_counter()
        for r in range(self.rounds):
            if r and time.perf_counter() - start > self.wall_s:
                print(f"warning: phase stopped at the {self.wall_s:g} s wall-clock cap "
                      f"after {r} of {self.rounds} rounds", file=sys.stderr)
                return
            yield r


def rounds_for(seconds: float, round_ref_s: float) -> int:
    """Rounds that take ``seconds`` at ``round_ref_s`` reference seconds each."""
    return max(1, round(seconds / round_ref_s))


class Tally:
    """Timed units of work of one phase, converted to reference speed at the end.

    A unit is one operation, or a batch of operations timed together.
    Units remember their reference stretch, because the samples that
    bracket a stretch are only all known once the phase has ended.
    """

    def __init__(self, clock):
        self.clock = clock
        self.units: list[tuple] = []  # (raw_s, stretch, ops, failed, latency sample?, fixed_s)
        self.wrong: list[str] = []

    def add(self, raw_s, stretch, ops=1, failed=0, wrong=None, sample=True, fixed_s=None):
        """Record a unit.

        ``fixed_s`` is the unit's reference-speed time when it is not
        measured work, such as a wall-clock deadline that a killed request
        ran into: the deadline does not scale with the machine's speed.
        """
        self.units.append((raw_s, stretch, ops, failed, sample, fixed_s))
        if wrong:
            self.wrong.append(wrong)

    def _ref_s(self, unit) -> float:
        return unit[5] if unit[5] is not None else self.clock.normalize(unit[0], unit[1])

    @property
    def attempted(self) -> int:
        return sum(u[2] for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u[3] for u in self.units)

    def busy_s(self) -> float:
        return sum(self._ref_s(u) for u in self.units)

    def busy_raw_s(self) -> float:
        return sum(u[0] for u in self.units)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.busy_s()

    def throughput_raw(self) -> float:
        return (self.attempted - self.failed) / self.busy_raw_s()

    def latencies(self) -> list[float]:
        return [self._ref_s(u) for u in self.units if u[4]]

    def raw_latencies(self) -> list[float]:
        return [u[0] for u in self.units if u[4]]


def _op(tracer, kind):
    """Start a new operation of the given kind in the trace, if tracing."""
    if tracer is not None:
        tracer.op += 1
        tracer.kind = kind


@contextlib.contextmanager
def one_cpu():
    """Keep this process and the children it starts on one CPU.

    Children do the measured work while this process takes the reference
    samples; on one CPU the samples time the CPU that does the work.
    Children inherit the affinity.  In-process work is not pinned, so the
    scheduler can move it away from a busy CPU.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# ---------------------------------------------------------------------------
# set-up


def warm_up(rt, workload: str) -> None:
    """The public calls a user makes before the first timed operation."""
    if workload == "sweep":
        for n in (4, 5, 6):
            for order in rt.TermOrder:
                rt.degree2_kernel_generators(n, order)
    elif workload == "pair-study":
        # the full interval's tableaux include every tableau of that degree,
        # so this fills the chain caches every later pair of that n uses
        for n, d in PAIR_DEGREE.items():
            rt.count_standard(rt.identity(n), rt.longest(n), d)


def measure_setup(workload: str, clock) -> list[tuple[float, int]]:
    """Raw set-up seconds of fresh interpreters, with their reference stretch.

    ``cli-cold`` times a whole interpreter that only imports ``richtoric.cli``;
    the other workloads time, inside the child, the import plus ``warm_up``.
    """
    env = program_env()
    out = []
    with one_cpu():
        for _ in range(SETUP_REPEATS[workload]):
            clock.sample()
            stretch = clock.stretch()
            if workload == "cli-cold":
                result = run_cli([sys.executable, "-c", "import richtoric.cli"], env, DEADLINE_S)
            else:
                result = run_cli([sys.executable, str(BENCH_DIR / "child.py"), "setup", workload], env, 60.0)
            if result.exit != 0:
                raise RuntimeError(f"set-up of {workload} failed: {result.stderr.decode(errors='replace')[-2000:]}")
            out.append((result.elapsed if workload == "cli-cold" else float(result.stdout), stretch))
        clock.sample()
    return out


# ---------------------------------------------------------------------------
# sweep


def verdict_digest(records) -> str:
    """Digest of a classification, independent of the program's CSV writer."""
    return sha256(
        "\n".join(
            f"{perm_text(r.v)},{perm_text(r.w)},{int(r.monomial_free)},{r.num_witnesses}"
            for r in records
        )
    )


def sweep_phase(rt, clock, plan, pairs, expected, tracer=None) -> Tally:
    tally = Tally(clock)
    orders = {o.value: o for o in rt.TermOrder}
    diagonal = orders["diagonal"]
    for _ in plan:
        for n in (4, 5):
            for order in ORDERS:
                want = expected["classify"][f"{n}/{order}"]
                clock.maybe_sample()
                stretch = clock.stretch()
                _op(tracer, f"classify_all n={n} {order}")
                t0 = time.perf_counter()
                records = rt.classify_all(n, orders[order])
                if order == "diagonal":
                    mismatched = [r for r in records if r.monomial_free != rt.in_Tn(r.v, r.w)]
                elif n == 4:
                    table1 = rt.compare_with_table1([(r.v, r.w) for r in records if r.monomial_free])
                raw = time.perf_counter() - t0
                problems = []
                if verdict_digest(records) != want["digest"]:
                    problems.append("verdicts differ from the seed's")
                if sum(r.monomial_free for r in records) != want["monomial_free"]:
                    problems.append("monomial-free count differs from the seed's")
                if order == "diagonal" and mismatched:
                    problems.append(f"{len(mismatched)} verdicts disagree with in_Tn")
                if order == "antidiagonal" and n == 4 and (
                    len(table1.covered) != expected["table1_rows"] or table1.missing
                ):
                    problems.append(f"table1 coverage {len(table1.covered)}, missing {len(table1.missing)}")
                tally.add(
                    raw,
                    stretch,
                    ops=len(records),
                    failed=len(records) if problems else 0,
                    wrong=f"classify n={n} {order}: {'; '.join(problems)}" if problems else None,
                    sample=False,
                )
        for v, w in pairs:
            clock.maybe_sample()
            stretch = clock.stretch()
            _op(tracer, "S_6 pair")
            t0 = time.perf_counter()
            free = rt.is_monomial_free(v, w, diagonal)
            family = rt.in_Tn(v, w)
            raw = time.perf_counter() - t0
            bad = free != family
            wrong = f"S_6 pair {v} {w}: monomial-free {free}, in T_6 {family}" if bad else None
            tally.add(raw, stretch, failed=int(bad), wrong=wrong)
    clock.sample()
    return tally


# ---------------------------------------------------------------------------
# pair-study


def pair_outputs(rt, entry) -> dict:
    """The program's answers for one pair-study pair (the timed part)."""
    v, w = perm_tuple(entry["v"]), perm_tuple(entry["w"])
    order = rt.TermOrder(entry["order"])
    n = len(v)
    out = {"ssyt": [], "standard": [], "hilbert": []}
    for d in range(1, PAIR_DEGREE[n] + 1):
        out["ssyt"].append(len(rt.enumerate_ssyt(v, w, d)))
        out["standard"].append(rt.count_standard(v, w, d))
        out["hilbert"].append(rt.kernel_hilbert_dim(v, w, d, order))
    if n <= 5:
        poly = rt.polytope(v, w, order)
        try:
            lattice = rt.lattice_points(poly)
        except (ValueError, rt.BudgetError) as exc:  # documented refusals
            lattice = type(exc).__name__
        a = rt.restricted_map_matrix(v, w, order)
        s = rt.segre_matrix(v, w)
        text = "\n".join((a.text("A"), s.text("S"), a.mul(s).text("AS")))
        out["polytope"] = (poly, lattice, text)
    return out


def pair_summary(outputs) -> dict:
    """Comparable form of :func:`pair_outputs`, as stored in the catalogue."""
    summary = {k: outputs[k] for k in ("ssyt", "standard", "hilbert")}
    if "polytope" in outputs:
        poly, lattice, text = outputs["polytope"]
        summary["polytope"] = {
            "columns": sum(len(g) for g in poly.point_labels),
            "points": len(poly.points),
            "points_sha256": sha256(repr(tuple(map(tuple, poly.points)))),
            "affine_dim": poly.affine_dim,
            "lattice": lattice if isinstance(lattice, str) else len(lattice),
            "render_sha256": sha256(text),
        }
    return summary


def pair_problems(entry, outputs) -> list[str]:
    summary = pair_summary(outputs)
    problems = []
    if summary != entry["values"]:
        problems.append("values differ from the seed's")
    if entry["in_family"] and entry["order"] == "diagonal":
        for d, counts in enumerate(zip(summary["ssyt"], summary["standard"], summary["hilbert"]), 1):
            if len(set(counts)) != 1:
                problems.append(f"d={d}: ssyt/standard/hilbert {counts} differ on a T_n pair")
    if "polytope" in outputs:
        poly, lattice, _ = outputs["polytope"]
        if not isinstance(lattice, str) and not set(map(tuple, poly.points)) <= set(map(tuple, lattice)):
            problems.append("polytope points outside its lattice points")
    return problems


def pair_phase(rt, clock, plan, pool, tracer=None) -> Tally:
    """Passes over ``pool``; a round of ``plan`` is one pair, so the wall
    cap can stop a phase within a pass."""
    tally = Tally(clock)
    for i in plan:
        entry = pool[i % len(pool)]
        clock.maybe_sample()
        stretch = clock.stretch()
        _op(tracer, f"pair n={len(entry['v'])}")
        t0 = time.perf_counter()
        outputs = pair_outputs(rt, entry)
        raw = time.perf_counter() - t0
        problems = pair_problems(entry, outputs)
        wrong = f"pair {entry['v']} {entry['w']} {entry['order']}: {'; '.join(problems)}" if problems else None
        tally.add(raw, stretch, failed=int(bool(problems)), wrong=wrong)
    clock.sample()
    return tally


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class CliResult:
    exit: int | None  # None when killed at the deadline
    stdout: bytes
    stderr: bytes
    elapsed: float
    maxrss_kb: int


def run_cli(cmd, env, deadline_s) -> CliResult:
    """Run one child to completion or to its deadline, then reap it.

    The child is waited for without reaping first, so the deadline can
    never signal a reaped (and possibly reused) process id.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    streams = {}

    def drain(name, stream):
        streams[name] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for r in readers:
        r.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(deadline_s, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        elapsed = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    killed = state["killed"] and os.WIFSIGNALED(status)
    return CliResult(
        None if killed else proc.returncode, streams["out"], streams["err"], elapsed, usage.ru_maxrss
    )


_VERIFY_TIMES = re.compile(rb"\d+\.\d+s\b")


def request_kind(argv) -> str:
    """``check n=8``, ``classify n=5``, ``verify``: a request's command and size."""
    for flag in ("--v", "--n"):
        if flag in argv:
            value = argv[argv.index(flag) + 1]
            return f"{argv[0]} n={len(value) if flag == '--v' else value}"
    return argv[0]


def canonical_stdout(argv, stdout: bytes) -> bytes:
    """Stdout with run-dependent parts removed: ``verify`` prints its timings."""
    if argv[0] == "verify":
        return _VERIFY_TIMES.sub(b"<t>s", stdout)
    return stdout


def cli_problem(slot, entry, result: CliResult) -> str | None:
    """What is wrong with a completed request's answer, or None."""
    if result.exit is None:
        return None  # killed at the deadline: failed, not a wrong answer
    if slot == "hang":
        # unknown at the seed commit, which never finished it; a finished
        # run or a documented refusal (exit 2 with an error line) is accepted
        if result.exit == 0 or (result.exit == 2 and b"error:" in result.stderr):
            return None
        return f"{' '.join(entry['argv'])}: exit {result.exit}"
    if result.exit != entry["exit"]:
        return f"{' '.join(entry['argv'])}: exit {result.exit}, seed gave {entry['exit']}"
    if sha256(canonical_stdout(entry["argv"], result.stdout)) != entry["sha256"]:
        return f"{' '.join(entry['argv'])}: stdout differs from the seed's"
    return None


@dataclass
class CliRequest:
    kind: str
    command: str
    raw_s: float
    stretch: int
    killed: bool
    stdout_bytes: int
    maxrss_kb: int


def cli_phase(clock, plan, rounds, traced=False) -> tuple[Tally, list[CliRequest]]:
    """The planned number of rounds of requests, taken from ``rounds``.

    A request killed at the deadline counts as busy for the deadline, in
    reference seconds as it stands.
    """
    env = program_env()
    tally = Tally(clock)
    requests = []
    with one_cpu():
        for _ in plan:
            run_round(clock, tally, requests, next(rounds), env, traced)
        clock.sample()
    return tally, requests


def run_round(clock, tally, requests, round_, env, traced) -> None:
    """Send one round of requests, one after another."""
    for slot, entry in round_:
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", *entry["argv"]]
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        else:
            cmd = [sys.executable, "-m", "richtoric", *entry["argv"]]
        clock.maybe_sample()
        stretch = clock.stretch()
        result = run_cli(cmd, env, DEADLINE_S)
        killed = result.exit is None
        problem = cli_problem(slot, entry, result)
        tally.add(
            result.elapsed,
            stretch,
            failed=int(killed or problem is not None),
            wrong=problem,
            fixed_s=DEADLINE_S if killed else None,
        )
        requests.append(
            CliRequest(
                request_kind(entry["argv"]),
                entry["argv"][0],
                result.elapsed,
                stretch,
                killed,
                len(result.stdout),
                result.maxrss_kb,
            )
        )
