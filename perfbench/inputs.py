"""Locating the program, and the seeded inputs of every workload.

Inputs come from ``--seed`` alone: the same seed gives the same inputs.
Pairs are drawn with the benchmark's own Bruhat test, so the inputs do not
depend on the code under test.  Where the expected answers must come from
the seed commit (pair-study values, CLI output hashes), the seed draws from
the catalogues in ``perfbench/expected``, which ``record.py`` wrote.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"

ORDERS = ("diagonal", "antidiagonal")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/richtoric`` to measure."""


def check_program() -> None:
    if not (SRC / "richtoric" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'richtoric'} is missing")


def import_program():
    """Import ``richtoric`` from this checkout's ``src`` and nowhere else."""
    check_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import richtoric

    if Path(richtoric.__file__).resolve().parent != (SRC / "richtoric").resolve():
        raise MissingProgram(f"richtoric imported from {richtoric.__file__}, not {SRC}")
    return richtoric


def program_env() -> dict:
    """Environment for child interpreters that import the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.pop("RICHTORIC_OUTDIR", None)
    return env


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# permutations, independently of the program


def bruhat(v, w) -> bool:
    """Bruhat order by the tableau criterion on prefix sets."""
    for k in range(1, len(v)):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def perm_text(p) -> str:
    return "".join(map(str, p))


def perm_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


def draw_pair(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A comparable pair of S_n, by rejection from uniform pairs."""
    while True:
        v = tuple(rng.sample(range(1, n + 1), n))
        w = tuple(rng.sample(range(1, n + 1), n))
        if bruhat(v, w):
            return v, w


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# workload inputs


def sweep_pairs(seed: int, size: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The seeded sample of comparable S_6 pairs classified by ``sweep``."""
    rng = rng_for("sweep", seed)
    return [draw_pair(rng, 6) for _ in range(size)]


def cost_bands(entries: list, count: int) -> list[list]:
    """Split ``entries``, heaviest first, into ``count`` bands of about equal seed cost.

    A band takes the next entry while that brings its cost closer to its
    share, an equal part of the cost not yet banded, and leaves at least
    one entry for each later band.  So an entry heavier than a share is a
    band of its own, and lighter entries share bands of similar cost.
    Drawing one entry per band gives every seed about the same total cost,
    with the heaviest entries in every draw.  With fewer entries than
    ``count``, each entry is a band.
    """
    ordered = sorted(entries, key=lambda e: -e["seed_s"])
    remaining = sum(e["seed_s"] for e in ordered)
    bands, i = [], 0
    for left in range(min(count, len(ordered)), 0, -1):
        share = remaining / left
        band, mass = [], 0.0
        while i < len(ordered) - (left - 1) and (
            not band or left == 1 or mass + ordered[i]["seed_s"] / 2 < share
        ):
            band.append(ordered[i])
            mass += ordered[i]["seed_s"]
            i += 1
        bands.append(band)
        remaining -= mass
    return bands


def pair_pool(seed: int, catalogue: dict, bands_per_n: int) -> list[dict]:
    """The seeded pairs that ``pair-study`` loops over, in seeded order."""
    rng = rng_for("pair-study", seed)
    pool = []
    for n in sorted(catalogue["pairs"]):
        pool.extend(rng.choice(b) for b in cost_bands(catalogue["pairs"][n], bands_per_n))
    rng.shuffle(pool)
    return pool


#: Requests per round from a CLI slot, where not one.  Two ``check n=6``
#: and two ``check n=7`` requests put the median request of a run in the
#: middle of the ``check n=7`` requests, which cost about the same, not in
#: the gap between the light and the heavy requests, so ``latency_p50_s``
#: does not jump with the seed's draws.
SLOT_REPEATS = {"check6": 2, "check7": 2}


def cli_rounds(seed: int, catalogue: dict):
    """Endless rounds of CLI requests, in seeded order.

    Each slot's catalogue is split into cost bands.  A slot sends
    ``SLOT_REPEATS`` requests per round (one by default), each from its
    own seeded walk over the slot's bands: round ``r`` draws from the
    ``r``-th band of the walk.  The first round also carries the
    known-hanging request at a seeded position.
    """
    rng = rng_for("cli-cold", seed)
    walks = []
    for name, entries in sorted(catalogue["slots"].items()):
        bands = cost_bands(entries, catalogue["bands"])
        for _ in range(SLOT_REPEATS.get(name, 1)):
            order = list(range(len(bands)))
            rng.shuffle(order)
            walks.append((name, bands, order))
    for r in itertools.count():
        requests = [(name, rng.choice(bands[order[r % len(order)]])) for name, bands, order in walks]
        rng.shuffle(requests)
        if r == 0:
            requests.insert(rng.randrange(len(requests) + 1), ("hang", catalogue["hang"]))
        yield requests
