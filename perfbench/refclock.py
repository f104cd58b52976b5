"""Reference-speed timing.

On a small shared machine the same code runs at visibly different speeds
from one minute to the next, so raw seconds compare badly across runs.  The
benchmark therefore times a fixed pure-Python kernel, interleaved with the
measured work, and reports every timing in reference-speed seconds:

    t_ref = t_raw * ref_nominal_s / ref_local_s

where ``ref_local_s`` is the median of the kernel samples taken around the
measured stretch and ``ref_nominal_s`` is a constant stored in
``perfbench/baseline.json``.  The kernel imports nothing from the program
under test, so no change to the program can change it.
"""

from __future__ import annotations

import itertools
import statistics
import time

_PERMS6 = tuple(itertools.permutations(range(6)))

#: Inversions summed over S_6: 6! * C(6, 2) / 2.
REFERENCE_RESULT = 5400

#: Seconds between reference samples at most, while work is going on.
INTERVAL_S = 0.1


def reference_kernel() -> int:
    """Count the inversions of every permutation of S_6 with plain loops.

    About a millisecond, so samples can be frequent enough to follow the
    sub-second bursts of slowness seen on shared machines.  Allocates no
    container objects, so the garbage collector of a process with a large
    heap does not disturb it.
    """
    total = 0
    for p in _PERMS6:
        for i in range(5):
            a = p[i]
            for j in range(i + 1, 6):
                if a > p[j]:
                    total += 1
    return total


class RefClock:
    """Reference samples interleaved with measured work.

    Work is timed in stretches: stretch ``k`` is the time between sample
    ``k - 1`` and sample ``k``.  :meth:`stretch` names the stretch a unit
    of work falls in, and :meth:`normalize` converts its raw duration with
    the samples closest to that stretch.
    """

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Record the median of three back-to-back kernel runs."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = reference_kernel()
            runs.append(time.perf_counter() - t0)
            if result != REFERENCE_RESULT:
                raise RuntimeError(f"reference kernel returned {result}")
        self.samples.append(statistics.median(runs))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Take a sample if the last one is older than the interval."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def stretch(self) -> int:
        return len(self.samples)

    def local(self, k: int) -> float:
        """Median of the samples bracketing stretch ``k`` (two on each side)."""
        window = self.samples[max(0, k - 2) : k + 2]
        if not window:
            raise RuntimeError("no reference sample taken yet")
        return statistics.median(window)

    def normalize(self, raw_s: float, k: int) -> float:
        return scale(raw_s, self.nominal_s, self.local(k))

    def median(self) -> float:
        return statistics.median(self.samples)


def scale(raw_s: float, nominal_s: float, local_s: float) -> float:
    """Reference-speed seconds of a raw duration measured at local speed."""
    return raw_s * nominal_s / local_s
