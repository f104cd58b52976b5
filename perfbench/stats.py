"""Order statistics used by every workload."""

from __future__ import annotations

import statistics

#: Candidate tail percentiles, in hundredths of a percent.
TAIL_LADDER = (7500, 9000, 9500, 9900, 9990, 9999)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p_bp: int) -> float:
    """Nearest-rank percentile; ``p_bp`` is in hundredths of a percent."""
    ordered = sorted(values)
    rank = max(1, -(-p_bp * len(ordered) // 10000))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With fewer than 40 samples no ladder
    rung qualifies and the median stands in, reported as percentile 50.
    """
    n = len(values)
    chosen = 5000
    for p_bp in TAIL_LADDER:
        rank = -(-p_bp * n // 10000)
        if n - rank >= TAIL_MIN_BEYOND:
            chosen = p_bp
    return chosen / 100, percentile(values, chosen)


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2
