"""Order statistics for the benchmark's reported timings."""

from __future__ import annotations

import math
import statistics

# a percentile is resolved only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values, p: float) -> tuple[float, int, int]:
    """Nearest-rank p-th percentile (0 < p <= 100).

    Returns (value, sample count, samples strictly beyond the rank).  The
    value is only a resolved percentile when the last number is at least
    MIN_BEYOND; with fewer samples it is reported together with its count.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile %r outside (0, 100]" % p)
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(ordered[rank - 1]), n, n - rank


def resolved(values, p: float) -> bool:
    return percentile(values, p)[2] >= MIN_BEYOND


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
