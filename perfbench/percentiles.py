"""Summary statistics for latency samples.

Percentiles use the nearest-rank definition (no interpolation), so a
reported value is always one of the measured samples. A percentile is
only reported when at least :data:`MIN_BEYOND` samples lie beyond it;
otherwise the tail it claims to describe would rest on a handful of
points.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must rank above a percentile before it is reported.
MIN_BEYOND = 10

#: Candidate percentiles for :func:`tail_percentile`, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the count of samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * p / 100.0)
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``(p, value, beyond)``. Falls back to the median when even
    the lowest rung is unsupported, so a caller always gets a figure
    together with the sample count that qualifies it.
    """
    best = None
    for p in LADDER:
        value, beyond = percentile(samples, p)
        if beyond >= MIN_BEYOND:
            best = (p, value, beyond)
    if best is None:
        value, beyond = percentile(samples, 50.0)
        best = (50.0, value, beyond)
    return best


def median(samples) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)
