"""Summary statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile).  The value is the order statistic with
    exactly `beyond` samples after it in sorted order; the percentile is the
    share of samples at or below it, in percent.
    """
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
