"""Small statistics shared by the benchmark: the tail-percentile rule, the
latency percentile estimate and a log-log slope fit."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # requests that must lie beyond the reported tail percentile
WINDOW = 2.5  # ranks on each side of a position that local_quantile averages


def tail_percentile(n: int) -> float:
    """Highest percentile of n requests with at least TAIL_BEYOND beyond it.

    The (n - 10)-th smallest of n values has exactly ten values above it, so
    it sits at the 100 (n - 10) / n percentile: 40 requests give p75, 100
    requests give p90.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} requests, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n


def local_quantile(values, position: float) -> float:
    """Mean of the sorted values whose 0-based index lies within WINDOW of
    position, which may fall between two values.

    Requests in a list differ in cost, so sorted latencies climb in steps: in
    dense_large_n neighbours near the median lie about 25% apart. Noise that
    reorders two requests moves a single order statistic by a whole step; the
    mean of five or six neighbours moves by a fraction of it.
    """
    ordered = sorted(values)
    lo = max(0, math.ceil(position - WINDOW))
    hi = min(len(ordered) - 1, math.floor(position + WINDOW))
    window = ordered[lo:hi + 1]
    return sum(window) / len(window)


def median_value(values) -> float:
    """The median, as local_quantile at the middle position."""
    values = list(values)
    return local_quantile(values, (len(values) - 1) / 2)


def tail_value(values) -> float:
    """The value at tail_percentile(len(values)): local_quantile at the
    (n - 10)-th smallest."""
    values = list(values)
    tail_percentile(len(values))  # validates the sample size
    return local_quantile(values, len(values) - TAIL_BEYOND - 1)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 below two distinct x.

    A cost that grows as x**k has slope k.
    """
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({p[0] for p in pts}) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx
