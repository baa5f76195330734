"""The benchmark's arithmetic: percentiles, span self time, Wren accuracy.

Pure functions over plain lists and dicts, so test_metrics.py can check
them on hand-built inputs.
"""

import math

# Percentiles a tail metric may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# A tail percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty list (mean of the middle two for even sizes)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def _rank(n, q):
    # 1-based nearest rank; the epsilon keeps q * n / 100 from rounding up
    # past an exact integer (99.9 * 10000 / 100 is 9990.000000000002).
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest value with at least q% of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    return xs[_rank(len(xs), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n, ladder=TAIL_LADDER):
    """The highest percentile of `ladder` with at least MIN_BEYOND of n
    samples beyond it, or None when even the lowest has too few."""
    best = None
    for q in ladder:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. `spans` maps id -> dict with start_ns,
    end_ns and parent (-1 at top level). Returns id -> nanoseconds."""
    children = {}
    for sid, s in spans.items():
        if s["parent"] in spans:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in spans.items():
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(sid, []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def relative_errors(estimates, truths, window_observations):
    """|estimate - truth| / truth for every window that produced at least
    one observation and has an estimate and a positive truth. Missing
    estimates are None or NaN."""
    errors = []
    for est, truth, obs in zip(estimates, truths, window_observations):
        if obs <= 0 or est is None or math.isnan(est) or truth is None or truth <= 0:
            continue
        errors.append(abs(est - truth) / truth)
    return errors


def coverage(window_observations):
    """Share of windows with at least one observation."""
    if not window_observations:
        return 0.0
    return sum(1 for obs in window_observations if obs > 0) / len(window_observations)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    computes them: the spread the benchmark's stability rule bounds."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
