"""Arithmetic of the benchmark: percentiles, the steady window, FIFO-crossing
lag, the busy/idle tail split and the longest send starvation.

Every function takes plain lists so it can be unit-tested on hand-made
series (perfbench/tests/test_analysis.py). Times are in nanoseconds unless a
name says otherwise.
"""

import math

# A reported percentile needs at least this many samples above its rank.
MIN_BEYOND = 10


class InsufficientSamples(Exception):
    """A percentile was asked of too few samples to be trusted."""


def median(values):
    xs = sorted(values)
    if not xs:
        raise InsufficientSamples("median of no samples")
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q <= 100) of `values`.

    Returns (value, n, beyond): the sample at rank ceil(q/100 * n), the
    sample count and how many samples lie above that rank.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise InsufficientSamples("percentile of no samples")
    rank = min(n, max(1, math.ceil(q * n / 100.0)))
    return xs[rank - 1], n, n - rank


def checked_percentile(values, q, name):
    """percentile() that refuses to report a rank with < MIN_BEYOND samples
    beyond it."""
    value, n, beyond = percentile(values, q) if values else (0, 0, 0)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"{name}: p{q:g} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return value


def crossing_time(times, counts, k):
    """Earliest time a nondecreasing sampled count reaches `k`, linearly
    interpolated between the two samples around the crossing. None when the
    series never reaches k."""
    prev_t, prev_c = None, None
    for t, c in zip(times, counts):
        if c >= k:
            if prev_c is None or c == prev_c:
                return t
            frac = (k - prev_c) / (c - prev_c)
            return prev_t + frac * (t - prev_t)
        prev_t, prev_c = t, c
    return None


def steady_window(times, counts, lo=0.1, hi=0.9):
    """Cut the warm-up and the drain off a cumulative count series: the
    window runs from the time the count crossed lo*final to the time it
    crossed hi*final. Returns (t_start, t_end, rate_per_ns) or None when the
    series is empty or flat."""
    if not counts or counts[-1] <= 0:
        return None
    final = counts[-1]
    t0 = crossing_time(times, counts, lo * final)
    t1 = crossing_time(times, counts, hi * final)
    if t0 is None or t1 is None or t1 <= t0:
        return None
    return t0, t1, (hi - lo) * final / (t1 - t0)


def fifo_lags(times, sent, delivered):
    """FIFO crossing time of one direction of a link: when the k-th frame was
    delivered on the receiving side versus when the k-th was sent on the
    sending side, both read from counters sampled at `times`. One lag per
    sample at which the delivered count rose (k = the new count); negative
    values from sampling skew clamp to 0."""
    lags = []
    j = 0  # first sample with sent[j] >= k; k only grows
    for i in range(1, len(times)):
        k = delivered[i]
        if k <= delivered[i - 1]:
            continue
        t_deliver = crossing_time(times[i - 1:i + 1],
                                  delivered[i - 1:i + 1], k)
        while j < len(sent) and sent[j] < k:
            j += 1
        if j == len(sent):
            break
        lo = max(0, j - 1)
        t_send = crossing_time(times[lo:j + 1], sent[lo:j + 1], k)
        lags.append(max(0.0, t_deliver - t_send))
    return lags


def tail_split(cpu_times, cpu_seconds, t_start, t_end, busy_cores=0.5):
    """Split [t_start, t_end] into busy and idle time by the process CPU rate
    between consecutive samples: an interval is busy when the process used
    more than `busy_cores` cores in it. Time outside the sampled range counts
    as idle. Returns (busy_ns, idle_ns)."""
    busy = 0.0
    for i in range(1, len(cpu_times)):
        a, b = cpu_times[i - 1], cpu_times[i]
        lo, hi = max(a, t_start), min(b, t_end)
        if hi <= lo or b <= a:
            continue
        rate = (cpu_seconds[i] - cpu_seconds[i - 1]) * 1e9 / (b - a)
        if rate > busy_cores:
            busy += hi - lo
    total = max(0.0, t_end - t_start)
    return busy, total - busy


def longest_starvation(times, sent, final):
    """Longest interval in which a node with unsent work (its sent count
    still below `final`) sent nothing: the time between consecutive changes
    of the sampled sent count, while the count is below final."""
    if not times:
        return 0.0
    longest = 0.0
    since = times[0]
    for i in range(1, len(times)):
        if sent[i] != sent[i - 1]:
            if sent[i - 1] < final:
                longest = max(longest, times[i] - since)
            since = times[i]
    if sent[-1] < final:
        longest = max(longest, times[-1] - since)
    return longest
