"""Arithmetic the benchmark reports with: percentiles, tails, failures, SLOs.

Everything here is pure (lists of numbers in, numbers out) so that
``selftest.py`` can pin each rule on synthetic inputs.
"""

from __future__ import annotations

import math
import resource
import statistics

import numpy as np

#: Percentiles a tail may be reported at, lowest first.  A coarse ladder
#: keeps the chosen percentile from flipping between runs whose sample
#: counts differ by a few requests.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile counts as a tail only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Points of the grid on which :func:`hd_percentile` integrates.
_HD_GRID = 100_000


def hd_percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of a percentile (``pct`` in [0, 100]).

    A mean of every order statistic, weighted by how likely each is to
    be the percentile: the weight of the ``i``-th of ``n`` is the mass
    of Beta(p(n+1), (1-p)(n+1)) between ``(i-1)/n`` and ``i/n``.  An
    interpolation between the two samples next to the percentile jumps
    when the percentile sits in a gap of the distribution, as it does
    when a fixed pool of requests, answered two at a time, yields a few
    dozen distinct latencies; this estimate moves smoothly instead.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    if not count:
        raise ValueError("percentile of no samples")
    if count == 1:
        return float(ordered[0])
    p = min(max(pct / 100.0, 0.0), 1.0)
    a, b = p * (count + 1), (1.0 - p) * (count + 1)
    x = (np.arange(_HD_GRID) + 0.5) / _HD_GRID
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(count + 1) / count,
                      np.linspace(0.0, 1.0, _HD_GRID + 1), cdf)
    return float(np.diff(edges) @ ordered)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond.

    With fewer than ``2 * TAIL_MIN_BEYOND`` samples no percentile
    qualifies and the median is used, so the tail never claims a
    precision the sample cannot support.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # Round away float noise: 100 samples have exactly 10 beyond p90.
        if round(count * (100.0 - pct) / 100.0, 9) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen


def latency_summary(latencies_ms) -> dict[str, float]:
    """Median, tail, the tail's percentile and the sample count.

    Both latencies are Harrell-Davis estimates (:func:`hd_percentile`).
    """
    samples = list(latencies_ms)
    pct = tail_percentile(len(samples))
    return {
        "p50_ms": hd_percentile(samples, 50.0),
        "tail_ms": hd_percentile(samples, pct),
        "tail_pct": pct,
        "samples": len(samples),
    }


class Ledger:
    """Counts attempted operations and the ones that failed.

    A failure is an error, a refusal, a hang, a non-``model`` response
    or a correctness mismatch; each is recorded with its reason so a
    failed run says why.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def mismatch(self, reason: str) -> None:
        """A checked output that was already counted as attempted."""
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def success_rate(self) -> float:
        return 1.0 - self.fail_rate


def backlog_growing(due_s, latencies_ms, limit_ms: float) -> bool:
    """Whether latency climbed through a rung, i.e. the queue kept growing.

    Compares the median latency of the last quarter of requests (by due
    time) with that of the first quarter.  A system keeping up shows the
    same latency throughout; one falling behind adds queueing delay to
    every later request.  A rise of more than half the latency limit
    counts as a growing backlog.
    """
    pairs = sorted(zip(due_s, latencies_ms))
    if len(pairs) < 8:
        return False
    quarter = len(pairs) // 4
    first = statistics.median(lat for _, lat in pairs[:quarter])
    last = statistics.median(lat for _, lat in pairs[-quarter:])
    return last - first > 0.5 * limit_ms


def slo_rate(rungs, limit_ms: float) -> float:
    """Achieved rate of the highest rung that met the latency limit.

    ``rungs`` holds one dict per ladder rate with ``offered_qps``,
    ``achieved_qps``, ``tail_ms``, ``backlog`` and ``failed``.  A rung
    meets the limit when its tail is within it, its backlog did not
    grow and no request failed (a failed request misses any limit).
    Returns 0.0 when no rung qualifies.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["offered_qps"]):
        if rung["tail_ms"] <= limit_ms and not rung["backlog"] \
                and rung["failed"] == 0:
            best = rung["achieved_qps"]
    return best


def goodput(latencies_ms, elapsed_s: float, limit_ms: float) -> float:
    """Operations per second that completed within ``limit_ms``."""
    return sum(1 for lat in latencies_ms if lat <= limit_ms) / elapsed_s


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
