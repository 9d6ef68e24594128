"""Measurement arithmetic shared by the workloads: percentiles with
their sample-count rule, failure fractions, process resource usage."""

from __future__ import annotations

import math
import os
import resource

# A tail percentile is reported only with at least this many samples
# strictly beyond it; with fewer, the highest percentile they support.
MIN_BEYOND = 10


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(
    samples: list[float], q: float = 0.99, min_beyond: int = MIN_BEYOND
) -> tuple[float, float]:
    """``(value, quantile used)``: the ``q`` quantile when at least
    ``min_beyond`` samples lie beyond its rank, else the highest
    quantile that still leaves ``min_beyond`` beyond it (the median
    when even that is out of reach)."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = math.ceil(q * n)
    if n - rank < min_beyond:
        rank = max(n - min_beyond, math.ceil(n / 2))
    used = rank / n
    return sorted(samples)[rank - 1], used


def failed_frac(offered: int, absorbed: int) -> float:
    """Records not absorbed as a share of records offered."""
    if offered <= 0:
        raise ValueError("nothing was offered")
    if absorbed < 0:
        raise ValueError("absorbed count cannot be negative")
    return max(offered - absorbed, 0) / offered


def cpu_seconds() -> float:
    """User plus system CPU time of this process and every child it
    has reaped (children count their own reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped
    descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def n_cpus() -> int:
    return len(os.sched_getaffinity(0))
