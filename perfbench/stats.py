"""Percentiles used by the benchmark's metrics."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; with fewer samples the highest supported one is used.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated linearly between order statistics."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = q / 100.0 * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def supported_percentile(n: int, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile up to ``q`` with ``min_beyond`` samples above it.

    With linear interpolation the ``q``-th percentile of ``n`` samples sits
    between order statistics ``floor(pos)`` and ``floor(pos) + 1`` where
    ``pos = q/100 * (n - 1)``; the samples beyond it are those ranked above
    ``floor(pos)``.  It never goes below the median: when even the median
    lacks ``min_beyond`` samples above it, the median is used.
    """
    if n < min_beyond + 2:
        return 50.0
    if n - 1 - math.floor(q / 100.0 * (n - 1)) >= min_beyond:
        return q
    return max(50.0, 100.0 * (n - 1 - min_beyond) / (n - 1))


def tail(samples: Sequence[float], q: float) -> Tuple[float, float]:
    """``(value, percentile used)`` for the tail percentile nearest ``q``."""
    used = supported_percentile(len(samples), q)
    return percentile(samples, used), used
