"""Summary statistics for job latencies.

A tail percentile is reported only when at least ten samples lie beyond
it, so the 90th percentile needs 100 samples or more.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank q-quantile of the samples (0 < q < 1), or None when
    fewer than `min_beyond` samples lie above the chosen rank."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    rank = math.ceil(q * n)  # 1-based rank of the reported sample
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]
