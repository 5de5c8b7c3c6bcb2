"""Order statistics for request latencies.

The tail is reported at the highest percentile of a fixed ladder that still
leaves at least TAIL_MIN_BEYOND samples strictly beyond its rank, so a tail
figure always rests on at least that many observations.
"""

from __future__ import annotations

import math
from typing import Sequence

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples.

    The product is rounded first so that, say, 99.9% of 10000 is rank 9990
    and not 9991 through floating-point error.
    """
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie past the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond it.

    Falls back to the median when even that has too few samples beyond it,
    so a tiny run still reports something rather than a made-up rank.
    """
    chosen = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if beyond(n, q) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen

