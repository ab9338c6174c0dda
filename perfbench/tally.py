"""Summary statistics and failure accounting shared by the workloads.

Timings are summarised by their median and by the highest percentile that
still has at least ten samples beyond it; failed operations count as
infinitely slow, so a failure can only push a percentile up, never hide.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Percentiles considered by :func:`tail_percentile`, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_SUPPORT = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks.

    ``math.inf`` entries (failed operations) sort last, so a percentile that
    lands on a failure reads as infinite.  An empty sample reads as NaN.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high or ordered[high] == ordered[low]:
        return ordered[low]
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile (``math.inf``-aware, unlike ``statistics.median``)."""
    return percentile(values, 50.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile of :data:`TAIL_LADDER` with ten samples beyond it.

    Returns ``(q, value)``, or ``None`` when even the median has fewer than
    :data:`TAIL_SUPPORT` samples above it (fewer than 20 samples).
    """
    count = len(values)
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= TAIL_SUPPORT:
            return q, percentile(values, q)
    return None


class Tally:
    """Operations attempted and failed, by kind, with the first failure reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.reasons: list[str] = []

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        """Count ``attempted`` operations of ``kind``, ``failed`` of which failed."""
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def fail(self, kind: str, reason: str) -> None:
        """Count one more failure of an operation already counted as attempted."""
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(f"{kind}: {reason}")

    def record(self, kind: str, problems: list[str]) -> bool:
        """Count one operation of ``kind``; it failed if any check found a problem."""
        self.add(kind, 1)
        if problems:
            self.fail(kind, "; ".join(problems))
        return not problems

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())
