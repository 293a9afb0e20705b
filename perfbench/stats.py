"""Percentiles used by the benchmark's reports."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

MIN_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` of the nearest-rank ``q``-th percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def percentile(values: list[float], q: float) -> float:
    return nearest_rank(values, q)[0]


def supported_tail(values: list[float]) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if values and nearest_rank(values, q)[1] >= MIN_BEYOND:
            return q
    return None

