"""Percentiles with an explicit tail-sample rule.

A tail percentile is only reported when at least ``MIN_TAIL`` samples
lie beyond it; otherwise the run is too short for that percentile and
the benchmark fails instead of printing a number made of a handful of
outliers.
"""

from __future__ import annotations

import statistics

MIN_TAIL = 10


class TooFewSamples(ValueError):
    """The named percentile has fewer than ``MIN_TAIL`` samples beyond it."""


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``q`` a whole number in 1..99).

    The value at rank ``ceil(q * n / 100)`` is returned; the samples
    ranked above it are the ones "beyond" the percentile, and there must
    be at least ``MIN_TAIL`` of them.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in 1..99, got {q}")
    n = len(values)
    rank = -(-q * n // 100)
    beyond = n - rank
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            f"p{q} of {n} samples has {beyond} beyond it; need {MIN_TAIL}"
        )
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)
