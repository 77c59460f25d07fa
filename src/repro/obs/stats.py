"""Small numpy-free statistics helpers for hot/timed paths.

``numpy.percentile`` is exact but its first call pays a lazy-import
warm-up of several milliseconds — enough to dominate a short benchmark
run when it lands inside the timed region.  These helpers reproduce numpy's
default linear-interpolation percentile in plain Python so result paths
that run inside benchmarks stay free of one-time numpy costs.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["exact_percentile", "mean"]


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0–100) with linear interpolation between order
    statistics — the same convention as ``numpy.percentile``'s default.

    Returns NaN for an empty sequence; raises :class:`ValueError` for a
    ``q`` outside [0, 100] (a silently-clamped typo like ``q=990`` would
    report the max and hide the bug).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    n = len(values)
    if n == 0:
        return float("nan")
    ordered: List[float] = sorted(values)
    if n == 1:
        return float(ordered[0])
    rank = (n - 1) * q / 100.0
    lo = int(rank)
    if lo >= n - 1:
        return float(ordered[-1])
    frac = rank - lo
    a = ordered[lo]
    return float(a + (ordered[lo + 1] - a) * frac)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for an empty sequence."""
    if not values:
        return float("nan")
    return float(sum(values) / len(values))
