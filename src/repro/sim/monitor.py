"""Measurement helpers: counters, event series, and time-weighted stats.

These are the building blocks for the bandwidth / CPU-utilisation /
latency-percentile meters in :mod:`repro.analysis`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.obs.stats import exact_percentile

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy loads on first use
    import numpy as np

    from repro.sim.engine import Engine

__all__ = ["Counter", "TimeSeries", "TimeWeightedStat"]


class Counter:
    """A monotonically accumulating quantity (bytes, events, drops...)."""

    __slots__ = ("name", "total", "count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.total: float = 0.0
        self.count: int = 0

    def add(self, amount: float = 1.0) -> None:
        self.total += amount
        self.count += 1

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}: total={self.total} n={self.count}>"


class TimeSeries:
    """A timestamped sequence of samples (e.g. per-block latency)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self._values)

    def mean(self) -> float:
        return float(self.values.mean()) if self._values else float("nan")

    def percentile(self, q: float) -> float:
        if not self._values:
            return float("nan")
        return exact_percentile(self._values, q)

    def rate(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Sum of values per second over ``[since, until]``."""
        if not self._values:
            return 0.0
        times = self.times
        end = until if until is not None else float(times[-1])
        span = end - since
        if span <= 0:
            return 0.0
        mask = (times >= since) & (times <= end)
        return float(self.values[mask].sum() / span)


class TimeWeightedStat:
    """Tracks the time integral of a piecewise-constant quantity.

    Used for e.g. queue occupancy and CPU busy fraction: call
    :meth:`update` whenever the level changes, then read
    :meth:`time_average` over an interval.
    """

    def __init__(self, engine: "Engine", initial: float = 0.0) -> None:
        self.engine = engine
        self._level = float(initial)
        self._last_time = engine.now
        self._integral = 0.0
        self._epoch = engine.now

    @property
    def level(self) -> float:
        return self._level

    def update(self, level: float) -> None:
        """Set a new level, accumulating the integral so far."""
        now = self.engine.now
        self._integral += self._level * (now - self._last_time)
        self._last_time = now
        self._level = float(level)

    def add(self, delta: float) -> None:
        self.update(self._level + delta)

    def integral(self) -> float:
        """Time integral of the level from the epoch until now."""
        now = self.engine.now
        return self._integral + self._level * (now - self._last_time)

    def time_average(self) -> float:
        """Average level from the epoch until now."""
        span = self.engine.now - self._epoch
        if span <= 0:
            return self._level
        return self.integral() / span

    def reset(self) -> None:
        """Restart integration from the current instant."""
        self._integral = 0.0
        self._last_time = self.engine.now
        self._epoch = self.engine.now


def snapshot_interval(stat: TimeWeightedStat) -> Tuple[float, float]:
    """Return ``(integral, span)`` since the stat's epoch (testing aid)."""
    return stat.integral(), stat.engine.now - stat._epoch
