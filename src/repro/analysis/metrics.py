"""Bandwidth meters and latency summaries."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

from repro.obs.stats import exact_percentile, mean
from repro.sim.monitor import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["BandwidthMeter", "summarize_latencies"]


class BandwidthMeter:
    """Records byte completions and reports windowed rates."""

    def __init__(self, engine: "Engine", name: str = "bw") -> None:
        self.engine = engine
        self.series = TimeSeries(name)
        self._started = engine.now

    def record(self, nbytes: float) -> None:
        self.series.record(self.engine.now, nbytes)

    @property
    def total_bytes(self) -> float:
        return float(self.series.values.sum()) if len(self.series) else 0.0

    def gbps(self, since: float = 0.0) -> float:
        """Average rate in Gbps from ``since`` until now."""
        span = self.engine.now - max(since, self._started)
        if span <= 0:
            return 0.0
        times = self.series.times
        mask = times >= since
        return float(self.series.values[mask].sum() * 8.0 / span / 1e9)


def summarize_latencies(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p90 / p99 / max of a latency sample, in microseconds."""
    if len(latencies_s) == 0:
        return {k: float("nan") for k in ("mean", "p50", "p90", "p99", "max")}
    us = [v * 1e6 for v in latencies_s]
    return {
        "mean": mean(us),
        "p50": exact_percentile(us, 50),
        "p90": exact_percentile(us, 90),
        "p99": exact_percentile(us, 99),
        "max": float(max(us)),
    }
