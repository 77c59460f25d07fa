"""Unified observability layer: metrics registry, collection hooks and
JSONL export.

Kept import-light: the engine imports this package at startup, so it
pulls in no testbed or application stack.
"""

from repro.obs.registry import (
    CallbackGauge,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs import runtime
from repro.obs.export import (
    metrics_lines,
    trace_lines,
    write_metrics_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "CallbackGauge",
    "HistogramMetric",
    "runtime",
    "metrics_lines",
    "trace_lines",
    "write_metrics_jsonl",
    "write_trace_jsonl",
]
