"""Opt-in structured tracing for simulations.

Attach a :class:`Tracer` to an engine (``engine.tracer = Tracer(...)``)
and instrumented components (queue pairs, control channels, the credit
ledger, the TCP bottleneck) emit timestamped records.  Tracing is off by
default and costs one attribute check per event when disabled.

Example
-------
>>> from repro.sim.trace import Tracer
>>> tb.engine.tracer = Tracer(categories={"qp", "credits"})
>>> ...run...
>>> for rec in tb.engine.tracer.query(category="credits"):
...     print(rec)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, Optional, Set, Tuple

__all__ = ["Tracer", "TraceRecord"]

#: One retained event as the ring stores it: time, category, message, fields.
Row = Tuple[float, str, str, Dict[str, Any]]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time * 1e3:12.6f}ms] {self.category:10s} {self.message} {extras}"


class Tracer:
    """A bounded in-memory trace buffer with category filtering.

    Parameters
    ----------
    categories:
        Only events in these categories are recorded (``None`` = all).
    capacity:
        Ring-buffer size; oldest records are dropped first.
    """

    def __init__(
        self,
        categories: Optional[Set[str]] = None,
        capacity: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.categories = set(categories) if categories is not None else None
        #: :meth:`query` wraps the rows a caller asks for in
        #: :class:`TraceRecord`; nothing is built per emit.
        self._records: Deque[Row] = deque(maxlen=capacity)
        self.dropped = 0
        self.emitted = 0

    @property
    def capacity(self) -> int:
        """Ring size — read from the deque so there is exactly one
        source of truth and the drop detector can never desync."""
        maxlen = self._records.maxlen
        assert maxlen is not None
        return maxlen

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def emit(self, time: float, category: str, message: str, **fields: Any) -> None:
        """Record one event (no-op if the category is filtered out)."""
        if not self.wants(category):
            return
        records = self._records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append((time, category, message, fields))
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._records)

    def rows(self) -> Iterator[Row]:
        """Retained events, oldest first, as raw rows — what the
        exporters walk."""
        return iter(self._records)

    def query(
        self,
        category: Optional[str] = None,
        since: float = 0.0,
        **field_filters: Any,
    ) -> Iterator[TraceRecord]:
        """Iterate matching records in chronological order."""
        for rec in self._records:
            if rec[0] < since:
                continue
            if category is not None and rec[1] != category:
                continue
            if any(rec[3].get(k) != v for k, v in field_filters.items()):
                continue
            yield TraceRecord(*rec)

    def clear(self) -> None:
        """Reset the buffer and both lifetime counters, so a tracer
        reused across runs starts every run from zero."""
        self._records.clear()
        self.dropped = 0
        self.emitted = 0
