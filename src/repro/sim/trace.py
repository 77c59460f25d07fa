"""Opt-in structured tracing for simulations.

Attach a :class:`Tracer` to an engine (``engine.tracer = Tracer(...)``)
and instrumented components (queue pairs, control channels, the credit
ledger, the TCP bottleneck) emit timestamped records.  Tracing is off by
default and costs one attribute check per event when disabled.

The ring stores one packed row per record, ``(time, shape, *values)``
with ``shape = (category, message, *field_names)`` — no dict per record;
:meth:`Tracer.query` rebuilds a :class:`TraceRecord` for the rows a
caller asks for.  Two spellings write the same row:

* ``engine.trace("link", "repair", block=7)`` (``tracer.record`` with a
  dict): by keyword, for sites that fire a few times per transfer;
* ``tracer.point(now, _T_POST, qp, op, wr_id, length)``, where the module
  constant ``_T_POST = ("qp", "post_send", "qp", "op", "wr_id", "len")``
  is the shape: positional, for sites that fire per block, each behind
  its own ``tracer is not None`` guard.

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

#: What a kind of record looks like: ``(category, message, *field_names)``.
Shape = Tuple[str, ...]
#: One retained event as the ring stores it: ``(time, shape, *values)``.
Row = Tuple[Any, ...]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event, as :meth:`Tracer.query` hands it out."""

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
        self._records: Deque[Row] = deque(maxlen=capacity)
        #: Intern table: one shared shape per distinct ``(category,
        #: message, *names)`` that came in by keyword.
        self._shapes: Dict[Shape, Shape] = {}
        self.dropped = 0
        self.emitted = 0

    @property
    def capacity(self) -> int:
        """Ring size — read from the deque so there is exactly one
        source of truth and the drop detector can never desync."""
        maxlen = self._records.maxlen
        assert maxlen is not None
        return maxlen

    def point(self, time: float, shape: Shape, *values: Any) -> None:
        """Record one event of a known shape, one value per field name
        (no-op if the category is filtered out)."""
        categories = self.categories
        if categories is not None and shape[0] not in categories:
            return
        records = self._records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append((time, shape) + values)
        self.emitted += 1

    def record(self, time: float, category: str, message: str, fields: Dict[str, Any]) -> None:
        """:meth:`point` for a site that has its fields in a dict."""
        key = (category, message, *fields)
        self.point(time, self._shapes.setdefault(key, key), *fields.values())

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
        for row in self._records:
            shape = row[1]
            if row[0] < since or (category is not None and shape[0] != category):
                continue
            fields = dict(zip(shape[2:], row[2:]))
            if any(fields.get(k) != v for k, v in field_filters.items()):
                continue
            yield TraceRecord(row[0], shape[0], shape[1], fields)

    def clear(self) -> None:
        """Reset the buffer, the shape table and both lifetime counters,
        so a tracer reused across runs starts every run from zero."""
        self._records.clear()
        self._shapes.clear()
        self.dropped = 0
        self.emitted = 0
