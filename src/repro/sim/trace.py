"""Opt-in structured tracing for simulations.

Attach a :class:`Tracer` to an engine (``engine.tracer = Tracer(...)``)
and instrumented components (queue pairs, control channels, the credit
ledger, the TCP bottleneck) emit timestamped records.  Tracing is off by
default and costs one attribute check per event when disabled.

A record is the row ``(time, shape, *values)`` with ``shape =
(category, message, *field_names)``; :meth:`Tracer.rows` hands rows out
in that form and :meth:`Tracer.query` wraps the ones a caller asks for
in a :class:`TraceRecord`.  Two spellings write the same row:

* ``engine.trace("link", "repair", block=7)`` (``tracer.record`` with a
  dict): by keyword, for sites that fire a few times per transfer;
* ``tracer.point(now, _T_POST, qp, op, wr_id, length)``, where the module
  constant ``_T_POST = ("qp", "post_send", "qp", "op", "wr_id", "len")``
  is the shape: positional, for sites that fire per block, each behind
  its own ``tracer is not None`` guard.

The ring does not keep the rows it holds long: it packs them into
columns (see :class:`Tracer`) and gives back equal rows of the same
types.

Example
-------
>>> from repro.sim.trace import Tracer
>>> tb.engine.tracer = Tracer(categories={"qp", "credits"})
>>> ...run...
>>> for rec in tb.engine.tracer.query(category="credits"):
...     print(rec)
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = ["Tracer", "TraceRecord"]

#: What a kind of record looks like: ``(category, message, *field_names)``.
Shape = Tuple[str, ...]
#: One retained event as :meth:`Tracer.rows` gives it: ``(time, shape, *values)``.
Row = Tuple[Any, ...]
#: The rows of one shape in one chunk: ``(shape, times, fields)`` with
#: ``fields`` one ``(array('q'), is_string)`` per field name, or
#: ``(shape, None, rows)`` for rows kept verbatim.
Group = Tuple[Shape, Optional["array[float]"], Any]
#: A sealed chunk: the group index of each row, in order, and the groups.
Chunk = Tuple[bytes, List[Group]]

#: Most rows per chunk.  A full ring frees a chunk once its oldest row
#: has passed all of it, so it holds at most one chunk above capacity.
_CHUNK_ROWS = 4096
#: Distinct strings the table keeps.  The rows of a chunk that bring a
#: new string once the table is full stay verbatim, so the table stays
#: bounded when a site traces an unbounded set of names (job ids, paths).
_MAX_STRINGS = 4096
_shape_of = itemgetter(1)
#: ``dict.fromkeys``, bound once: ``query``'s ``dict(...)`` per matching
#: row is the only call of the name ``dict`` here.
_first_seen = dict.fromkeys


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

    :meth:`point` appends the row tuple to the open chunk.  A full
    chunk is sealed into columns, one group per shape object: the times
    as ``array('d')``, each field as ``array('q')`` (an ``int`` as
    itself, a ``str`` as its index in the interned string table), and
    one byte per row naming its group.  A group packs only if every
    time is a finite ``float`` and each field's values are all exactly
    ``int`` within int64 or all exactly ``str``; any other group keeps
    its row tuples verbatim.  A packed ``qp/post_send`` row costs
    8 + 1 + 4 x 8 bytes.

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
        self._capacity = capacity
        # At most 1/128 of the ring above capacity once it is full.
        self._chunk_rows = max(1, min(capacity >> 7, _CHUNK_ROWS))
        self.clear()

    @property
    def capacity(self) -> int:
        """Ring size: the most rows :meth:`rows` ever returns."""
        return self._capacity

    def point(self, time: float, shape: Shape, *values: Any) -> None:
        """Record one event of a known shape, one value per field name
        (no-op if the category is filtered out)."""
        categories = self.categories
        if categories is not None and shape[0] not in categories:
            return
        self.emitted += 1
        if self.emitted - self.dropped > self._capacity:
            self.dropped += 1
            self._head += 1
            if self._head == self._chunk_rows:
                self._chunks.popleft()
                self._head = 0
        self._open.append((time, shape) + values)
        self._room -= 1
        if not self._room:
            self._seal()

    def record(self, time: float, category: str, message: str, fields: Dict[str, Any]) -> None:
        """:meth:`point` for a site that has its fields in a dict."""
        key = (category, message, *fields)
        self.point(time, self._shapes.setdefault(key, key), *fields.values())

    def _seal(self) -> None:
        """Pack the full open chunk, one group per shape object."""
        rows, self._open, self._room = self._open, [], self._chunk_rows
        keys = list(map(id, map(_shape_of, rows)))
        index = _first_seen(keys)
        if len(index) > 256:  # more groups than a byte names: keep them all
            self._chunks.append((bytes(len(rows)), [(rows[0][1], None, rows)]))
            return
        for i, key in enumerate(index):
            index[key] = i
        order = bytes(map(index.__getitem__, keys))
        groups: List[Group] = []
        for i in index.values():
            group = list(compress(rows, order.translate(bytes(i) + b"\x01" + bytes(255 - i))))
            shape = group[0][1]
            packed = self._pack(len(shape), group)
            groups.append((shape, None, group) if packed is None else (shape, *packed))
        self._chunks.append((order, groups))

    def _pack(self, width: int, rows: List[Row]) -> Optional[Tuple[Any, Tuple[Any, ...]]]:
        """``(times, fields)`` columns for rows of one shape, or None if
        a column would not give every value back exactly."""
        try:
            columns = list(zip(*rows, strict=True))
        except ValueError:  # rows with a different number of values
            return None
        if len(columns) != width or set(map(type, columns[0])) != {float}:
            return None
        if not isfinite(sum(columns[0])):
            return None
        fields = []
        for column in columns[2:]:
            types = set(map(type, column))
            if types == {int}:
                try:
                    fields.append((array("q", column), False))
                except OverflowError:
                    return None
            elif types == {str} and self._intern(column):
                fields.append((array("q", map(self._ids.__getitem__, column)), True))
            else:
                return None
        return array("d", columns[0]), tuple(fields)

    def _intern(self, column: Iterable[str]) -> bool:
        """Give every string in ``column`` an index; False if the table
        would grow past its bound."""
        new = set(column).difference(self._ids)
        if len(self._strings) + len(new) > _MAX_STRINGS:
            return False
        for text in new:
            self._ids[text] = len(self._strings)
            self._strings.append(text)
        return True

    def __len__(self) -> int:
        return self.emitted - self.dropped

    def render(
        self,
        packed: Callable[[Shape, "array[float]", List[Iterable[Any]]], Iterator[Any]],
        kept: Callable[[List[Row]], Iterator[Any]],
        encode: Optional[Callable[[str], Any]] = None,
    ) -> Iterator[Any]:
        """One item per retained row, oldest first.  A packed group
        gives its items as ``packed(shape, times, fields)``, where a
        field is its ``int`` values, or for a string field each string
        through ``encode`` (called once per string); rows kept verbatim,
        and the open chunk's, give theirs as ``kept(rows)``.  Both must
        return an iterator over exactly one item per row."""
        table = self._strings if encode is None else list(map(encode, self._strings))
        lookup = table.__getitem__

        def sealed(chunk: Chunk) -> Iterator[Any]:
            order, groups = chunk
            streams = [
                kept(body) if times is None
                else packed(shape, times, [map(lookup, c) if is_str else c for c, is_str in body])
                for shape, times, body in groups
            ]
            # Each group's iterator, advanced in row order.
            return map(next, map(streams.__getitem__, order))

        chunks = map(sealed, self._chunks)
        oldest = islice(next(chunks, ()), self._head, None)
        return chain(oldest, chain.from_iterable(chunks), kept(self._open))

    def rows(self) -> Iterator[Row]:
        """Retained events, oldest first, as ``(time, shape, *values)``
        rows equal, type for type, to the ones written."""
        return self.render(lambda shape, times, fields: zip(times, repeat(shape), *fields), iter)

    def query(
        self,
        category: Optional[str] = None,
        since: float = 0.0,
        **field_filters: Any,
    ) -> Iterator[TraceRecord]:
        """Iterate matching records in chronological order."""
        for row in self.rows():
            shape = row[1]
            if row[0] < since or (category is not None and shape[0] != category):
                continue
            fields = dict(zip(shape[2:], row[2:]))
            if any(fields.get(k) != v for k, v in field_filters.items()):
                continue
            yield TraceRecord(row[0], shape[0], shape[1], fields)

    def clear(self) -> None:
        """Reset the ring, both tables and both lifetime counters, so a
        tracer reused across runs starts every run from zero."""
        self._chunks: Deque[Chunk] = deque()
        self._open: List[Row] = []
        self._room = self._chunk_rows
        self._head = 0
        #: Intern table: one shared shape per distinct ``(category,
        #: message, *names)`` that came in by keyword.
        self._shapes: Dict[Shape, Shape] = {}
        #: Interned strings, and each one's index.
        self._strings: List[str] = []
        self._ids: Dict[str, int] = {}
        self.dropped = 0
        self.emitted = 0
