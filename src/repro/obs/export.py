"""JSONL exporters for metrics snapshots and trace buffers.

One line per record keeps the files streamable and diff-friendly:

* metrics files: a ``{"record": "engine", ...}`` header per engine run
  followed by one ``{"record": "metric", ...}`` line per metric;
* trace files: a ``{"record": "tracer", ...}`` header per traced run
  followed by one ``{"record": "trace", ...}`` line per retained row.

Multi-engine commands (ablations) produce several runs in one file,
distinguished by the ``run`` index.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, Dict, Iterable, Iterator, List, Tuple

__all__ = ["metrics_lines", "trace_lines", "write_metrics_jsonl", "write_trace_jsonl"]


#: Field values that go to JSON as they are; anything else (enums,
#: objects, containers) is written as its ``str``.
_PLAIN = (str, int, float, bool, type(None))

#: The one generic encoder; every line is what it makes of the record.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


def metrics_lines(engines: Iterable[Any]) -> Iterator[str]:
    """The metrics file's lines, one engine run after another."""
    for run, engine in enumerate(engines):
        snapshot = engine.metrics.snapshot()
        yield _encode(
            {
                "record": "engine",
                "run": run,
                "sim_time": engine.now,
                "events_processed": getattr(engine, "events_processed", None),
                "metrics": len(snapshot),
            }
        )
        for rec in snapshot:
            yield _encode({"record": "metric", "run": run, **rec})


def _float(value: float) -> str:
    return float.__repr__(value) if isfinite(value) else _encode(value)


def _field(value: Any) -> str:
    return _encode(value if isinstance(value, _PLAIN) else str(value))


#: What ``_encode`` itself calls for a value of exactly these types
#: (``bool`` and enum members are subclasses and go through ``_field``).
_FAST = {str: encode_basestring_ascii, int: int.__repr__, float: _float}


def _template(run: int, shape: Tuple[Any, ...]) -> Tuple[str, List[int]]:
    """What the lines of one shape in one run share: the sorted-key text
    around the values as a ``%`` format (field values, then the time),
    and the indices of the field values in the order their names sort —
    a value sits in its row where its name sits in the shape."""
    order = sorted(range(2, len(shape)), key=shape.__getitem__)

    def literal(value: Any) -> str:
        return _encode(value).replace("%", "%%")

    fields = ", ".join(f"{literal(shape[i])}: %s" for i in order)
    return (
        f'{{"category": {literal(shape[0])}, "fields": {{{fields}}}, '
        f'"message": {literal(shape[1])}, "record": "trace", '
        f'"run": {literal(run)}, "time": %s}}',
        order,
    )


def _tracer_lines(run: int, engine: Any) -> Iterator[str]:
    """One traced run's header and lines: a packed group's lines are one
    ``%`` each of its shape's template over a zip of its columns, taken
    in sorted-name order, and its times.  A packed value is exactly an
    ``int`` or an interned ``str``, encoded once per export, and a
    packed time a finite ``float``: ``%s`` of each is its JSON."""
    tracer = getattr(engine, "tracer", None)
    if tracer is None:
        return iter(())
    header = _encode(
        {
            "record": "tracer",
            "run": run,
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
            "retained": len(tracer),
        }
    )
    templates: Dict[Tuple[Any, ...], Tuple[str, List[int]]] = {}

    def template(shape: Tuple[Any, ...]) -> Tuple[str, List[int]]:
        found = templates.get(shape)
        if found is None:
            found = templates[shape] = _template(run, shape)
        return found

    def packed(shape, times, fields) -> Iterator[str]:
        text, order = template(shape)
        return map(text.__mod__, zip(*[fields[i - 2] for i in order], times))

    def verbatim(row: Tuple[Any, ...]) -> str:
        text, order = template(row[1])
        fast = _FAST.get
        return text % (
            *[fast(type(row[i]), _field)(row[i]) for i in order],
            fast(type(row[0]), _encode)(row[0]),
        )

    return itertools.chain(
        (header,),
        tracer.render(packed, lambda rows: map(verbatim, rows), encode_basestring_ascii),
    )


def trace_lines(engines: Iterable[Any]) -> Iterator[str]:
    """The trace file's lines; engines without a tracer are skipped."""
    return itertools.chain.from_iterable(map(_tracer_lines, itertools.count(), engines))


def _write(path: str, lines: Iterator[str]) -> int:
    """Stream ``lines`` to ``path``; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for count, line in enumerate(lines, 1):
            fh.write(line + "\n")
    return count


def write_metrics_jsonl(path: str, engines: Iterable[Any]) -> int:
    return _write(path, metrics_lines(engines))


def write_trace_jsonl(path: str, engines: Iterable[Any]) -> int:
    return _write(path, trace_lines(engines))
