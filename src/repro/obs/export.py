"""JSONL exporters for metrics snapshots and trace buffers.

One line per record keeps the files streamable and diff-friendly:

* metrics files: a ``{"record": "engine", ...}`` header per engine run
  followed by one ``{"record": "metric", ...}`` line per metric;
* trace files: one ``{"record": "trace", ...}`` line per
  :class:`~repro.sim.trace.TraceRecord`.

Multi-engine commands (ablations) produce several runs in one file,
distinguished by the ``run`` index.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, List

__all__ = ["metrics_lines", "trace_lines", "write_metrics_jsonl", "write_trace_jsonl"]


#: Field values that go to JSON as they are; anything else (enums,
#: objects, containers) is written as its ``str``.
_PLAIN = (str, int, float, bool, type(None))


def _encoder() -> Callable[[Any], str]:
    """One encoder per export: ``json.dumps`` builds one per call."""
    return json.JSONEncoder(sort_keys=True, default=str).encode


def _metrics_lines(engines: Iterable[Any]) -> Iterator[str]:
    encode = _encoder()
    for run, engine in enumerate(engines):
        snapshot = engine.metrics.snapshot()
        yield encode(
            {
                "record": "engine",
                "run": run,
                "sim_time": engine.now,
                "events_processed": getattr(engine, "events_processed", None),
                "metrics": len(snapshot),
            }
        )
        for rec in snapshot:
            yield encode({"record": "metric", "run": run, **rec})


def _trace_lines(engines: Iterable[Any]) -> Iterator[str]:
    encode = _encoder()
    for run, engine in enumerate(engines):
        tracer = getattr(engine, "tracer", None)
        if tracer is None:
            continue
        yield encode(
            {
                "record": "tracer",
                "run": run,
                "emitted": tracer.emitted,
                "dropped": tracer.dropped,
                "retained": len(tracer),
            }
        )
        for time, category, message, fields in tracer.rows():
            yield encode(
                {
                    "record": "trace",
                    "run": run,
                    "time": time,
                    "category": category,
                    "message": message,
                    "fields": {
                        k: v if isinstance(v, _PLAIN) else str(v)
                        for k, v in fields.items()
                    },
                }
            )


def metrics_lines(engines: Iterable[Any]) -> List[str]:
    return list(_metrics_lines(engines))


def trace_lines(engines: Iterable[Any]) -> List[str]:
    return list(_trace_lines(engines))


def _write(path: str, lines: Iterator[str]) -> int:
    """Stream ``lines`` to ``path``; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return count


def write_metrics_jsonl(path: str, engines: Iterable[Any]) -> int:
    return _write(path, _metrics_lines(engines))


def write_trace_jsonl(path: str, engines: Iterable[Any]) -> int:
    return _write(path, _trace_lines(engines))
