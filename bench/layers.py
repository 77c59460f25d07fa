"""Per-layer attribution of one profiled repetition, and harness spans.

A *layer* is a package under ``src/repro/``.  ``profile_call`` runs one
call under ``cProfile`` and charges every function's self time
(``tottime``) and call count to the layer its source file belongs to, so
the layer ``self_s`` values sum to the profiled total by construction.
``cProfile`` taxes every Python call but not the work inside C, so the
*shares* — not the seconds — are what two commits compare; the harness
reports the tax as ``trace.overhead_x``.

A generator function is charged one call per activation (each resume),
which is what costs host time.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = (
    "sim", "hardware", "network", "verbs", "core", "apps",
    "sched", "obs", "faults", "tcp", "top", "other",
)

_PACKAGES = frozenset(LAYERS) - {"top", "other"}
_REPRO = os.sep + os.path.join("src", "repro") + os.sep

#: Calls the issue names, found in the profile by (file under
#: ``src/repro/``, function name).
_CALL_METRIC: Dict[Tuple[str, str], str] = {
    ("verbs/qp.py", "post_send"): "verbs.post_send_calls",
    ("verbs/qp.py", "post_recv"): "verbs.post_recv_calls",
    ("verbs/srq.py", "post_recv"): "verbs.post_recv_calls",
    ("verbs/cq.py", "poll"): "verbs.cq_poll_calls",
    ("hardware/nic.py", "process_wqe"): "hardware.nic_wqe_calls",
    ("hardware/pci.py", "dma"): "hardware.pcie_dma_calls",
    ("hardware/cpu.py", "exec"): "hardware.cpu_exec_calls",
    # Path.transmit is the per-message entry; Link.serialize is the
    # per-hop fallback it takes when the fluid chain does not apply
    # (faults armed on the link).
    ("network/fabric.py", "transmit"): "network.transmit_calls",
    ("network/link.py", "serialize"): "network.serialize_calls",
}


def _repro_relpath(filename: str) -> Optional[str]:
    """``verbs/qp.py`` for a file of the program, None for any other."""
    at = filename.rfind(_REPRO)
    if at < 0:
        return None
    return filename[at + len(_REPRO):].replace(os.sep, "/")


def layer_of(filename: str) -> str:
    """Layer a profiled function belongs to, by its source path."""
    rel = _repro_relpath(filename)
    if rel is None:
        return "other"  # stdlib, builtins ('~'), numpy, this harness
    head, _, rest = rel.partition("/")
    if rest and head in _PACKAGES:
        return head
    # testbeds.py / cli.py / sweep.py, and the packages no workload
    # enters (analysis, experiments).
    return "top"


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, float, Dict[str, float]]:
    """Run ``fn`` under cProfile; return (result, wall seconds, metrics)."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    named = dict.fromkeys(_CALL_METRIC.values(), 0)
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        metric = _CALL_METRIC.get((_repro_relpath(filename), func))
        if metric is not None:
            named[metric] += ncalls

    total = sum(self_s.values())
    metrics: Dict[str, float] = {"trace.total_s": total}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
        metrics[f"{layer}.calls"] = calls[layer]
    metrics.update(named)
    return result, wall, metrics


class SpanLog:
    """The harness's own spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "rep": rep,
            "start_s": time.perf_counter() - self._origin,
            "end_s": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_s"] = time.perf_counter() - self._origin



def span_seconds(record: Dict[str, Any]) -> float:
    return record["end_s"] - record["start_s"]
