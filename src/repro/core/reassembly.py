"""Out-of-order block reassembly (§IV-A, third optimisation).

With multiple data-channel queue pairs, blocks of one session may land at
the sink in any order.  Reassembly holds early arrivals and releases the
longest possible in-order run, keyed by (session id, sequence number), so
upper layers always see an in-order byte stream.

The per-session state lives on the session's own record (the sink's
:class:`~repro.core.sink_engine.SinkSession`), passed to every call: its
``next_seq`` (the next sequence number owed to the application, ``None``
until the session has reassembly state) and ``parked`` (``{seq: (header,
payload)}`` held out of order).  This buffer keeps only the algorithm and
the link-level bookkeeping, in a :class:`~repro.obs.registry.MetricsRegistry`
(one may be passed in — the sink engine shares its engine's registry — or
a private one is created).  Duplicates are attributed per session in the
``reassembly.session_duplicates`` family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.messages import BlockHeader
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sink_engine import SinkSession

__all__ = ["ReassemblyBuffer"]


class ReassemblyBuffer:
    """In-order delivery of out-of-order arrivals, one session record at a
    time."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        **labels: Any,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._labels = dict(labels)
        self.duplicates = self.metrics.counter("reassembly.duplicates", **labels)
        #: A "duplicate" whose payload differed from the parked/delivered
        #: copy.  Still dropped (first-writer-wins, as RDMA WRITE would
        #: behave), but counted separately — silent divergence is a bug
        #: signal, not a benign replay.
        self.payload_conflicts = self.metrics.counter(
            "reassembly.payload_conflicts", **labels
        )
        self.max_parked = self.metrics.gauge("reassembly.max_parked", **labels)
        #: Entries parked across every record, and records holding any
        #: reassembly state (a cursor, parked entries or both).
        self.parked = 0
        self.held = 0
        self.metrics.gauge_fn("reassembly.parked", lambda: self.parked, **labels)
        self.metrics.gauge_fn("reassembly.sessions", lambda: self.held, **labels)

    def set_next_seq(self, s: "SinkSession", seq: int) -> None:
        """Reset a session's delivery cursor (SESSION_RESUME re-attach).

        Any entries parked below the new cursor belong to the dead
        incarnation and are discarded — the resuming source re-sends the
        whole missing suffix from the restart marker.
        """
        parked = s.parked
        if parked:
            for stale in [q for q in parked if q < seq]:
                del parked[stale]
                self.parked -= 1
        if s.next_seq is None:
            self.held += 1
        s.next_seq = seq

    def reject_duplicate(self, s: "SinkSession", header: BlockHeader, payload: Any) -> bool:
        """If ``header`` replays a delivered or parked seq, count it and
        return True (the caller recycles the arrival's block instead of
        pushing it).  The one duplicate check: every arrival passes it
        before :meth:`push`.

        A still-parked copy is also checked for payload divergence (a
        delivered one is gone).  Engines park ``(header, block)`` tuples,
        so the parked object's ``payload`` attribute is compared when it
        has one.
        """
        seq, parked = header.seq, s.parked
        if seq >= (s.next_seq or 0) and seq not in parked:
            return False
        self.duplicates.add()
        self.metrics.counter(
            "reassembly.session_duplicates", session=s.sid, **self._labels
        ).add()
        if seq in parked:
            obj = parked[seq][1]
            if getattr(obj, "payload", obj) != payload:
                self.payload_conflicts.add()
        return True

    def push(
        self, s: "SinkSession", header: BlockHeader, payload: Any
    ) -> List[Tuple[BlockHeader, Any]]:
        """Insert an arrival :meth:`reject_duplicate` let through; return
        the blocks now deliverable in order."""
        seq, parked, nxt = header.seq, s.parked, s.next_seq
        if nxt is None:  # the first arrival: the record gains its cursor
            nxt = 0
            self.held += 1
        parked[seq] = (header, payload)
        self.max_parked.set_max(self.parked + 1)
        released: List[Tuple[BlockHeader, Any]] = []
        while nxt in parked:
            released.append(parked.pop(nxt))
            nxt += 1
        self.parked += 1 - len(released)
        s.next_seq = nxt
        return released

    def take(self, s: "SinkSession") -> List[Tuple[BlockHeader, Any]]:
        """Close a session's reassembly state and hand back its stranded
        entries, in seq order.

        The sink GC needs the actual (header, payload) tuples so it can
        free the pool blocks still holding the payloads.  The cursor, the
        parked entries and the duplicate attribution metric go, so a
        reused session id starts fresh; the aggregate chaos-audit counters
        (:attr:`duplicates`, :attr:`payload_conflicts`) are preserved.
        """
        parked = s.parked
        stranded = [parked[seq] for seq in sorted(parked)]
        parked.clear()
        self.parked -= len(stranded)
        if s.next_seq is not None:
            self.held -= 1
            s.next_seq = None
        self.metrics.remove(
            "reassembly.session_duplicates", session=s.sid, **self._labels
        )
        return stranded
