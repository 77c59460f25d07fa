"""Out-of-order block reassembly (§IV-A, third optimisation).

With multiple data-channel queue pairs, blocks of one session may land at
the sink in any order.  The reassembly buffer holds early arrivals and
releases the longest possible in-order run, keyed by (session id,
sequence number), so upper layers always see an in-order byte stream.

Bookkeeping lives in a :class:`~repro.obs.registry.MetricsRegistry`
(one may be passed in — the sink engine shares its engine's registry —
or a private one is created).  Duplicates are attributed per session in
the ``reassembly.session_duplicates`` family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import BlockHeader
from repro.obs.registry import MetricsRegistry

__all__ = ["ReassemblyBuffer"]


class ReassemblyBuffer:
    """Per-session in-order delivery of out-of-order arrivals."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        **labels: Any,
    ) -> None:
        #: session id -> next sequence number owed to the application.
        self._next_seq: Dict[int, int] = {}
        #: session id -> {seq: (header, payload)} parked out-of-order.
        #: Nested per-session so pending()/reclaim are O(session), not
        #: O(everything parked on the link).
        self._parked: Dict[int, Dict[int, Tuple[BlockHeader, Any]]] = {}
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
        #: session id -> bound duplicate counter; resolved once per
        #: session (see :meth:`_bind_session_counter`) and dropped with
        #: the session's other bookkeeping in :meth:`reclaim_session`.
        self._m_dup_per_session: Dict[int, Any] = {}
        self.metrics.gauge_fn("reassembly.parked", self._total_parked, **labels)
        self.metrics.gauge_fn(
            "reassembly.sessions", lambda: len(self.sessions()), **labels
        )

    def _total_parked(self) -> int:
        return sum(len(per) for per in self._parked.values())

    def pending(self, session_id: int) -> int:
        """Blocks parked for a session (not yet deliverable)."""
        return len(self._parked.get(session_id, ()))

    def next_seq(self, session_id: int) -> int:
        return self._next_seq.get(session_id, 0)

    def set_next_seq(self, session_id: int, seq: int) -> None:
        """Reset a session's delivery cursor (SESSION_RESUME re-attach).

        Any entries parked below the new cursor belong to the dead
        incarnation and are discarded — the resuming source re-sends the
        whole missing suffix from the restart marker.
        """
        per = self._parked.get(session_id)
        if per:
            for stale in [s for s in per if s < seq]:
                del per[stale]
            if not per:
                del self._parked[session_id]
        self._next_seq[session_id] = seq

    def sessions_with_parked(self) -> List[int]:
        """Session ids that currently have parked entries."""
        return [sid for sid, per in self._parked.items() if per]

    def sessions(self) -> List[int]:
        """Session ids with any state (delivery cursor or parked entries)."""
        return list(set(self._next_seq) | set(self._parked))

    def reject_duplicate(self, header: BlockHeader, payload: Any) -> bool:
        """If ``header`` replays a delivered or parked seq, count it and
        return True (the caller recycles the arrival's block instead of
        pushing it).

        Engines park ``(header, block)`` tuples, so divergence checking
        against a still-parked copy unwraps the parked object's
        ``payload`` attribute when it has one.
        """
        sid = header.session_id
        per = self._parked.get(sid, {})
        if header.seq >= self._next_seq.get(sid, 0) and header.seq not in per:
            return False
        parked_payload = None
        comparable = False
        if header.seq in per:
            obj = per[header.seq][1]
            parked_payload = getattr(obj, "payload", obj)
            comparable = True
        self._count_duplicate(sid, payload, parked_payload, comparable)
        return True

    def _bind_session_counter(self, sid: int):
        """Resolve and cache a session's duplicate counter (setup path —
        runs once per session, on its first counted duplicate)."""
        counter = self.metrics.counter(
            "reassembly.session_duplicates", session=sid, **self._labels
        )
        self._m_dup_per_session[sid] = counter
        return counter

    def _count_duplicate(self, sid: int, payload: Any, parked_payload: Any,
                         comparable: bool) -> None:
        self.duplicates.add()
        counter = self._m_dup_per_session.get(sid)
        if counter is None:
            counter = self._bind_session_counter(sid)
        counter.add()
        if comparable and parked_payload != payload:
            self.payload_conflicts.add()

    def push(self, header: BlockHeader, payload: Any) -> List[Tuple[BlockHeader, Any]]:
        """Insert an arrival; return the blocks now deliverable in order.

        Duplicate or stale sequence numbers are counted and dropped
        (RDMA WRITE is reliable, so these indicate an application replay —
        tests use them to assert idempotence).  A duplicate still parked
        here is additionally checked for payload divergence.
        """
        sid = header.session_id
        nxt = self._next_seq.get(sid, 0)
        per = self._parked.get(sid)
        if header.seq < nxt:
            # Already delivered; the original payload is gone so divergence
            # is undetectable here.  Counted before touching the parked
            # index so a replay against a pruned session leaves no state
            # behind.
            self._count_duplicate(sid, payload, None, comparable=False)
            return []
        if per is not None and header.seq in per:
            self._count_duplicate(sid, payload, per[header.seq][1], comparable=True)
            return []
        if per is None:
            per = self._parked.setdefault(sid, {})
        per[header.seq] = (header, payload)
        self.max_parked.set_max(self._total_parked())
        released: List[Tuple[BlockHeader, Any]] = []
        while nxt in per:
            released.append(per.pop(nxt))
            nxt += 1
        self._next_seq[sid] = nxt
        if not per:
            del self._parked[sid]
        return released

    def reclaim_session(self, session_id: int) -> List[Tuple[BlockHeader, Any]]:
        """Close a session and hand back its stranded entries.

        The sink GC needs the actual (header, payload) tuples so it can
        free the pool blocks still holding the payloads.  Per-session
        bookkeeping (the parked index, the sequence cursor, and the
        duplicate attribution metric) is pruned here so a long-lived sink
        stays bounded; the aggregate chaos-audit counters
        (:attr:`duplicates`, :attr:`payload_conflicts`) are preserved.
        """
        per = self._parked.pop(session_id, {})
        self._next_seq.pop(session_id, None)
        self._m_dup_per_session.pop(session_id, None)
        self.metrics.remove(
            "reassembly.session_duplicates", session=session_id, **self._labels
        )
        return [per[seq] for seq in sorted(per)]
