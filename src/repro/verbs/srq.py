"""Shared receive queues: one receive pool serving many QPs.

A :class:`SharedReceiveQueue` (``ibv_srq`` analogue) decouples receive
WQE provisioning from connections: instead of pre-posting ``depth``
receives on *every* QP, a host posts one shared pool and every attached
QP draws from it on arrival.  That is the RDMAvisor-style scaling move —
receive memory grows with expected *aggregate* arrival rate, not with
connection count — and it is what lets the middleware's per-host channel
pool serve hundreds of sessions from a bounded WQE budget.

Semantics mirrored from the real API:

- Receives are posted on the SRQ, never on an attached QP
  (:meth:`QueuePair.post_recv` raises for SRQ-attached QPs).
- An arriving SEND consumes one shared WQE;
  the completion lands on the *consuming QP's* receive CQ, carrying that
  QP's number, so demultiplexing stays per-connection.
- An empty SRQ produces RNR NAKs exactly like an empty per-QP receive
  queue — the credit scheme's reason to exist does not change.
- A QP entering ERROR does **not** flush the SRQ: the shared WQEs still
  serve the surviving QPs.  Only :meth:`close` drains the queue.

WQE accounting (``srq.*`` metric family, registered only when an SRQ is
created so non-SRQ runs export identical metrics): ``srq.posted`` /
``srq.consumed`` counters and an ``srq.empty_naks`` counter for
arrivals that found the shared queue dry.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.verbs.errors import QueueFullError
from repro.verbs.wr import RecvWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.pd import ProtectionDomain

__all__ = ["SharedReceiveQueue"]

_srq_handles = itertools.count(1)


class SharedReceiveQueue:
    """A bounded receive-WQE pool shared by every attached QP."""

    def __init__(self, pd: "ProtectionDomain", depth: int = 4096) -> None:
        if depth < 1:
            raise ValueError("SRQ depth must be >= 1")
        self.pd = pd
        self.device = pd.device
        self.engine = pd.device.engine
        self.handle = next(_srq_handles)
        self.depth = depth
        self._queue: Deque[RecvWR] = deque()
        pd._admit_srq(self)
        reg = self.engine.metrics
        labels = {"host": self.device.host.name, "srq": self.handle}
        self._m_posted = reg.counter("srq.posted", **labels)
        self._m_consumed = reg.counter("srq.consumed", **labels)
        self._m_empty = reg.counter("srq.empty_naks", **labels)
        reg.gauge_fn("srq.occupancy", lambda: len(self._queue), **labels)

    @property
    def recv_posted(self) -> int:
        """Number of shared receive WQEs currently posted."""
        return len(self._queue)

    def post_recv(self, wr: RecvWR) -> None:
        """Queue a shared receive buffer (no timing; CPU cost is the
        caller's, as with :meth:`QueuePair.post_recv`)."""
        if len(self._queue) >= self.depth:
            raise QueueFullError(
                f"SRQ full ({self.depth} WQEs posted)"
            )
        self._queue.append(wr)
        self._m_posted.add()

    # -- consumer side (called by attached QPs on arrival) ---------------------
    def _take(self) -> RecvWR:
        """Consume one shared WQE for an arriving message."""
        wr = self._queue.popleft()
        self._m_consumed.add()
        return wr

    def _note_empty(self) -> None:
        """An arrival found the shared queue dry (RNR on the wire)."""
        self._m_empty.add()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SRQ {self.handle} posted={len(self._queue)}/{self.depth}"
            f" on {self.device.host.name}>"
        )
