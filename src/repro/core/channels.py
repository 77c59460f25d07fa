"""Channel wrappers: the control QP and the parallel data QPs.

The control channel runs SEND/RECV with a pre-posted receive ring (sized
so a healthy run never draws an RNR NAK); bulk payload goes over one or
more data QPs as RDMA WRITE.  All verbs-call CPU costs are charged to the
calling thread here, in one place.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.core.health import ChannelBreaker
from repro.core.messages import ControlMessage, CTRL_MSG_BYTES, DataBlockWire
from repro.core.pool import BlockPool, ResourcePool
from repro.verbs.cq import CompletionChannel
from repro.verbs.errors import QpStateError, QueueFullError
from repro.verbs.qp import QpState
from repro.verbs.wr import Opcode, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import SourceBlock
    from repro.core.config import ProtocolConfig
    from repro.core.credits import Credit
    from repro.core.messages import BlockHeader
    from repro.hardware.cpu import CpuThread
    from repro.hardware.host import Host
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.pd import ProtectionDomain
    from repro.verbs.qp import QueuePair

__all__ = [
    "ControlChannel",
    "DataChannels",
    "HostChannelPool",
    "NoLiveChannelError",
]

# Trace shapes of the per-message points: (category, message, *field_names).
_T_SEND = ("ctrl", "send", "type", "session")
_T_DROP = ("ctrl", "drop", "type", "session")


class NoLiveChannelError(RuntimeError):
    """No data QP can carry a WRITE (all in ERROR, or all detached): the
    poster degrades to TCP or aborts with the typed
    :class:`~repro.core.errors.DataChannelsLost`."""


class ControlChannel:
    """SEND/RECV messaging over the dedicated control QP."""

    def __init__(self, qp: "QueuePair", recv_depth: int = 128) -> None:
        self.qp = qp
        self.engine = qp.engine
        self.profile = qp.device.arch_profile
        self.recv_depth = recv_depth
        self._recv_channel = CompletionChannel(qp.recv_cq)
        reg = self.engine.metrics
        labels = {"qp": qp.qp_num, "i": reg.sequence("ctrl_channel")}
        self._m_sent = reg.counter("ctrl.sent", **labels)
        self._m_received = reg.counter("ctrl.received", **labels)
        self._m_dropped = reg.counter("ctrl.dropped", **labels)
        self._m_delayed = reg.counter("ctrl.delayed", **labels)
        #: Optional fault hook ``(msg) -> None | "drop" | float``: None for
        #: clean delivery, "drop" to lose the message after the CPU cost is
        #: paid, a float to delay posting by that many seconds.
        self.fault_hook = None
        # The receive ring, pre-posted (setup time, not charged); receive() re-posts by wr_id.
        self._ring = [RecvWR(length=CTRL_MSG_BYTES, wr_id=i) for i in range(recv_depth)]
        for wr in self._ring:
            qp.post_recv(wr)

    def send(self, thread: "CpuThread", msg: ControlMessage) -> Generator:
        """Post a control message (unsignalled SEND; fire-and-forget)."""
        yield thread.exec(self.profile.post_send_seconds)
        if self.fault_hook is not None:
            verdict = self.fault_hook(msg)
            if verdict == "drop":
                # CPU cost was paid, the message never reaches the wire —
                # models loss the reliable QP cannot see (e.g. a stale
                # route eating the datagram before the NIC retransmit
                # window, or an injected switch fault).
                self._m_dropped.add()
                tracer = self.engine.tracer
                if tracer is not None:
                    tracer.point(
                        self.engine.now, _T_DROP, msg.type._value_, msg.session_id
                    )
                self._m_sent.add()
                return
            if verdict is not None and verdict > 0:
                # Delay inline (before posting) so FIFO ordering on the QP
                # is preserved — only this message's departure slips.
                self._m_delayed.add()
                yield self.engine.timeout(verdict)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.point(
                self.engine.now, _T_SEND, msg.type._value_, msg.session_id
            )
        self.qp.post_send(
            SendWR(
                opcode=Opcode.SEND,
                length=msg.wire_bytes,
                payload=msg,
                signaled=False,
            )
        )
        self._m_sent.add()

    def receive(self, thread: "CpuThread") -> Generator:
        """Block until control messages arrive; returns the batch.

        Charges the interrupt wakeup, per-CQE poll cost, and the
        re-posting of consumed receive buffers.
        """
        yield self._recv_channel.wait(thread)
        wcs = yield self.qp.recv_cq.poll(thread, max_entries=self.recv_depth)
        messages: List[ControlMessage] = []
        for wc in wcs:
            if not wc.ok:
                continue
            messages.append(wc.payload)
            yield thread.exec(self.profile.post_recv_seconds)
            self.qp.post_recv(self._ring[wc.wr_id])
        if messages:
            self._m_received.add(len(messages))
        return messages


class DataChannels:
    """The parallel data-plane QPs (§IV-A: multi-channel transfer)."""

    def __init__(
        self, qps: List["QueuePair"], breaker_lookup: Callable[[int], ChannelBreaker]
    ) -> None:
        if not qps:
            raise ValueError("need at least one data QP")
        self.qps = qps
        #: ``qp_num -> ChannelBreaker``: :meth:`_pick` skips quarantined
        #: (OPEN) channels.  A QP that is RTS but quarantined does NOT
        #: count as lost: if the breakers would reject every live QP, the
        #: least-recently tripped one is force-admitted instead, so
        #: NoLiveChannelError keeps its exact meaning (no RTS QP at all).
        self.breaker_lookup = breaker_lookup
        self.engine = qps[0].engine
        self.profile = qps[0].device.arch_profile
        self._rr = 0
        reg = self.engine.metrics
        self._idx = reg.sequence("data_channels")
        self.blocks_posted = reg.counter("data.blocks_posted", i=self._idx)
        self.detached = reg.counter("data.qps_detached", i=self._idx)
        #: per-QP posted-block counters, bound up front (and in
        #: :meth:`adopt` for QPs re-established after failover) so the
        #: post path never touches the registry.
        self._m_posted_by_qp = {}
        for qp in qps:
            self._bind_qp_counter(qp.qp_num)
        reg.gauge_fn("data.alive_qps", lambda: self.alive_count, i=self._idx)
        #: QPs removed from the rotation after entering ERROR (failover).
        self.dead: List["QueuePair"] = []

    def __len__(self) -> int:
        return len(self.qps)

    @property
    def alive_count(self) -> int:
        """Channels still able to carry WRITEs."""
        return sum(1 for qp in self.qps if qp.state is QpState.RTS)

    def detach(self, qp_num: int) -> Optional["QueuePair"]:
        """Drop a dead QP from the send rotation (failover bookkeeping).

        Only a QP that has actually left RTS is detached — a WR_FLUSH_ERR
        completion always implies that, but the guard keeps a stale or
        duplicate flush from evicting a healthy channel.  Returns the
        detached QP, or ``None`` if nothing was removed.
        """
        for i, qp in enumerate(self.qps):
            if qp.qp_num != qp_num:
                continue
            if qp.state is QpState.RTS:
                return None
            del self.qps[i]
            self.dead.append(qp)
            self.detached.add()
            self.engine.trace("data", "detach", qp=qp_num, alive=self.alive_count)
            return qp
        return None

    def _bind_qp_counter(self, qp_num: int) -> None:
        """Bind the per-QP posted-block counter once, at membership time."""
        if qp_num not in self._m_posted_by_qp:
            self._m_posted_by_qp[qp_num] = self.engine.metrics.counter(
                "data.qp_blocks_posted", i=self._idx, qp=qp_num
            )

    def adopt(self, qp: "QueuePair") -> None:
        """Add a (re-established) QP to the send rotation."""
        self.qps.append(qp)
        self._bind_qp_counter(qp.qp_num)
        self.engine.trace("data", "adopt", qp=qp.qp_num, alive=self.alive_count)

    def _pick(self) -> "QueuePair":
        """Least-loaded live QP, round-robin tie-break.

        Honours the circuit breakers (quarantined channels are skipped
        while an admissible one exists).  Raises
        :class:`NoLiveChannelError` when every QP is dead or detached."""
        best: Optional["QueuePair"] = None
        fallback: Optional["QueuePair"] = None  # live but quarantined
        fallback_until = float("inf")
        now = self.engine.now
        lookup = self.breaker_lookup
        n = len(self.qps)
        for i in range(n):
            qp = self.qps[(self._rr + i) % n]
            if qp.state is not QpState.RTS:
                continue
            breaker = lookup(qp.qp_num)
            if not breaker.peek_admit(now):
                if breaker.open_until < fallback_until:
                    fallback, fallback_until = qp, breaker.open_until
                continue
            if best is None or qp.send_outstanding < best.send_outstanding:
                best = qp
        self._rr = (self._rr + 1) % (n or 1)  # n == 0: every QP detached
        if best is None:
            best = fallback  # all live QPs quarantined: force-admit one
        if best is None:
            raise NoLiveChannelError("all data QPs are in ERROR state")
        lookup(best.qp_num).note_post(now)
        return best

    def post_write(
        self,
        thread: "CpuThread",
        block: "SourceBlock",
        credit: "Credit",
        header: "BlockHeader",
        wr_id: Optional[int] = None,
    ) -> Generator:
        """Post one block as an RDMA WRITE against the credit's region.

        ``wr_id`` defaults to the header's sequence number; multi-session
        links pass a link-unique id so completions route unambiguously.
        """
        return self._post(thread, SendWR(
            opcode=Opcode.RDMA_WRITE,
            length=header.wire_bytes,
            wr_id=header.seq if wr_id is None else wr_id,
            remote_addr=credit.addr,
            rkey=credit.rkey,
            payload=DataBlockWire(
                header=header, payload=block.payload, block_id=credit.block_id
            ),
        ))

    def post_send_block(
        self,
        thread: "CpuThread",
        block: "SourceBlock",
        header: "BlockHeader",
        wr_id: int,
    ) -> Generator:
        """Post one block as a two-sided SEND — the *eager* transport.

        No credit precedes this: the receiver's shared receive queue
        supplies the landing buffer, so a small block costs one shared
        WQE instead of an MR exchange plus a dedicated region.  An empty
        SRQ shows up as RNR NAK + retry inside the QP, exactly the
        backpressure the rendezvous path expresses through credits.
        """
        return self._post(thread, SendWR(
            opcode=Opcode.SEND,
            length=header.wire_bytes,
            wr_id=wr_id,
            payload=DataBlockWire(header=header, payload=block.payload),
        ))

    def _post(self, thread: "CpuThread", wr: SendWR) -> Generator:
        """The one data-plane post loop: pick a channel, wait for a send
        slot, charge the post, post; fail over when the channel died."""
        while True:
            qp = self._pick()
            while qp.send_room == 0 and qp.state is QpState.RTS:
                # Woken when a slot retires or when the QP enters ERROR.
                yield qp.send_slot_retired()
            yield thread.exec(self.profile.post_send_seconds)
            try:
                qp.post_send(wr)
            except (QpStateError, QueueFullError):
                # The chosen QP died between pick and post, or another
                # poster woken by the same retire took the slot; pick again
                # (_pick raises when no live channel remains).
                continue
            break
        self.blocks_posted.add()
        self._m_posted_by_qp[qp.qp_num].add()


class HostChannelPool:
    """The data plane a :class:`~repro.core.source_link.SourceLink` rides:
    data QPs on one send CQ, the registered source block pool, a wr_id
    space, the channel breakers and the CQ's one reaper.

    ``config.use_srq`` picks the *sharing scope*.  A **private** set is a
    dedicated link's ``num_channels`` QPs with one rider and no
    ``sessions``; its breakers cool down by that rider's adaptive
    ``health.breaker_cooldown`` (bound when it boards).  A **shared** set
    serves every link to one ``(host, port)`` peer with ``qp_pool_size``
    QPs and a :class:`~repro.core.pool.ResourcePool` of session leases,
    so pinned memory and QP count stay constant as sessions grow; its
    breakers use the static floor, quarantining a flapping QP for every
    rider at once.  Each posted WR has one entry in :attr:`inflight`,
    settled by the reaper, :func:`repro.core.source_link._reap`.  It
    builds the rotation (on :meth:`breaker_for`), the block pool and the
    lease pool from the connected ``qps``, in their metrics' order.
    """

    def __init__(
        self,
        host: "Host",
        pd: "ProtectionDomain",
        qps: List["QueuePair"],
        send_cq: "CompletionQueue",
        config: "ProtocolConfig",
    ) -> None:
        self.host = host
        self.engine = host.engine
        self.data = data = DataChannels(qps, self.breaker_for)
        self.block_pool = BlockPool.build_source(host, pd, config.source_blocks, config.block_size)
        self.sessions = sessions = (
            ResourcePool(self.engine, config.pool_sessions) if config.use_srq else None
        )
        self.send_cq = send_cq
        self.cc = CompletionChannel(send_cq)
        self.config = config
        #: Breaker cooldown, ``() -> seconds``.
        self.cooldown: Optional[Callable[[], float]] = (
            None if sessions is None else lambda: config.breaker_cooldown_min
        )
        #: Data QPs in creation order, reopened ones included; the live
        #: rotation in ``data`` shrinks as channels die.
        self.qps: List["QueuePair"] = list(data.qps)
        self.wr_ids = itertools.count()
        #: wr_id -> (link, job, block, credit, failed_attempts, is_repair,
        #: posted_at), popped by the reaper (or by the link, for a post
        #: withdrawn before the WR reached the wire).
        self.inflight: Dict[int, tuple] = {}
        #: qp_num -> breaker, created lazily; survives detach/adopt so a
        #: QP that comes back keeps its quarantine history.
        self.breakers: Dict[int, ChannelBreaker] = {}
        self.reaping = False  # the first rider's first session starts it

    def breaker_for(self, qp_num: int) -> ChannelBreaker:
        breaker = self.breakers.get(qp_num)
        if breaker is None:
            breaker = ChannelBreaker(
                qp_num, self.config.breaker_failures, self.cooldown
            )
            self.breakers[qp_num] = breaker
        return breaker
