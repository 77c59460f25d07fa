"""Queue pairs: RC and UD transports with faithful completion semantics.

The RC (Reliable Connected) QP implements what the paper's protocol
relies on:

- **Asynchronous depth**: many WRs execute concurrently; ordering is
  preserved only where hardware FIFO stages (NIC WQE pipeline, PCIe bus,
  link) impose it, and *completions* are delivered strictly in post order
  per QP (RC ordering rule).
- **SEND/RECV (channel semantics)**: two-sided; the responder must have
  pre-posted a receive WR or the sender gets an RNR NAK and retries after
  the RNR timer — the exact failure mode whose avoidance motivates the
  middleware's credit scheme.
- **RDMA WRITE (memory semantics)**: one-sided; payload lands in a
  remote, rkey-validated region with no responder CQE (unless WRITE-with-
  immediate is used) and no responder CPU.
- **RDMA READ**: one-sided with a request round-trip, the responder's
  read-engine gap, and at most ``max_ord`` requests outstanding — which
  caps READ throughput at ``ord * block / RTT`` on long paths.
- **UD**: datagrams bounded by path MTU, no acknowledgement, silent drop
  when no receive WR is posted.

CPU cost of *posting* is charged by callers via
:meth:`QueuePair.post_send_cost`-style helpers in the middleware layer;
the QP itself consumes no host CPU (kernel bypass).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional


from repro.sim.events import Event, Timeout, TimeoutAt
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.verbs.errors import (
    MtuExceededError,
    QpStateError,
    QueueFullError,
    RemoteAccessError,
)
from repro.verbs.wr import Opcode, RecvWR, SendWR, WcStatus, WorkCompletion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import DuplexPath, Path
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.device import Device
    from repro.verbs.pd import ProtectionDomain
    from repro.verbs.srq import SharedReceiveQueue

__all__ = ["QpType", "QpState", "QueuePair", "connect_pair"]

# Trace shapes of the per-WQE points: (category, message, *field_names).
_T_POST = ("qp", "post_send", "qp", "op", "wr_id", "len")
_T_COMPLETE = ("qp", "complete", "qp", "wr_id", "status")

#: Per the InfiniBand spec, an RNR retry count of 7 means "retry forever".
RNR_RETRY_INFINITE = 7


class QpType(enum.Enum):
    RC = "rc"
    UD = "ud"


class QpState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTR = "rtr"
    RTS = "rts"
    ERROR = "error"


class QueuePair:
    """One endpoint of an RDMA channel."""

    def __init__(
        self,
        device: "Device",
        qp_num: int,
        pd: "ProtectionDomain",
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
        qp_type: QpType = QpType.RC,
        max_send_wr: int = 512,
        max_recv_wr: int = 1024,
        max_ord: Optional[int] = None,
        rnr_retry: int = RNR_RETRY_INFINITE,
        rnr_timer: float = 0.12e-3,
        srq: Optional["SharedReceiveQueue"] = None,
    ) -> None:
        if max_send_wr < 1 or max_recv_wr < 1:
            raise ValueError("queue depths must be >= 1")
        if srq is not None and srq.pd is not pd:
            raise QpStateError("SRQ and QP must share a protection domain")
        self.device = device
        self.engine = device.engine
        self.qp_num = qp_num
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_type = qp_type
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.rnr_retry = rnr_retry
        self.rnr_timer = rnr_timer
        self.state = QpState.INIT

        nic_ord = device.nic.profile.max_ord
        self.max_ord = min(max_ord, nic_ord) if max_ord else nic_ord
        self._ord = Resource(self.engine, capacity=self.max_ord)

        self.peer: Optional["QueuePair"] = None
        self.path: Optional["Path"] = None  # self -> peer
        self.rpath: Optional["Path"] = None  # peer -> self

        #: Shared receive queue; when set, arrivals draw WQEs from it
        #: instead of the per-QP receive queue (which stays unused).
        self.srq = srq
        self._recv_queue: Deque[RecvWR] = deque()
        self._outstanding_sends = 0
        self._slot_retired: Optional[Event] = None
        self._ssn = 0  # send sequence number (post order)
        self._next_complete = 0
        self._done: Dict[int, Optional[WorkCompletion]] = {}

        # Registry counters; host + qp_num labels make them unique per
        # endpoint (qp_num allocation is per device, one device per host
        # here).
        reg = self.engine.metrics
        labels = {"host": device.host.name, "qp": qp_num}
        self.rnr_naks = reg.counter("qp.rnr_naks", **labels)
        self.ud_drops = reg.counter("qp.ud_drops", **labels)
        self.bytes_sent = reg.counter("qp.bytes_sent", **labels)
        #: Optional fault hook ``(SendWR) -> bool``: return True to fail
        #: the WR with :data:`WcStatus.SIM_FAULT` after it crosses the
        #: wire (payload is discarded; the QP survives).  Testing only.
        self.fault_injector: Optional[object] = None
        #: Optional corruption hook ``(SendWR) -> Optional[payload]``:
        #: return a tampered payload to place it at the target instead of
        #: the WR's own, or None for clean delivery.  Models in-flight bit
        #: rot below the transport's CRC (the WR still *completes*
        #: successfully — only end-to-end checksums can catch it).
        self.corrupt_injector: Optional[object] = None

    # -- wiring ------------------------------------------------------------------
    def attach(self, peer: "QueuePair", duplex: "DuplexPath") -> None:
        """Bind this QP to its peer over a duplex path and move to RTS."""
        if self.state is QpState.ERROR:
            raise QpStateError("cannot attach a QP in ERROR state")
        self.peer = peer
        self.path = duplex.forward
        self.rpath = duplex.backward
        self.state = QpState.RTS

    # -- receive side ---------------------------------------------------------------
    def post_recv(self, wr: RecvWR) -> None:
        """Queue a receive buffer (no timing; CPU cost charged by caller)."""
        if self.srq is not None:
            # Real verbs reject per-QP receives on an SRQ-attached QP;
            # receive provisioning happens once, on the shared queue.
            raise QpStateError("QP uses an SRQ: post receives on the SRQ")
        if self.state in (QpState.RESET, QpState.ERROR):
            raise QpStateError(f"post_recv in state {self.state.value}")
        if len(self._recv_queue) >= self.max_recv_wr:
            raise QueueFullError("receive queue full")
        self._recv_queue.append(wr)

    def _has_recv(self) -> bool:
        """Is a receive WQE available for an arriving message?

        Consults the SRQ when attached; counts a dry shared queue on the
        SRQ's accounting.  Pure equivalent of ``bool(self._recv_queue)``
        when no SRQ is attached.
        """
        if self.srq is not None:
            if self.srq.recv_posted:
                return True
            self.srq._note_empty()
            return False
        return bool(self._recv_queue)

    def _take_recv(self) -> RecvWR:
        """Consume the next receive WQE (shared when an SRQ is attached)."""
        if self.srq is not None:
            return self.srq._take()
        return self._recv_queue.popleft()

    # -- send side --------------------------------------------------------------
    @property
    def send_outstanding(self) -> int:
        """Number of send-queue WRs not yet completed."""
        return self._outstanding_sends

    @property
    def send_room(self) -> int:
        """Free send-queue slots."""
        return self.max_send_wr - self._outstanding_sends

    def send_slot_retired(self) -> Event:
        """One-shot event fired the next time a send-queue slot retires."""
        if self._slot_retired is None:
            self._slot_retired = Event(self.engine)
        return self._slot_retired

    def post_send(self, wr: SendWR) -> None:
        """Post a work request; execution proceeds asynchronously."""
        if self.state is not QpState.RTS:
            raise QpStateError(f"post_send in state {self.state.value}")
        if self._outstanding_sends >= self.max_send_wr:
            raise QueueFullError("send queue full")
        if self.qp_type is QpType.UD:
            assert self.path is not None
            if wr.length > self.path.mtu:
                raise MtuExceededError(
                    f"UD datagram {wr.length} exceeds path MTU {self.path.mtu}"
                )
            if wr.opcode is not Opcode.SEND:
                raise QpStateError("UD supports only SEND")
        self._outstanding_sends += 1
        ssn = self._ssn
        self._ssn += 1
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.point(
                self.engine._now, _T_POST,
                self.qp_num, wr.opcode._value_, wr.wr_id, wr.length,
            )
        # The WQE reaches the NIC inside this call, not one zero-delay hop
        # later: must stay the last statement (see ``Process``'s ``_eager``).
        Process(self.engine, self._execute(wr, ssn), _eager=True)

    # -- execution ----------------------------------------------------------------
    def _execute(self, wr: SendWR, ssn: int) -> Generator:
        assert self.peer is not None and self.path is not None
        assert self.rpath is not None
        nic = self.device.nic
        peer = self.peer
        status = WcStatus.SUCCESS
        # The opcode bodies book the hardware stages and sleep on the booked
        # instants themselves (one frame below this one).  The stages'
        # generator forms take the discrete engine, zero-length WRs (no DMA,
        # no serialisation) and paths that are not ``chain_ok``.
        booked = self.engine.use_fluid and wr.length > 0
        try:
            if wr.opcode is Opcode.SEND:
                status = yield from self._do_send(wr, nic, peer, booked)
            elif wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
                status = yield from self._do_write(wr, nic, peer, booked)
            elif wr.opcode is Opcode.RDMA_READ:
                status = yield from self._do_read(wr, nic, peer, booked)
            else:  # pragma: no cover - defensive
                raise QpStateError(f"unsupported opcode {wr.opcode}")
        finally:
            wc = WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                status=status,
                byte_len=wr.length,
                qp_num=self.qp_num,
            )
            self._retire(ssn, wc, signaled=wr.signaled)
        if status is WcStatus.SUCCESS:
            self.bytes_sent.add(wr.length)
        elif status is not WcStatus.SIM_FAULT:
            # Real RC errors are fatal to the QP; injected transient
            # faults leave it usable so recovery paths can be tested.
            self._enter_error()

    def _do_send(self, wr: SendWR, nic, peer: "QueuePair", booked: bool) -> Generator:
        engine, path, n = self.engine, self.path, wr.length
        bus, peer_bus = nic.host.pcie, peer.device.nic.host.pcie
        if booked:
            yield TimeoutAt(engine, nic.book_wqe())
            nic.wqes_processed += 1
            yield TimeoutAt(engine, bus.book(n))  # payload fetch
            bus.bytes_moved += n
        else:
            yield from nic.process_wqe()
            yield from bus.dma(n)
        attempts = 0
        while True:
            if booked and path.chain_ok():
                arrival = path.book(n)
                if arrival > engine.now:
                    yield TimeoutAt(engine, arrival)
                path.arrived(n)
            else:
                yield from path.transmit(n)
            if self.qp_type is QpType.UD:
                # Unreliable: local completion as soon as it is on the wire.
                peer._deliver_datagram(wr)
                return WcStatus.SUCCESS
            if peer._has_recv():
                break
            # Receiver Not Ready: NAK travels back, wait RNR timer, retry.
            self.rnr_naks.add()
            attempts += 1
            if self.rnr_retry != RNR_RETRY_INFINITE and attempts > self.rnr_retry:
                return WcStatus.RNR_RETRY_EXC_ERR
            yield from self.rpath.deliver_latency()
            yield Timeout(engine, self.rnr_timer)
        rwr = peer._take_recv()
        if n > rwr.length:
            return WcStatus.LOC_LEN_ERR
        if booked:
            yield TimeoutAt(engine, peer_bus.book(n))  # payload placement
            peer_bus.bytes_moved += n
        else:
            yield from peer_bus.dma(n)
        peer.recv_cq.push(
            WorkCompletion(
                wr_id=rwr.wr_id,
                opcode=Opcode.RECV,
                status=WcStatus.SUCCESS,
                byte_len=n,
                payload=wr.payload,
                qp_num=peer.qp_num,
            )
        )
        yield from self.rpath.deliver_latency()  # hardware ACK
        return WcStatus.SUCCESS

    def _do_write(self, wr: SendWR, nic, peer: "QueuePair", booked: bool) -> Generator:
        target = peer.pd.lookup_rkey(wr.rkey)
        engine, path, n = self.engine, self.path, wr.length
        bus, peer_bus = nic.host.pcie, peer.device.nic.host.pcie
        if booked:
            yield TimeoutAt(engine, nic.book_wqe())
            nic.wqes_processed += 1
            yield TimeoutAt(engine, bus.book(n))  # payload fetch
            bus.bytes_moved += n
        else:
            yield from nic.process_wqe()
            yield from bus.dma(n)
        if booked and path.chain_ok():
            arrival = path.book(n)
            if arrival > engine.now:
                yield TimeoutAt(engine, arrival)
            path.arrived(n)
        else:
            yield from path.transmit(n)
        if self.state is QpState.ERROR:
            # The QP was killed while this WR was on the wire; the write
            # never lands and the WR flushes.
            return WcStatus.WR_FLUSH_ERR
        if self.fault_injector is not None and self.fault_injector(wr):
            yield from self.rpath.deliver_latency()  # NAK comes back
            return WcStatus.SIM_FAULT
        try:
            if target is None:
                raise RemoteAccessError(f"unknown rkey {wr.rkey!r}")
            target.check_remote(wr.remote_addr, n, write=True)
        except RemoteAccessError:
            yield from self.rpath.deliver_latency()  # NAK
            return WcStatus.REM_ACCESS_ERR
        if booked:
            yield TimeoutAt(engine, peer_bus.book(n))  # payload placement
            peer_bus.bytes_moved += n
        else:
            yield from peer_bus.dma(n)
        payload = wr.payload
        if self.corrupt_injector is not None:
            tampered = self.corrupt_injector(wr)
            if tampered is not None:
                payload = tampered
        target.place(wr.remote_addr, payload)
        if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
            if not peer._has_recv():
                # Immediate data consumes a receive WR; RNR applies.
                self.rnr_naks.add()
                yield from self.rpath.deliver_latency()
                yield Timeout(engine, self.rnr_timer)
                return (yield from self._do_write(wr, nic, peer, booked))
            rwr = peer._take_recv()
            peer.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.SUCCESS,
                    byte_len=n,
                    imm_data=wr.imm_data,
                    qp_num=peer.qp_num,
                )
            )
        yield from self.rpath.deliver_latency()  # hardware ACK
        return WcStatus.SUCCESS

    def _do_read(self, wr: SendWR, nic, peer: "QueuePair", booked: bool) -> Generator:
        source = peer.pd.lookup_rkey(wr.rkey)
        engine, rpath, n = self.engine, self.rpath, wr.length
        bus = nic.host.pcie
        if booked:
            yield TimeoutAt(engine, nic.book_wqe())
            nic.wqes_processed += 1
        else:
            yield from nic.process_wqe()
        yield self._ord.request()  # outstanding-read limit (ORD)
        try:
            yield from self.path.deliver_latency()  # READ request packet
            try:
                if source is None:
                    raise RemoteAccessError(f"unknown rkey {wr.rkey!r}")
                source.check_remote(wr.remote_addr, n, write=False)
            except RemoteAccessError:
                yield from rpath.deliver_latency()
                return WcStatus.REM_ACCESS_ERR
            yield from peer.device.nic.serve_read(n)
            if booked and rpath.chain_ok():
                arrival = rpath.book(n)
                if arrival > engine.now:
                    yield TimeoutAt(engine, arrival)
                rpath.arrived(n)
            else:
                yield from rpath.transmit(n)
            if booked:
                yield TimeoutAt(engine, bus.book(n))  # payload placement
                bus.bytes_moved += n
            else:
                yield from bus.dma(n)
            wr.payload = source.fetch(wr.remote_addr)
            return WcStatus.SUCCESS
        finally:
            self._ord.release()

    # -- UD delivery -----------------------------------------------------------------
    def _deliver_datagram(self, wr: SendWR) -> None:
        if not self._has_recv():
            self.ud_drops.add()
            return
        rwr = self._take_recv()
        self.recv_cq.push(
            WorkCompletion(
                wr_id=rwr.wr_id,
                opcode=Opcode.RECV,
                status=WcStatus.SUCCESS,
                byte_len=wr.length,
                payload=wr.payload,
                qp_num=self.qp_num,
            )
        )

    # -- completion ordering ------------------------------------------------------------
    def _retire(self, ssn: int, wc: WorkCompletion, signaled: bool) -> None:
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.point(
                self.engine._now, _T_COMPLETE,
                self.qp_num, wc.wr_id, wc.status._value_,
            )
        self._done[ssn] = wc if signaled else None
        while self._next_complete in self._done:
            pending = self._done.pop(self._next_complete)
            self._next_complete += 1
            self._outstanding_sends -= 1
            if pending is not None:
                self.send_cq.push(pending)
            if self._slot_retired is not None:
                waiter, self._slot_retired = self._slot_retired, None
                waiter.succeed()

    def _enter_error(self) -> None:
        if self.state is QpState.ERROR:
            return
        self.state = QpState.ERROR
        # A SEND stuck in RNR retry never retires, so a poster waiting
        # for a send slot is woken here and fails over instead.
        if self._slot_retired is not None:
            waiter, self._slot_retired = self._slot_retired, None
            waiter.succeed()
        # Flush posted receives.  Shared WQEs are deliberately *not*
        # flushed: an SRQ outlives any one attached QP and keeps serving
        # the survivors (matching ibv_srq semantics).
        while self._recv_queue:
            rwr = self._recv_queue.popleft()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.WR_FLUSH_ERR,
                    qp_num=self.qp_num,
                )
            )

    def kill(self) -> None:
        """Force the QP into ERROR (injected channel death).

        In-flight WRs flush with WR_FLUSH_ERR instead of landing, new
        posts are rejected, and posted receives are flushed — the same
        observable behaviour as a NIC port or cable failure on this
        channel.  The QP stays in ERROR so failover logic can observe
        the state.
        """
        self._enter_error()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<QP {self.qp_num} {self.qp_type.value} {self.state.value} "
            f"out={self._outstanding_sends}>"
        )


def connect_pair(qp_a: QueuePair, qp_b: QueuePair, duplex: "DuplexPath") -> None:
    """Wire two QPs together over a duplex path (both become RTS)."""
    if qp_a.qp_type is not qp_b.qp_type:
        raise QpStateError("QP types must match")
    qp_a.attach(qp_b, duplex)
    qp_b.attach(qp_a, duplex.reversed())
