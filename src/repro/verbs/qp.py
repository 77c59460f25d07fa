"""Queue pairs: the RC transport with faithful completion semantics.

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
  remote, rkey-validated region with no responder CQE and no responder
  CPU.
- **RDMA READ**: one-sided with a request round-trip, the responder's
  read-engine gap, and at most ``max_ord`` requests outstanding — which
  caps READ throughput at ``ord * block / RTT`` on long paths.

A posted WR is a :class:`_Wqe` record that drives itself through the
hardware stages — NIC pipeline, payload fetch, wire, placement, ACK —
by callback: each stage books its resource and re-queues the record at
the booked instant, and a stage that cannot be booked runs its
generator form in a sub-process (DESIGN.md §9, "The booking seam").

CPU cost of *posting* is charged by callers via
:meth:`QueuePair.post_send_cost`-style helpers in the middleware layer;
the QP itself consumes no host CPU (kernel bypass).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Generator, Optional

from repro.sim.events import Event, Timeout, _schedule
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.verbs.errors import (
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

__all__ = ["QpState", "QueuePair", "connect_pair"]

# Trace shapes of the per-WQE points: (category, message, *field_names).
_T_POST = ("qp", "post_send", "qp", "op", "wr_id", "len")
_T_COMPLETE = ("qp", "complete", "qp", "wr_id", "status")

#: Per the InfiniBand spec, an RNR retry count of 7 means "retry forever".
RNR_RETRY_INFINITE = 7


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
        if wr.opcode is Opcode.RECV:
            raise QpStateError("RECV is not a send-queue opcode")
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
        # later: must stay the last statement (the record's first stage,
        # and an eager sub-process it may start, run here).
        _Wqe(self, wr, ssn)

    # -- completion ordering ------------------------------------------------------------
    def _retire(self, ssn: int, wr: SendWR, status: WcStatus) -> None:
        """Complete the WR posted as ``ssn``: CQEs leave in post order.

        Only a signaled WR gets a :class:`WorkCompletion`; a WR that
        finishes ahead of an older one parks in ``_done`` until the
        older one retires.
        """
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.point(
                self.engine._now, _T_COMPLETE,
                self.qp_num, wr.wr_id, status._value_,
            )
        wc = None
        if wr.signaled:
            wc = WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                status=status,
                byte_len=wr.length,
                qp_num=self.qp_num,
            )
        done = self._done
        if ssn != self._next_complete:
            done[ssn] = wc
            return
        while True:
            self._next_complete = ssn = ssn + 1
            self._outstanding_sends -= 1
            if wc is not None:
                self.send_cq.push(wc)
            if self._slot_retired is not None:
                waiter, self._slot_retired = self._slot_retired, None
                waiter.succeed()
            if ssn not in done:
                return
            wc = done.pop(ssn)

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
            f"<QP {self.qp_num} {self.state.value} "
            f"out={self._outstanding_sends}>"
        )


class _Wqe(Event):
    """One posted send WR on its way through the hardware stages.

    The record is its own timer.  A stage that books a resource through
    the booking seam (``Nic.book_wqe``, ``PcieBus.book``, ``Path.book``,
    ``Path.ctrl_wait``) queues the record at the booked instant with the
    next stage as its one callback: one heap entry per stage, no
    ``Process``, no generator frame, no ``Timeout``.  A stage that cannot
    be booked (the discrete engine, a zero-length WR, a per-hop wire, an
    RNR wait) runs its generator form in an eager sub-process whose body
    calls the next stage when the form returns, as ``yield from`` did.

    A stage method's argument is the record when a booking of the stage
    before it brought the WR here (the method then does that stage's
    accounting, which a generator form does itself), the ``Resource``
    grant for a stage that takes one, and ``None`` otherwise.

    The stages that reach a CQ, an MR or a hook (``_landed``,
    ``_placed``, ``_replied``, ``_requested``) and the sub-process body
    catch what they raise and fail the record (:meth:`_fail`); the
    others only book.
    """

    __slots__ = ("qp", "wr", "ssn", "booked", "target", "status", "attempts")

    def __init__(self, qp: QueuePair, wr: SendWR, ssn: int) -> None:
        # The Event slots, set by hand (see the note in ``sim/events.py``);
        # each booking sets ``callbacks``.
        self.engine = engine = qp.engine
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.qp = qp
        self.wr = wr
        self.ssn = ssn
        # Under the fluid engine a WR with a payload books its stages;
        # otherwise each stage runs its generator form.
        self.booked = engine.use_fluid and wr.length > 0
        #: Where the payload lands: the rkey's region for WRITE / READ,
        #: the consumed receive WR for SEND.
        self.target = None
        #: The status the ACK / NAK in flight will complete the WR with.
        self.status = WcStatus.SUCCESS
        self.attempts = 0  # RNR NAKs so far
        self._issue()

    # -- stages, in the order a WR meets them ----------------------------------------
    def _issue(self) -> None:
        """The WQE takes a NIC pipeline."""
        qp, wr = self.qp, self.wr
        if wr.opcode is not Opcode.SEND:
            self.target = qp.peer.pd.lookup_rkey(wr.rkey)
        nic = qp.device.nic
        if self.booked:
            _schedule(self, nic.book_wqe(), self._wqe_done)
        else:
            self._run(nic.process_wqe(), self._wqe_done)

    def _wqe_done(self, ev: Optional[Event] = None) -> None:
        """READ takes an ORD slot; SEND / WRITE fetch the payload."""
        qp = self.qp
        nic = qp.device.nic
        if ev is not None:
            nic.wqes_processed += 1
        if self.wr.opcode is Opcode.RDMA_READ:
            grant = qp._ord.request()  # outstanding-read limit (ORD)
            if grant.callbacks is None:
                self._request(grant)
            else:
                grant.callbacks.append(self._request)
            return
        bus, n = nic.host.pcie, self.wr.length
        if self.booked:
            _schedule(self, bus.book(n), self._wire)
        else:
            self._run(bus.dma(n), self._wire)

    def _request(self, grant: Event) -> None:
        """READ holds an ORD slot: the request packet crosses the path
        (``ctrl_wait`` is never 0: it includes the datagram's
        serialisation)."""
        _schedule(self, self.engine._now + self.qp.path.ctrl_wait, self._requested)

    def _requested(self, ev: Optional[Event] = None) -> None:
        """The READ request is at the responder: its read engine serves it."""
        try:
            qp = self.qp
            qp.path._m_ctrl.add()
            if not self._rkey_ok(write=False):
                self._reply(WcStatus.REM_ACCESS_ERR)
                return
            nic = qp.peer.device.nic
            if not self.booked:
                self._run(nic.serve_read(self.wr.length), self._wire)
                return
            grant = nic.read_engine.request()
            if grant.callbacks is None:
                self._serve(grant)
            else:
                grant.callbacks.append(self._serve)
        except Exception as exc:
            self._fail(exc)

    def _serve(self, grant: Event) -> None:
        """The responder's read engine is ours: its per-request gap."""
        gap = self.qp.peer.device.nic.profile.read_gap_seconds
        _schedule(self, self.engine._now + gap, self._gap_done)

    def _gap_done(self, ev: Event) -> None:
        """The read engine fetches the payload over the responder's bus."""
        bus = self.qp.peer.device.nic.host.pcie
        _schedule(self, bus.book(self.wr.length), self._served)

    def _served(self, ev: Event) -> None:
        """The read engine frees; the response goes on the wire."""
        nic, n = self.qp.peer.device.nic, self.wr.length
        nic.host.pcie.bytes_moved += n
        nic.read_engine.release()
        nic.read_requests_served += 1
        self._wire()

    def _wire(self, ev: Optional[Event] = None) -> None:
        """The payload crosses the wire: the request path for SEND /
        WRITE (and a SEND's retransmit after an RNR NAK), the response
        path for READ."""
        qp, n = self.qp, self.wr.length
        if ev is not None:
            qp.device.nic.host.pcie.bytes_moved += n  # the payload fetch
        path = qp.rpath if self.wr.opcode is Opcode.RDMA_READ else qp.path
        if self.booked and path.chain_ok():
            # A booked WR moves bytes, so it lands strictly later.
            _schedule(self, path.book(n), self._landed)
        else:
            self._run(path.transmit(n), self._landed)

    def _landed(self, ev: Optional[Event] = None) -> None:
        """The payload is at the far end: the verbs rules of arrival,
        then the placement DMA over the receiving host's bus."""
        try:
            qp, wr = self.qp, self.wr
            n, op, peer = wr.length, wr.opcode, qp.peer
            if ev is not None:
                (qp.rpath if op is Opcode.RDMA_READ else qp.path).arrived(n)
            bus = peer.device.nic.host.pcie
            if op is Opcode.RDMA_READ:
                bus = qp.device.nic.host.pcie
            elif op is Opcode.SEND:
                if not peer._has_recv():
                    self._rnr(self._wire)
                    return
                self.target = rwr = peer._take_recv()
                if n > rwr.length:
                    self._finish(WcStatus.LOC_LEN_ERR)
                    return
            else:
                if qp.state is QpState.ERROR:
                    # The QP was killed while this WR was on the wire; the
                    # write never lands and the WR flushes.
                    self._finish(WcStatus.WR_FLUSH_ERR)
                    return
                if qp.fault_injector is not None and qp.fault_injector(wr):
                    self._reply(WcStatus.SIM_FAULT)
                    return
                if not self._rkey_ok(write=True):
                    self._reply(WcStatus.REM_ACCESS_ERR)
                    return
            if self.booked:
                _schedule(self, bus.book(n), self._placed)
            else:
                self._run(bus.dma(n), self._placed)
        except Exception as exc:
            self._fail(exc)

    def _placed(self, ev: Optional[Event] = None) -> None:
        """The payload is in memory: the receive CQE (SEND), the landed
        region (WRITE) or the fetched data (READ)."""
        try:
            qp, wr = self.qp, self.wr
            n, op, peer = wr.length, wr.opcode, qp.peer
            if ev is not None:
                (qp if op is Opcode.RDMA_READ else peer).device.nic.host.pcie.bytes_moved += n
            if op is Opcode.RDMA_READ:
                wr.payload = self.target.fetch(wr.remote_addr)
                self._finish(WcStatus.SUCCESS)
                return
            if op is Opcode.SEND:
                rwr = self.target
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
            else:
                payload = wr.payload
                if qp.corrupt_injector is not None:
                    tampered = qp.corrupt_injector(wr)
                    if tampered is not None:
                        payload = tampered
                self.target.place(wr.remote_addr, payload)
            self._reply(WcStatus.SUCCESS)
        except Exception as exc:
            self._fail(exc)

    def _reply(self, status: WcStatus) -> None:
        """The responder's ACK (or NAK) travels back; it completes the WR."""
        self.status = status
        _schedule(self, self.engine._now + self.qp.rpath.ctrl_wait, self._replied)

    def _replied(self, ev: Optional[Event] = None) -> None:
        """The ACK / NAK is back."""
        try:
            self.qp.rpath._m_ctrl.add()
            self._finish(self.status)
        except Exception as exc:
            self._fail(exc)

    # -- the verbs rules every opcode shares ------------------------------------------
    def _rkey_ok(self, write: bool) -> bool:
        """Does the rkey name a region that admits this access?"""
        wr, region = self.wr, self.target
        if region is None:
            return False
        try:
            region.check_remote(wr.remote_addr, wr.length, write=write)
        except RemoteAccessError:
            return False
        return True

    def _rnr(self, resume: Callable[[], None]) -> None:
        """Receiver Not Ready: past the retry limit the WR fails;
        otherwise the NAK travels back, the RNR timer runs, and the WR
        tries again from ``resume``."""
        qp = self.qp
        qp.rnr_naks.add()
        self.attempts += 1
        if qp.rnr_retry != RNR_RETRY_INFINITE and self.attempts > qp.rnr_retry:
            self._finish(WcStatus.RNR_RETRY_EXC_ERR)
        else:
            self._run(self._rnr_wait(), resume)

    def _rnr_wait(self) -> Generator:
        """The RNR NAK travels back, then the RNR timer runs."""
        qp = self.qp
        yield from qp.rpath.deliver_latency()
        yield Timeout(self.engine, qp.rnr_timer)

    def _finish(self, status: WcStatus) -> None:
        """The retire epilogue: free the ORD slot (READ), retire in post
        order, count the bytes, and put the QP in ERROR on a real RC
        error (an injected SIM_FAULT leaves it usable, so recovery
        paths can be tested)."""
        qp, wr = self.qp, self.wr
        if wr.opcode is Opcode.RDMA_READ:
            qp._ord.release()
        qp._retire(self.ssn, wr, status)
        if status is WcStatus.SUCCESS:
            qp.bytes_sent.add(wr.length)
        elif status is not WcStatus.SIM_FAULT:
            qp._enter_error()

    # -- plumbing ---------------------------------------------------------------------
    def _run(self, form: Generator, stage: Callable[[], None]) -> None:
        """Run a stage's generator form, then ``stage``, in an eager
        sub-process.  Always a stage's last action (``Process``'s
        ``_eager`` rule)."""
        Process(self.engine, self._then(form, stage), _eager=True)

    def _then(self, form: Generator, stage: Callable[[], None]) -> Generator:
        try:
            yield from form
            stage()
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        """A stage raised: fail the record at this instant, so
        ``Engine.run`` raises ``SimulationError`` from ``exc`` where a
        failed process body's failure would surface.  The WR never
        retires."""
        self._value = exc
        _schedule(self, self.engine._now, self._surface)

    def _surface(self, ev: Event) -> None:
        self._ok = False


def connect_pair(qp_a: QueuePair, qp_b: QueuePair, duplex: "DuplexPath") -> None:
    """Wire two QPs together over a duplex path (both become RTS)."""
    qp_a.attach(qp_b, duplex)
    qp_b.attach(qp_a, duplex.reversed())
