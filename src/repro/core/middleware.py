"""Public middleware facade: connect, serve, transfer.

This is the API applications (RFTP, examples, benchmarks) program
against.  A server middleware listens for sessions; a client middleware
establishes one control QP plus ``num_channels`` data QPs per transfer,
runs sessions over a :class:`~repro.core.source_link.SourceLink`, and returns a
:class:`TransferOutcome` with protocol statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.core.channels import ControlChannel, DataChannels, HostChannelPool
from repro.core.config import ProtocolConfig
from repro.core.messages import HEADER_BYTES
from repro.core.pool import BlockPool, ResourcePool
from repro.core.sink_engine import SinkEngine
from repro.core.source_link import SourceLink
from repro.sim.events import Event
from repro.verbs.cq import CompletionChannel
from repro.verbs.wr import RecvWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.host import Host
    from repro.sim.engine import Engine
    from repro.verbs.cm import ConnectionManager
    from repro.verbs.device import Device
    from repro.verbs.srq import SharedReceiveQueue

__all__ = ["RdmaMiddleware", "TransferOutcome", "allocate_session_id"]

#: Per-QP send queue depth.
SEND_QUEUE_DEPTH = 512
#: Control QP receive ring size.
CTRL_RECV_DEPTH = 128


def allocate_session_id(engine: "Engine") -> int:
    """Draw the next id (1, 2, 3, ...) from ``engine``'s session-id space.

    Exposed for callers (the transfer broker) that must know a session's
    id *before* launching the transfer, so the attempt can be journaled
    and — after a crash — re-attached via SESSION_RESUME under the same
    id the sink already holds marker state for.  Ids are per engine, so
    two identical runs in one process draw identical ids.
    """
    return engine.metrics.sequence("session_id") + 1


#: A QP's RNR NAK count, read without a Python frame per QP.
_RNR_NAKS = attrgetter("rnr_naks.count")


@dataclass(frozen=True)
class TransferOutcome:
    """Result of one completed dataset transfer.

    ``mr_requests``, ``ctrl_sent``, ``ctrl_received`` and ``rnr_naks``
    are this session's: the link's counters (the control QP and every
    data QP of its set) at the end minus at launch, so a concurrent
    sibling session's traffic on the same link falls inside the window
    too."""

    session_id: int
    bytes: int
    elapsed: float
    blocks: int
    resends: int
    mr_requests: int
    ctrl_sent: int
    ctrl_received: int
    #: The link credit ledger's high-water mark so far — a link-lifetime
    #: peak, not this session's.
    peak_credits: int
    rnr_naks: int
    #: Control-plane retransmissions this session needed (timeouts on
    #: negotiation / MR_INFO_REQ / DATASET_DONE).
    ctrl_retries: int = 0
    #: BLOCK_NACK-driven selective re-sends (checksum repair).
    repairs: int = 0
    #: First block this incarnation actually sent (non-zero only for
    #: resumed sessions: everything below came from a prior incarnation).
    resumed_from: int = 0
    #: Times the session degraded to the TCP fallback path.
    fallbacks: int = 0
    #: Blocks the TCP fallback carried.
    fallback_blocks: int = 0
    #: Times the session was promoted back to RDMA mid-transfer.
    repromotions: int = 0

    @property
    def gbps(self) -> float:
        """Application goodput in gigabits per second."""
        return self.bytes * 8.0 / self.elapsed / 1e9


class RdmaMiddleware:
    """Per-host middleware instance (Figure 2's layer)."""

    def __init__(
        self,
        host: "Host",
        device: "Device",
        cm: "ConnectionManager",
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.host = host
        self.device = device
        self.cm = cm
        self.config = config or ProtocolConfig()
        self.engine: "Engine" = host.engine
        self.pd = device.alloc_pd()
        self.sink_engines: Dict[int, SinkEngine] = {}  # by client id
        #: srq mode, client side: one shared channel set per (peer, port).
        #: Values are either a live :class:`HostChannelPool` or, while
        #: the first opener is still connecting its QPs, the ``Event``
        #: racers wait on.
        self._host_pools: Dict[Any, Any] = {}
        #: srq mode, server side: the shared receive queue and its
        #: dispatcher state, created on the first :meth:`serve`.
        self._srq: Optional["SharedReceiveQueue"] = None
        self._srq_recv_cq = None

    # -- server role ----------------------------------------------------------------
    def serve(self, port: int, data_sink: Any) -> None:
        """Start accepting transfer sessions on ``port``.

        ``data_sink`` must provide ``write(thread, nbytes, header, payload)``
        as a process generator (see :mod:`repro.apps.io`).

        In srq mode every accepted data QP is attached to one shared
        receive queue instead of owning a receive ring: eager SENDs from
        any client draw landing buffers from the same bounded WQE pool,
        and one dispatcher thread demultiplexes arrivals to the owning
        :class:`SinkEngine` by session id.
        """
        listener = self.cm.listen(self.device, port)
        if self.config.use_srq and self._srq is None:
            self._srq = self.pd.create_srq(depth=self.config.srq_depth)
            self._srq_recv_cq = self.device.create_cq()
            # Pre-post the shared ring (setup time, not charged).  Each
            # WQE must fit a full block plus its wire header, or an
            # arriving SEND is dropped with a local length error.
            wqe_len = self.config.block_size + HEADER_BYTES
            for i in range(self.config.srq_depth):
                self._srq.post_recv(RecvWR(length=wqe_len, wr_id=i))
            self.engine.process(self._srq_dispatch())

        def _accept_loop() -> Generator:
            while True:
                request = yield listener.get_request()
                kind = request.private_data[0]
                if kind == "ctrl":
                    client_id = request.private_data[1]
                    ctrl_qp = self.device.create_qp(
                        self.pd,
                        self.device.create_cq(),
                        self.device.create_cq(),
                        max_send_wr=SEND_QUEUE_DEPTH,
                    )
                    request.accept(ctrl_qp)
                    ctrl = ControlChannel(ctrl_qp, CTRL_RECV_DEPTH)
                    engine = SinkEngine(
                        self.host,
                        ctrl,
                        self.config,
                        data_sink,
                        pool_factory=self._make_sink_pool,
                    )
                    engine.start()
                    self.sink_engines[client_id] = engine
                elif kind == "data":
                    # An empty CQ is falsy (len 0), so the shared recv CQ
                    # must be tested against None, not truthiness.
                    recv_cq = (
                        self._srq_recv_cq
                        if self._srq_recv_cq is not None
                        else self.device.create_cq()
                    )
                    data_qp = self.device.create_qp(
                        self.pd,
                        self.device.create_cq(),
                        recv_cq,
                        max_send_wr=SEND_QUEUE_DEPTH,
                        srq=self._srq,
                    )
                    request.accept(data_qp)
                else:
                    raise ValueError(f"unknown endpoint kind {kind!r}")

        self.engine.process(_accept_loop())

    def _make_sink_pool(self, block_size: int) -> BlockPool:
        return BlockPool.build_sink(
            self.host, self.pd, self.config.sink_blocks, block_size
        )

    def _srq_dispatch(self) -> Generator:
        """Shared-receive-queue dispatcher: route eager arrivals.

        One thread serves every data QP attached to the SRQ.  The
        consumed WQE is re-posted only *after* the engine's handler
        returns — the handler may wait on a free sink block, so pool
        starvation shrinks the shared ring and surfaces as RNR NAKs on
        the wire, the eager analogue of withholding credits.
        """
        assert self._srq is not None and self._srq_recv_cq is not None
        thread = self.host.thread("srq-sink", "app")
        recv_channel = CompletionChannel(self._srq_recv_cq)
        profile = self.device.arch_profile
        wqe_len = self.config.block_size + HEADER_BYTES
        stray = self.engine.metrics.counter("sink.eager_stray")
        while True:
            yield recv_channel.wait(thread)
            wcs = yield self._srq_recv_cq.poll(thread, max_entries=64)
            for wc in wcs:
                if not wc.ok or wc.payload is None:
                    continue
                wire = wc.payload
                for engine in self.sink_engines.values():
                    if engine.has_session(wire.header.session_id):
                        yield from engine.on_eager_block(thread, wire)
                        break
                else:
                    # No live registration (late arrival after finish /
                    # reclaim, or a misrouted SEND): drop and count.
                    stray.add()
                yield thread.exec(profile.post_recv_seconds)
                self._srq.post_recv(RecvWR(length=wqe_len, wr_id=wc.wr_id))

    # -- client role -----------------------------------------------------------------
    def _connect_data_qp(
        self, send_cq, remote: "Device", port: int, client_id: int, index: int,
        fault_injector: Any,
    ) -> Generator:
        """Create data QP ``index`` of ``client_id`` on ``send_cq``, connect
        it and wire its hooks.  A FaultInjector exposes its data-plane
        hooks; a plain callable (the original testing interface) is the
        WRITE hook itself."""
        qp = self.device.create_qp(
            self.pd, send_cq, self.device.create_cq(), max_send_wr=SEND_QUEUE_DEPTH
        )
        yield self.cm.connect(qp, remote, port, ("data", client_id, index))
        qp.fault_injector = getattr(fault_injector, "data_qp_hook", fault_injector)
        qp.corrupt_injector = getattr(fault_injector, "data_corrupt_hook", None)
        return qp

    def _channel_set(
        self, remote: "Device", port: int, client_id: int, fault_injector: Any
    ) -> Generator:
        """The :class:`HostChannelPool` a new link rides: a private set of
        ``num_channels`` QPs or, with ``use_srq``, the set of
        ``qp_pool_size`` QPs and ``pool_sessions`` leases shared by every
        link to ``(remote, port)``.

        Only the first opener connects a shared set: it stores a pending
        event synchronously (before the first yield) and concurrent
        openers wait on it.  Its fault hooks cover every rider, matching
        the shared fate of shared channels.
        """
        cfg = self.config
        shared = cfg.use_srq
        if shared:
            entry = self._host_pools.get((remote, port))
            if isinstance(entry, HostChannelPool):
                return entry
            if entry is not None:  # creation in flight
                return (yield entry)
            pending = self._host_pools[remote, port] = Event(self.engine)
        send_cq = self.device.create_cq()
        qps = []
        for i in range(cfg.qp_pool_size if shared else cfg.num_channels):
            qps.append((yield from self._connect_data_qp(
                send_cq, remote, port, client_id, i, fault_injector
            )))
        data = DataChannels(qps)
        pool = BlockPool.build_source(
            self.host, self.pd, cfg.source_blocks, cfg.block_size
        )
        sessions = ResourcePool(self.engine, cfg.pool_sessions) if shared else None
        host_pool = HostChannelPool(self.host, data, send_cq, pool, cfg, sessions)
        if shared:
            self._host_pools[remote, port] = host_pool
            pending.succeed(host_pool)
        return host_pool

    def open_link(
        self,
        remote: "Device",
        port: int,
        fault_injector: Any = None,
        tcp_factory: Any = None,
    ):
        """Process event resolving to a :class:`SourceLink`.

        Establishes the connection set of §IV: one control QP plus the
        data QPs of a :class:`HostChannelPool` — ``num_channels`` of its
        own, or, with ``use_srq``, the set shared by every link to
        ``(remote, port)``.  Any number of concurrent or sequential
        sessions can then run over the link via
        :meth:`SourceLink.transfer`.

        ``tcp_factory`` (optional): zero-arg callable returning a
        connected :class:`~repro.tcp.connection.TcpConnection` through
        the same fabric (e.g. ``testbed.tcp_connection``).  When wired,
        a session that loses every data channel degrades to the TCP
        fallback path instead of aborting.
        """
        cfg = self.config
        client_id = self.engine.metrics.sequence("client_id") + 1

        def _open() -> Generator:
            ctrl_qp = self.device.create_qp(
                self.pd,
                self.device.create_cq(),
                self.device.create_cq(),
                max_send_wr=SEND_QUEUE_DEPTH,
            )
            yield self.cm.connect(ctrl_qp, remote, port, ("ctrl", client_id))
            ctrl = ControlChannel(ctrl_qp, CTRL_RECV_DEPTH)
            ctrl_hook = getattr(fault_injector, "ctrl_hook", None)
            if ctrl_hook is not None:
                ctrl.fault_hook = ctrl_hook
            host_pool = yield from self._channel_set(
                remote, port, client_id, fault_injector
            )
            link = SourceLink(self.host, ctrl, host_pool, cfg)
            link._client_id = client_id
            link._fault_injector = fault_injector
            link.tcp_factory = tcp_factory
            link._reopen = lambda: self.reopen_channel(link, remote, port)
            return link

        return self.engine.process(_open())

    def transfer(
        self,
        remote: "Device",
        port: int,
        data_source: Any,
        total_bytes: int,
        fault_injector: Any = None,
        link: Optional[SourceLink] = None,
        tcp_factory: Any = None,
        reuse_negotiation: bool = False,
        session_id: Optional[int] = None,
    ):
        """Process event resolving to a :class:`TransferOutcome`.

        ``data_source`` must provide ``read(thread, nbytes, seq)`` as a
        process generator returning the block payload.  Passing an
        existing ``link`` (from :meth:`open_link`) runs the session over
        it instead of establishing fresh connections.
        ``fault_injector`` (testing): a ``(SendWR) -> bool`` installed on
        every data QP; returning True fails that WRITE transiently,
        exercising the protocol's re-send path.
        ``reuse_negotiation`` (with an already-negotiated ``link``): skip
        the link-level BLOCK_SIZE/CHANNELS exchanges and open the session
        with a single SESSION_REQ round trip — the scheduler's fast path
        for runs of small files to one peer.
        ``session_id`` (optional): run the session under a caller-chosen
        id from :func:`allocate_session_id` instead of drawing one here —
        lets the broker journal the attempt before it starts.
        """
        if session_id is None:
            session_id = allocate_session_id(self.engine)
        return self._run_session(
            link, (remote, port, fault_injector, tcp_factory), False,
            data_source, total_bytes, session_id, reuse_negotiation=reuse_negotiation,
        )

    def _run_session(self, link, link_args, resumed: bool, *job_args, **job_kwargs):
        """Process event: open a link from ``link_args`` unless one was
        passed, run the job on it (:meth:`SourceLink.resume` or
        ``.transfer``) and report it as a :class:`TransferOutcome`."""

        def _run() -> Generator:
            the_link = link
            if the_link is None:
                the_link = yield self.open_link(*link_args)
            # The link's counters at launch: the outcome reports this
            # session's share of them (TransferOutcome).
            ctrl, qps = the_link.ctrl, the_link._host_pool.qps
            mr_at_launch = the_link.mr_requests_sent.total
            sent_at_launch = ctrl._m_sent.total
            received_at_launch = ctrl._m_received.total
            rnr_at_launch = sum(map(_RNR_NAKS, qps)) + ctrl.qp.rnr_naks.count
            launch = the_link.resume if resumed else the_link.transfer
            job = yield launch(*job_args, **job_kwargs)
            assert job.started_at is not None and job.finished_at is not None
            # Only a resume reports the suffix it sent (a re-promoted
            # fresh transfer also moves ``start_seq``, but carried it all).
            first = job.start_seq if resumed else 0
            return TransferOutcome(
                session_id=job.session_id,
                bytes=max(0, job.total_bytes - first * job.block_size),
                elapsed=job.finished_at - job.started_at,
                blocks=job.total_blocks - first,
                resends=job.resends,
                mr_requests=int(the_link.mr_requests_sent.total - mr_at_launch),
                ctrl_sent=int(ctrl._m_sent.total - sent_at_launch),
                ctrl_received=int(ctrl._m_received.total - received_at_launch),
                peak_credits=int(the_link.ledger.peak_balance.value),
                rnr_naks=sum(map(_RNR_NAKS, qps))
                + ctrl.qp.rnr_naks.count - rnr_at_launch,
                ctrl_retries=job.ctrl_retries,
                repairs=job.repairs,
                resumed_from=first,
                fallbacks=job.fallbacks,
                fallback_blocks=job.fallback_blocks,
                repromotions=job.repromotions,
            )

        return self.engine.process(_run())

    def resume(
        self,
        remote: "Device",
        port: int,
        data_source: Any,
        total_bytes: int,
        session_id: int,
        link: SourceLink,
    ):
        """Process event resolving to a :class:`TransferOutcome` for a
        *resumed* session, re-attached on ``link``.

        ``session_id`` must be the id of a session that previously died
        mid-transfer (on this link or a dead predecessor).  The sink is
        asked for its restart marker and only the missing suffix is read
        and re-sent; the stitched result at the sink is byte-exact.  Fails
        with a typed :class:`~repro.core.errors.TransferError` when the
        sink rejects the resume or the re-attached session aborts again.
        """
        return self._run_session(link, None, True, data_source, total_bytes, session_id)

    def reopen_channel(self, link: SourceLink, remote: "Device", port: int):
        """Process event re-establishing one data channel on ``link``.

        After a failover shrank the rotation, this restores parallelism:
        a fresh data QP is connected on the link's set, inherits the
        link's fault hooks, and joins the send rotation of every rider.
        Resolves to the new QueuePair.
        """
        host_pool = link._host_pool

        def _reopen() -> Generator:
            qp = yield from self._connect_data_qp(
                host_pool.send_cq, remote, port, link._client_id,
                len(host_pool.qps), link._fault_injector,
            )
            host_pool.data.adopt(qp)
            host_pool.qps.append(qp)
            return qp

        return self.engine.process(_reopen())
