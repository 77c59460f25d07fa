"""Multi-session source link: one connection set, many transfer jobs.

§IV-C: "The application probably issues multiple data transfer tasks
simultaneously.  Each task is associated with a global session identifier
which is available in both the source and sink."  A :class:`SourceLink`
owns the shared per-connection state — the control channel, the parallel
data QPs, the registered block pool, and the credit ledger — and runs any
number of concurrent or sequential :meth:`transfer` jobs over it.  The
sink routes by session id and reassembles each session independently.

Shared threads (Figure 2's pool):

- one *control thread* routes inbound messages: credit grants feed the
  shared ledger, negotiation replies and DATASET_DONE_ACKs go to their
  session's job;
- the link's channel set (private, or shared per peer host) runs one
  *reaper* on its send CQ, which routes each completion to the owning
  link and job by work-request id (:func:`_reap`).

Per-job threads: readers (load payload into blocks) and a sender (pair
LOADED blocks with credits, post RDMA WRITEs).

Recovery model: every control-plane exchange (negotiation requests,
MR_INFO_REQ when starved, the DATASET_DONE/ACK handshake) carries a
timeout with exponential backoff and a bounded retry budget; each block's
RDMA WRITE may fail at most ``MAX_BLOCK_RESENDS`` times.  Exhausting any
budget aborts the session *gracefully*: pool blocks return to the free
list, unconsumed credits are refunded to the shared ledger, and the job's
``done`` event fails with a typed :class:`~repro.core.errors.TransferError`
instead of hanging the engine.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.blocks import SourceBlock
from repro.core.channels import ControlChannel, HostChannelPool, NoLiveChannelError
from repro.core.config import ProtocolConfig
from repro.core.credits import Credit, CreditLedger
from repro.core.errors import (
    AckTimeout,
    CreditStarvation,
    DataChannelsLost,
    EndpointCrashed,
    MarkerTimeout,
    NegotiationTimeout,
    PeerDead,
    ResendLimitExceeded,
    TransferError,
    TransportFallbackFailed,
)
from repro.core.health import BACKOFF_FACTOR, CTRL_RETRIES, HealthMonitor
from repro.core.messages import (
    PROTOCOL,
    BlockHeader,
    ControlMessage,
    CtrlType,
    Grant,
    Scope,
    block_checksum,
)
from repro.sim.events import AnyOf, Event
from repro.sim.resources import Store
from repro.verbs.qp import QpState
from repro.verbs.wr import WcStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.host import Host
    from repro.sim.engine import Engine

__all__ = ["JobPhase", "SourceLink", "TransferJob"]

_NO_GRANT, _REPLACE, _SESSION = Grant.NONE, Grant.REPLACE, Scope.SESSION

#: RDMA WRITE failures (and BLOCK_NACK repairs) tolerated per block
#: before the session aborts with :class:`ResendLimitExceeded`.
MAX_BLOCK_RESENDS = 16


class JobPhase(enum.Enum):
    """A :class:`TransferJob`'s lifecycle, the twin of the sink's
    :class:`~repro.core.sink_engine.SessionState`; the ended phases double
    as outcomes (DESIGN.md §8)."""

    NEGOTIATING = "negotiating"  #: opened; the RDMA plane not armed yet
    RDMA = "rdma"  #: armed: readers, sender and reaper move the blocks
    TCP = "tcp"  #: every data channel died: the fallback pump carries them
    REPROMOTING = "repromoting"  #: a channel is back: the pump stops at the next block
    DRAINED = "drained"  #: the pump sent its EOF: DATASET_DONE, or the restore
    ACKED = "acked"  #: the sink acknowledged the dataset
    ABORTED = "aborted"  #: ended with a typed :class:`TransferError`


_NEGOTIATING, _RDMA, _TCP, _REPROMOTING, _DRAINED, _ACKED, _ABORTED = JobPhase
#: The TCP fallback carries the session.
_ON_TCP = (_TCP, _REPROMOTING, _DRAINED)
_ENDED = (_ACKED, _ABORTED)


class TransferJob:
    """One dataset transfer (one session) running on a link."""

    def __init__(
        self,
        link: "SourceLink",
        session_id: int,
        total_bytes: int,
        data_source: Any,
    ) -> None:
        self.link = link
        self.session_id = session_id
        self.total_bytes = total_bytes
        self.data_source = data_source
        self.block_size = link.config.block_size
        self.total_blocks = -(-total_bytes // self.block_size)
        #: Eager transport (a shared set): blocks ride SEND/RECV on the shared
        #: channels — no credits, no MR exchange, no BLOCK_DONE.  Decided
        #: per session at :meth:`SourceLink.transfer`; rendezvous (RDMA
        #: WRITE against credited regions) stays the default.
        self.eager = False
        #: First block this incarnation sends.  0 for a fresh session; a
        #: resumed session starts at the sink's restart marker and never
        #: re-reads (or re-sends) the prefix below it.  Moved only by
        #: :meth:`SourceLink._arm`, together with ``blocks_to_send``.
        self.start_seq = 0
        #: Blocks this incarnation owes the sink.
        self.blocks_to_send = self.total_blocks
        self.completed_blocks = 0
        self.resends = 0
        #: NACK-driven selective re-sends performed.
        self.repairs = 0
        #: Control-plane retransmissions (timed-out requests resent).
        self.ctrl_retries = 0
        #: seq -> completed block held WAITING as a repair copy until a
        #: restart marker (cumulative consumed-prefix ack) or the
        #: DATASET_DONE_ACK covers it.  Only populated when
        #: ``config.block_repair``; a seq whose repair re-send is in
        #: flight is temporarily absent (its in-flight entry owns it).
        self.unacked: Dict[int, SourceBlock] = {}
        #: Highest cumulative restart marker received from the sink.
        self.marker = 0
        #: seq -> BLOCK_NACK repair attempts (bounded by MAX_BLOCK_RESENDS).
        self.nack_attempts: Dict[int, int] = {}
        self._next_load_seq = 0
        self._loaded: Store = Store(link.engine)
        #: Reply type -> Store, built on first use (by the requester or the control thread).
        self._replies: Dict[CtrlType, Store] = defaultdict(lambda: Store(link.engine))
        #: Succeeds, with no value, when the sink acknowledges the dataset.
        self.done: Event = Event(link.engine)
        #: Succeeds when the session aborts — always success-typed so it
        #: can sit inside AnyOf waits without failing them; the *typed*
        #: failure goes through ``done``.
        self._abort: Event = Event(link.engine)
        #: Written only at the transitions: :meth:`SourceLink._arm` (RDMA),
        #: ``_begin_fallback`` (TCP), the re-promotion watchdog
        #: (REPROMOTING), the pump's end (DRAINED) and ``_end_session``
        #: (ACKED or ABORTED), the one way a session leaves its link.
        self.phase = _NEGOTIATING
        #: Succeeds when this incarnation's RDMA-plane threads (readers,
        #: sender, credit waits) must leave the RDMA phase: on abort, and
        #: on degradation to the TCP fallback path.  Replaced with a fresh
        #: event when the session is promoted back to RDMA.
        self._halt: Event = Event(link.engine)
        #: Times the session degraded to TCP / blocks the fallback
        #: carried / times it was promoted back to RDMA.
        self.fallbacks = 0
        self.fallback_blocks = 0
        self.repromotions = 0
        #: seq -> time its first BLOCK_DONE was sent (None once re-sent:
        #: Karn's rule discards ambiguous samples).  Restart markers
        #: close the loop and feed the link's RTT estimator.
        self._done_sent_at: Dict[int, Optional[float]] = {}
        self.error: Optional[TransferError] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- incarnation-local increments that also feed the link's series --------
    def _count_resend(self) -> None:
        self.resends += 1
        self.link._m_resends.add()

    def _count_repair(self) -> None:
        self.repairs += 1
        self.link._m_repairs.add()

    def _count_ctrl_retry(self) -> None:
        self.ctrl_retries += 1
        self.link._m_ctrl_retries.add()

    def _count_fallback_block(self) -> None:
        self.fallback_blocks += 1
        self.link._m_fallback_blocks.add()

    def _block_extent(self, seq: int) -> Tuple[int, int]:
        offset = seq * self.block_size
        length = min(self.block_size, self.total_bytes - offset)
        return offset, length


class SourceLink:
    """Shared sender-side state for one middleware connection."""

    def __init__(
        self,
        host: "Host",
        ctrl: ControlChannel,
        host_pool: HostChannelPool,
        config: ProtocolConfig,
    ) -> None:
        self.host = host
        self.engine: "Engine" = host.engine
        self.ctrl = ctrl
        #: The :class:`~repro.core.channels.HostChannelPool` this link
        #: rides: a private set (dedicated QPs) or one shared per peer
        #: host (``use_srq``).  Its reaper routes this link's completions
        #: back here by wr_id.
        self._host_pool = host_pool
        self.data = host_pool.data
        self.pool = host_pool.block_pool
        self.config = config
        self.ledger = CreditLedger(self.engine)
        #: Adaptive RTT estimation and peer liveness — one per link; the
        #: control path is shared by every session riding it.
        self.health = HealthMonitor(self.engine, config)
        #: Optional zero-arg factory returning a connected
        #: :class:`~repro.tcp.connection.TcpConnection` through the same
        #: fabric, wired by the middleware when the testbed has a TCP
        #: path.  Without it the link cannot degrade, and total channel
        #: loss stays a :class:`DataChannelsLost` abort.
        self.tcp_factory = None
        #: Optional zero-arg channel re-establishment hook (the
        #: middleware's reopen_channel bound to this link), used by the
        #: re-promotion watchdog to bring RDMA back during fallback.
        self._reopen = None
        self.jobs: Dict[int, TransferJob] = {}
        reg = self.engine.metrics
        self._m_idx = reg.sequence("source_link")
        labels = {"link": self._m_idx}
        self.mr_requests_sent = reg.counter("source.mr_requests", **labels)
        #: Inbound control messages for finished/aborted/unknown sessions
        #: (stale retransmission replies, duplicate ACKs) — counted, not
        #: fatal: with retries in play they are expected traffic.
        self.stray_messages = reg.counter("source.stray_messages", **labels)
        self.crashes = reg.counter("source.crashes", **labels)
        self._m_pings = reg.counter("source.pings", **labels)
        self._m_pongs = reg.counter("source.pongs", **labels)
        self._m_peer_dead = reg.counter("source.peer_dead", **labels)
        self.breaker_trips = reg.counter("source.breaker_trips", **labels)
        self.fallbacks = reg.counter("source.fallbacks", **labels)
        self.repromotions = reg.counter("source.repromotions", **labels)
        reg.gauge_fn("source.active_jobs", lambda: len(self.jobs), **labels)
        reg.gauge_fn("source.inflight_wrs", self._wrs_in_flight, **labels)
        reg.gauge_fn("source.rto_seconds", lambda: self.health.rtt.rto, **labels)
        # Every session's block counts: one set per link (DESIGN.md §10).
        self._m_completed = reg.counter("source.blocks_completed", **labels)
        self._m_resends = reg.counter("source.block_resends", **labels)
        self._m_repairs = reg.counter("source.block_repairs", **labels)
        self._m_ctrl_retries = reg.counter("source.ctrl_retries", **labels)
        self._m_fallback_blocks = reg.counter("source.fallback_blocks", **labels)
        self._m_latency = reg.histogram("source.block_latency_seconds", **labels)
        if host_pool.cooldown is None:
            # A private set's breakers adapt to its one rider's RTT.
            host_pool.cooldown = self.health.breaker_cooldown
        self._hb_running = False
        self._started = False
        #: True once a full negotiation (block size + channel count) has
        #: succeeded on this link.  Both parameters are link-level: every
        #: later session skips straight to SESSION_REQ, trading three
        #: control round trips for one — the difference between one RTT
        #: and three per file on a WAN small-file run.
        self._negotiated = False

    def _release_lease(self, job: TransferJob) -> None:
        """Return the lease :meth:`_open_session` took, keyed by ``(link,
        session id)`` because it is taken before the job exists."""
        sessions = self._host_pool.sessions
        if sessions is not None:
            sessions.release((self, job.session_id))

    def _start_shared_threads(self) -> None:
        if not self._started:
            self._started = True
            self.engine.process(self._control_thread())
            host_pool = self._host_pool
            if not host_pool.reaping:
                host_pool.reaping = True
                self.engine.process(_reap(host_pool))
        if self.config.heartbeats and not self._hb_running:
            self._hb_running = True
            self.engine.process(self._heartbeat_thread())

    # -- public API --------------------------------------------------------------
    def _open_session(self, data_source: Any, total_bytes: int, session_id: int) -> TransferJob:
        """Register a new job on the link, after every rejection: take its
        channel lease (a shared set) and make sure the shared threads run."""
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if session_id in self.jobs:
            raise ValueError(f"session {session_id} already active on this link")
        sessions = self._host_pool.sessions
        if sessions is not None and not sessions.lease((self, session_id)):
            raise ValueError(
                f"session {session_id}: host pool at lease capacity"
                f" ({sessions.capacity} sessions)"
            )
        job = self.jobs[session_id] = TransferJob(self, session_id, total_bytes, data_source)
        self._start_shared_threads()
        return job

    def _arm(
        self, thread, job: TransferJob, start_seq: int, marker_watchdog: bool = True
    ) -> Generator:
        """Arm the RDMA plane at block ``start_seq``: the RDMA phase,
        cursors at the sink's durable prefix and a new reader/sender
        generation."""
        job.phase = _RDMA
        job.start_seq = min(start_seq, job.total_blocks)
        job.blocks_to_send = job.total_blocks - job.start_seq
        job.marker = job.start_seq
        job._next_load_seq = job.start_seq
        if job.blocks_to_send == 0:
            # Everything already landed (the sink holds the whole
            # dataset, acked or not): go straight to the completion
            # handshake.
            yield from self._dataset_done(thread, job)
            return
        for i in range(self.config.reader_threads):
            self.engine.process(self._reader_thread(job, i))
        self.engine.process(self._sender_thread(job))
        if marker_watchdog and self.config.block_repair:
            # The repair hold: copies stay WAITING until a marker covers
            # them.  Nothing held is nothing at stake; the hold idles
            # through a fallback window (degradation drains ``unacked``).
            self.engine.process(self._stall_watchdog(
                job,
                lambda: (
                    job.marker, len(job.unacked), job.repairs, job.completed_blocks
                ) if job.unacked else None,
                lambda: False,
                lambda n: MarkerTimeout(
                    job.session_id,
                    f"{len(job.unacked)} repair copies held with no"
                    f" restart-marker progress after {n} timeouts",
                ),
            ))

    def _run_session(self, job: TransferJob, name: str, opening: Callable) -> Generator:
        """The process of :meth:`transfer` / :meth:`resume`: ``opening(thread,
        job)`` on the session's own thread, then the job — or its typed error."""
        yield from opening(self.host.thread(f"{name}-{job.session_id}", "app"), job)
        try:
            yield job.done
        except TransferError:
            job = None  # the error's traceback keeps this frame: let go of the job
            raise
        return job

    def transfer(
        self,
        data_source: Any,
        total_bytes: int,
        session_id: int,
    ):
        """Process event resolving to the finished :class:`TransferJob`.

        The process *fails* with a :class:`TransferError` subclass when the
        session aborts (timeout budgets exhausted); all pool blocks and
        credits have been reclaimed by then.

        A link that already completed a full negotiation skips the
        link-level BLOCK_SIZE/CHANNELS exchanges and opens the session
        with a single SESSION_REQ round trip — the fast path for many
        small files to one peer.
        """
        job = self._open_session(data_source, total_bytes, session_id)
        cfg = self.config
        # Eager iff the link rides a shared set (the peer's SRQ is the
        # landing buffer) and every payload this session sends fits under
        # the negotiated threshold — a sub-threshold dataset, or one whose
        # negotiated block size is already that small.  The decision is
        # per *session* so the sink's credit machinery is either fully
        # engaged or fully bypassed; mixing per-block would let eager
        # arrivals starve while credits pin every free block.
        job.eager = (
            cfg.use_srq
            and cfg.eager_threshold > 0
            and min(cfg.block_size, total_bytes) <= cfg.eager_threshold
        )
        skip_link_setup = self._negotiated

        def _open(thread, job: TransferJob) -> Generator:
            yield from self._negotiate(thread, job, skip_link_setup=skip_link_setup)
            if job.phase is _NEGOTIATING:
                job.started_at = self.engine.now
                yield from self._arm(thread, job, 0)

        return self.engine.process(self._run_session(job, "src-nego", _open))

    def resume(self, data_source: Any, total_bytes: int, session_id: int):
        """Process event re-attaching a dead session at its restart marker.

        One SESSION_RESUME_REQ round trip replaces the full negotiation
        (block size and channel count are link-level and already agreed).
        The sink replies with the resume point — the contiguous prefix it
        has durably consumed — and a fresh credit grant; this incarnation
        reads and sends only the missing suffix.  Like :meth:`transfer`,
        the returned process fails with a typed :class:`TransferError`
        when the resume is rejected or the re-attached session aborts.

        Resume assumes no *other* session is concurrently healthy on the
        link: accepting the REP flushes the shared credit ledger (stale
        grants from the dead incarnation target regions the sink has
        revoked), which would strand a healthy neighbour's credits.
        """
        # A resumed session always rides rendezvous: the sink re-anchors
        # it with a fresh credit grant, and the restart marker already
        # paid the MR-exchange cost eager exists to avoid.
        job = self._open_session(data_source, total_bytes, session_id)

        def _open(thread, job: TransferJob) -> Generator:
            reply = yield from self._request_reply(
                thread, job, CtrlType.SESSION_RESUME_REQ,
                (job.total_bytes, self._marker_interval()), "sink rejected session resume",
            )
            if reply is not None:
                _accepted, resume_seq, _initial = reply.data
                job.started_at = self.engine.now
                self.engine.trace(
                    "link", "resume", session=session_id,
                    start_seq=min(resume_seq, job.total_blocks),
                )
                yield from self._arm(thread, job, resume_seq)

        return self.engine.process(self._run_session(job, "src-resume", _open))

    def crash(self) -> None:
        """Kill the source process: every live job dies with
        :class:`EndpointCrashed` and all volatile state (loaded blocks,
        repair copies, the credit ledger) is lost.  The sink's restart
        markers make the sessions resumable afterwards."""
        self.crashes.add()
        self.engine.trace("link", "crash")
        for job in list(self.jobs.values()):
            self._abort_job(
                job, EndpointCrashed(job.session_id, "source process crashed")
            )
        self.ledger.flush()

    def abort_session(self, session_id: int, exc: TransferError) -> bool:
        """Kill ONE live session with a typed error, leaving its link
        siblings untouched.  The scheduler's surgical teardown — used by
        the progress watchdog (a wedged session must not hold its worker
        slot) and by job cancellation/deadlines.  Returns False when the
        session is unknown (already finished or aborted)."""
        job = self.jobs.get(session_id)
        if job is None:
            return False
        self._abort_job(job, exc)
        return True

    def kill_channel(self, index: int) -> bool:
        """Kill the ``index``-th data QP (injected channel failure).

        In-flight WRITEs on it flush with WR_FLUSH_ERR; the reaper
        detaches the dead channel and redistributes the blocks across
        survivors.  Returns False for an unknown or already-dead
        channel."""
        qps = self._host_pool.qps
        if not 0 <= index < len(qps):
            return False
        qp = qps[index]
        if qp.state is QpState.ERROR:
            return False
        qp.kill()
        self.engine.trace("link", "kill_channel", qp=qp.qp_num, index=index)
        return True

    def _wrs_in_flight(self) -> int:
        """This link's entries in its channel set's in-flight table."""
        return sum(1 for e in self._host_pool.inflight.values() if e[0] is self)

    def audit(self) -> List[str]:
        """What a quiescent link must not hold, as leak messages."""
        held = ((len(self.jobs), f"sessions never retired: {sorted(self.jobs)}"),
                (self._wrs_in_flight(), "WRs still in flight"),
                (self.ledger.waiters, "credit waiters stuck"))
        return self.pool.audit() + [f"{n} {what}" for n, what in held if n]

    # -- the end of a session ---------------------------------------------------------
    def _abort_job(self, job: TransferJob, exc: TransferError) -> None:
        """Fail a live session with a typed error; a no-op once it ended."""
        if job.phase not in _ENDED:
            self._end_session(job, exc)

    def _end_session(self, job: TransferJob, result: TransferJob | TransferError) -> None:
        """The one exit of a session: off the link table, lease returned,
        ``done`` succeeded (``result`` is the job: DATASET_DONE_ACK) or
        failed with the typed :class:`TransferError` in ``result``.  Each
        ending keeps its pool work and its order relative to ``done``
        (DESIGN.md §8).  An abort scraps only what is parked outside any
        thread; a block a reader / sender holds or an in-flight WR owns is
        reclaimed by that thread once it sees the halt (it holds the only
        safe reference)."""
        job.phase = _ACKED if result is job else _ABORTED
        # Off the table: the id can be reused, and the dict stays bounded.
        self.jobs.pop(job.session_id, None)
        self._release_lease(job)
        if result is job:
            job.finished_at = self.engine.now
            # The final cumulative ack: every repair copy is covered.
            for blk in job.unacked.values():
                blk.release()
                self.pool.put_free_blk(blk)
            job.unacked.clear()
            job.nack_attempts.clear()
            job.done.succeed()
            return
        job.error = result
        self._scrap_held(job)
        self.engine.trace(
            "link", "abort", session=job.session_id, error=type(result).__name__
        )
        job._abort.succeed()
        if not job._halt.triggered:
            job._halt.succeed()
        # An external teardown (crash/cancel) can land while the session's
        # own process is parked microseconds away from ``yield job.done``
        # (mid-negotiation send, thread.exec) with no waiter attached yet.
        # Defusing keeps that window from nuking the whole engine; waiters
        # attached before processing still receive the typed error, and an
        # abandoned session still fails loudly through the transfer's
        # outer process event.
        job.done.fail(result).defuse()

    def _scrap_held(self, job: TransferJob) -> None:
        """Reclaim what a halting session parks outside any thread: the
        loaded queue and the repair copies (held WAITING for markers that
        will never come).  Seqs whose repair re-send is in flight are not
        in the map — the reaper reclaims those."""
        while job._loaded.items:
            blk = job._loaded.items.popleft()
            if blk is not None:  # None: the sender-release sentinel
                self._reclaim(job, blk)
        while job.unacked:
            self._reclaim(job, job.unacked.popitem()[1])
        job.nack_attempts.clear()

    def _reclaim(self, job: TransferJob, block: SourceBlock,
                 credit: Optional[Credit] = None) -> None:
        """Scrap a block the session will not send (again); the one
        refund-or-drop rule for its credit.  Dropped while a TCP fallback
        carries the session (the sink revoked every RDMA region);
        otherwise the region is still writable — the WRITE never landed,
        or BLOCK_DONE no longer matters — so the shared ledger gets it."""
        block.scrap()
        self.pool.put_free_blk(block)
        if credit is not None and job.phase not in _ON_TCP:
            self.ledger.refund([credit])

    # -- control-plane request/reply with retry ----------------------------------------
    def _request_reply(
        self, thread, job: TransferJob, req_type: CtrlType, payload: Any,
        refused: Optional[str] = None,
    ) -> Generator:
        """Send ``req_type`` and await its reply type (``PROTOCOL``) under
        the retry budget.

        The first attempt waits one adaptive RTO (microseconds on a quiet
        LAN once the estimator has samples); later attempts back off along
        a ladder floored by the static ``CTRL_TIMEOUT`` schedule, so a
        sharp estimate buys a fast first retransmit without shrinking the
        total patience budget below what injected delay faults need.
        Per Karn's algorithm only a first-attempt exchange feeds the
        estimator, and a first-attempt expiry backs the next ones off.

        Returns the reply message, or ``None`` once the session ended or
        after aborting it with :class:`NegotiationTimeout` (also, given
        ``refused``, its message, when the reply's data leads with False).
        """
        sid = job.session_id
        rep_type = PROTOCOL[req_type].reply
        store = job._replies[rep_type]
        attempts = CTRL_RETRIES + 1
        level = self.health.rtt.level
        for attempt in range(attempts):
            if attempt:
                job._count_ctrl_retry()
            sent_at = self.engine.now
            yield from self.ctrl.send(thread, ControlMessage(req_type, sid, payload))
            get_ev = store.get()
            timer = self.engine.timeout(self.health.request_timeout(attempt))
            yield AnyOf(self.engine, [get_ev, timer, job._abort])
            timer.cancel()  # no-op once fired
            store.cancel_get(get_ev)  # no-op once it holds the reply
            if job.phase in _ENDED:
                # Torn down externally (endpoint crash, cancel, watchdog
                # kill) while this round trip was in flight: stop waiting
                # so the abort completes instead of racing retries against
                # a session that no longer exists.
                return None
            if get_ev.triggered:
                # The reply won, or slipped in between the timer firing
                # and this process resuming — same instant, still a win.
                if attempt == 0:
                    self.health.rtt.observe(self.engine.now - sent_at)
                reply = get_ev.value
                if refused is not None and not reply.data[0]:
                    self._abort_job(job, NegotiationTimeout(sid, refused))
                    return None
                return reply
            if attempt == 0:
                self.health.rtt.expired(level, BACKOFF_FACTOR)
        self._abort_job(
            job,
            NegotiationTimeout(
                sid, f"no {rep_type.value} after {attempts} attempts"
            ),
        )
        return None

    def _marker_interval(self) -> int:
        """Restart-marker cadence this source can afford.

        Repair copies stay WAITING until a marker covers them, so up to
        ``2 * interval`` blocks sit outside the free pool at any instant
        (one interval delivered-but-unmarked, one in the marker's flight
        time).  That hold must stay a small fraction of the pool or the
        readers run stop-and-wait on the remainder — an 8-block pool at
        interval 4 measurably halves goodput.  The source advertises a
        cadence of at most an eighth of its pool during session setup and
        the sink honours it per session; tiny pools degrade to per-block
        markers rather than deadlock.
        """
        return max(1, min(self.config.marker_interval_blocks, len(self.pool.blocks) // 8))

    # -- negotiation (phase 1 of §IV-C) ---------------------------------------------
    def _negotiate(self, thread, job: TransferJob, skip_link_setup: bool) -> Generator:
        if not skip_link_setup:
            reply = yield from self._request_reply(
                thread, job, CtrlType.BLOCK_SIZE_REQ, job.block_size,
                f"sink rejected block size {job.block_size}",
            )
            if reply is None:
                return
            reply = yield from self._request_reply(
                thread, job, CtrlType.CHANNELS_REQ, len(self.data),
                "sink rejected channel count",
            )
            if reply is None:
                return
        # The eager flag lets the sink skip the initial credit grant; the
        # control thread deposits the credits of the reply.
        reply = yield from self._request_reply(
            thread, job, CtrlType.SESSION_REQ,
            (job.total_bytes, self._marker_interval(), job.eager), "sink rejected session",
        )
        if reply is not None:
            self._negotiated = True

    # -- per-job threads -----------------------------------------------------------
    def _reader_thread(self, job: TransferJob, index: int) -> Generator:
        thread = self.host.thread(f"src-reader{job.session_id}.{index}", "app")
        halt = job._halt
        while job.phase is _RDMA:
            if job._next_load_seq >= job.total_blocks:
                return
            seq = job._next_load_seq
            job._next_load_seq += 1
            offset, length = job._block_extent(seq)
            get_ev = self.pool.get_free_blk()
            outcome = yield AnyOf(self.engine, [get_ev, halt])
            if get_ev in outcome:
                block: SourceBlock = outcome[get_ev]
            else:
                self.pool.free.cancel_get(get_ev)
                if get_ev.triggered and get_ev.ok:
                    # Raced with the halt: we own the block, hand it back.
                    self.pool.put_free_blk(get_ev.value)
                return
            block.reserve()
            payload = yield from job.data_source.read(thread, length, seq)
            if job.phase is not _RDMA:
                self._reclaim(job, block)
                return
            header = BlockHeader(
                job.session_id, seq, offset, length, block_checksum(payload)
            )
            block.loaded(header, payload)
            yield job._loaded.put(block)

    def _acquire_credit(self, thread, job: TransferJob) -> Generator:
        """Obtain one credit, begging the sink (deduplicated MR_INFO_REQ)
        when the shared ledger runs dry.

        Returns a credit, or ``None`` when the job aborted — either
        externally or because the retry budget ran out
        (:class:`CreditStarvation`).
        """
        get_ev = self.ledger.acquire()
        if get_ev.triggered:
            return get_ev.value  # balance was positive: no stall, no request
        attempts = 0
        while True:
            if not self.ledger.request_outstanding:
                # One request in flight per *link*, however many jobs are
                # starved — the grant lands in the shared ledger anyway.
                self.ledger.request_outstanding = True
                self.mr_requests_sent.add()
                if attempts:
                    job._count_ctrl_retry()
                yield from self.ctrl.send(
                    thread, ControlMessage(CtrlType.MR_INFO_REQ, job.session_id)
                )
            timer = self.engine.timeout(self.health.patience_timeout(attempts))
            outcome = yield AnyOf(self.engine, [get_ev, timer, job._halt])
            if get_ev in outcome:
                timer.cancel()
                return outcome[get_ev]
            self.ledger.cancel(get_ev)
            if get_ev.triggered and get_ev.ok:
                return get_ev.value
            if job.phase is not _RDMA:
                return None
            attempts += 1
            if attempts > CTRL_RETRIES:
                self._abort_job(
                    job,
                    CreditStarvation(
                        job.session_id,
                        f"no credits after {attempts} MR_INFO_REQ attempts",
                    ),
                )
                return None
            # Our outstanding request (whoever sent it) went unanswered
            # long enough — clear the dedupe latch and ask again.
            self.ledger.request_outstanding = False
            get_ev = self.ledger.acquire()
            if get_ev.triggered:
                return get_ev.value

    def _sender_thread(self, job: TransferJob) -> Generator:
        thread = self.host.thread(f"src-sender{job.session_id}", "app")
        halt = job._halt
        while True:
            get_ev = job._loaded.get()
            outcome = yield AnyOf(self.engine, [get_ev, halt])
            if get_ev in outcome:
                block: Optional[SourceBlock] = outcome[get_ev]
            else:
                job._loaded.cancel_get(get_ev)
                if get_ev.triggered and get_ev.ok and get_ev.value is not None:
                    self._reclaim(job, get_ev.value)
                return
            if block is None:
                return  # all blocks of this job completed
            if job.phase is not _RDMA:
                self._reclaim(job, block)
                return
            if job.eager:
                # Eager transport: the shared receive queue at the sink
                # is the landing buffer — no credit to acquire.
                credit = None
            else:
                credit = yield from self._acquire_credit(thread, job)
                if credit is None:
                    self._reclaim(job, block)
                    return
            if job.phase is not _RDMA:
                self._reclaim(job, block, credit)
                return
            if not (yield from self._post_block(thread, job, block, credit, 0, False)):
                return

    def _post_block(self, thread, job: TransferJob, block: SourceBlock,
                    credit: Credit, attempts: int, is_repair: bool) -> Generator:
        """The one post path: SENDING, a wr_id and its entry in the
        channel set's in-flight table (post time taken before the CPU
        charge of the post) and the WRITE — or the
        SEND, for an eager session.  Degrades to the TCP fallback (or
        fails the job with :class:`DataChannelsLost`) when no data channel
        survives; returns False then, the block and credit reclaimed."""
        assert block.header is not None
        block.sending()
        host_pool = self._host_pool
        wr_id = next(host_pool.wr_ids)
        host_pool.inflight[wr_id] = (self, job, block, credit, attempts, is_repair, self.engine.now)
        try:
            if credit is None:  # eager transport (a shared set)
                yield from self.data.post_send_block(
                    thread, block, block.header, wr_id
                )
            else:
                yield from self.data.post_write(
                    thread, block, credit, block.header, wr_id=wr_id
                )
        except NoLiveChannelError:
            del host_pool.inflight[wr_id]  # never reached the wire
            fell_back = self._begin_fallback(job)
            self._reclaim(job, block, credit)
            if not fell_back:
                self._abort_job(
                    job, DataChannelsLost(job.session_id, "every data channel is dead")
                )
            return False
        block.waiting()
        return True

    # -- shared threads -------------------------------------------------------------
    def _dataset_done(self, thread, job: TransferJob) -> Generator:
        """Open the completion handshake: DATASET_DONE, and the watchdog
        that retransmits it."""
        done = ControlMessage(CtrlType.DATASET_DONE, job.session_id, job.total_bytes)
        yield from self.ctrl.send(thread, done)
        self.engine.process(self._ack_watchdog(job, done))

    def _ack_watchdog(self, job: TransferJob, done: ControlMessage) -> Generator:
        """Retransmit DATASET_DONE until the ACK lands, then give up with
        a typed :class:`AckTimeout`."""
        thread = self.host.thread(f"src-ack{job.session_id}", "app")
        attempts = CTRL_RETRIES + 1
        for attempt in range(attempts):
            yield self.engine.timeout(self.health.patience_timeout(attempt))
            if job.phase in _ENDED:
                return
            if attempt + 1 == attempts:
                break
            job._count_ctrl_retry()
            yield from self.ctrl.send(thread, done)
        self._abort_job(
            job,
            AckTimeout(
                job.session_id, f"no DATASET_DONE_ACK after {attempts} attempts"
            ),
        )

    def _stall_watchdog(
        self, job: TransferJob, progress: Callable[[], Any],
        stand_down: Callable[[], bool], error: Callable[[int], TransferError],
    ) -> Generator:
        """The one liveness loop behind the two holds that would otherwise
        hang a session silently: the repair hold (:meth:`_arm`; a sink that
        stops sending markers starves the readers while no other timer
        runs) and the TCP fallback pump (:meth:`_fallback_thread`; a sink
        that dies mid-fallback).  Each patience timeout compares
        ``progress()`` with the last tick: a change, or ``None`` (nothing
        at stake), resets the budget, and ``CTRL_RETRIES + 1`` unchanged
        ticks abort with ``error(ticks)``.  The first tick always counts
        as progress (the pump has sent nothing yet; the repair hold is
        empty at a session's first arming).  ``stand_down()`` ends it
        quietly, checked before each timer is armed and after each wait."""
        attempts = 0
        last = None
        while job.phase not in _ENDED and not stand_down():
            timer = self.engine.timeout(self.health.patience_timeout(attempts))
            yield AnyOf(self.engine, [timer, job._abort])
            if not timer.triggered:
                # Abort won the race: the pending timer is dead weight.
                timer.cancel()
            if job.phase in _ENDED or stand_down():
                return
            seen = progress()
            if seen is None or seen != last:
                last, attempts = seen, 0
                continue
            attempts += 1
            if attempts > CTRL_RETRIES:
                self._abort_job(job, error(attempts))
                return

    def _control_thread(self) -> Generator:
        thread = self.host.thread("src-ctrl", "app")
        while True:
            job = None  # parked between batches: hold no ended session
            msgs = yield from self.ctrl.receive(thread)
            for msg in msgs:
                self.health.heard()
                rule = PROTOCOL[msg.type]
                grant = rule.grant
                if grant is not _NO_GRANT:
                    # Credits are link-level: they reach the ledger here,
                    # before routing, as a stale reply may never leave its
                    # job's store.  No region lands twice: a duplicate is
                    # answered empty, or replays a REPLACE grant.
                    data = msg.data  # (accepted, …, credits)
                    if grant is _REPLACE and data[0]:
                        self.ledger.flush()
                    credits = data[-1]
                    if credits:
                        self.ledger.deposit(list(credits))
                job = self.jobs.get(msg.session_id) if rule.scope is _SESSION else None
                if job is None and rule.scope is _SESSION:
                    # Finished or aborted session: stale replies, markers
                    # and duplicate ACKs are expected under retransmission.
                    self.stray_messages.add()
                    continue
                handler = self._HANDLERS.get(msg.type)
                if handler is not None:
                    step = handler(self, thread, job, msg)
                    if step is not None:
                        yield from step
                elif grant is _NO_GRANT:  # a type the source does not take
                    self.stray_messages.add()

    def _on_ping(self, thread, job, msg: ControlMessage) -> Generator:
        yield from self.ctrl.send(thread, ControlMessage(CtrlType.PONG, msg.session_id, msg.data))

    def _on_pong(self, thread, job, msg: ControlMessage) -> None:
        self._m_pongs.add()
        self.health.on_pong(msg.data)

    def _on_reply(self, thread, job: TransferJob, msg: ControlMessage) -> Generator:
        """A negotiation reply: to the store its :meth:`_request_reply` waits on."""
        yield job._replies[msg.type].put(msg)

    def _on_dataset_done_ack(self, thread, job: TransferJob, msg) -> None:
        self._end_session(job, job)

    def _on_marker(self, thread, job: TransferJob, msg: ControlMessage) -> None:
        """A cumulative consumed-prefix ack: everything below ``upto`` is
        durably in the application sink, so the repair copies held for
        those seqs can finally be freed."""
        upto = msg.data
        if upto <= job.marker:
            return  # stale or duplicate marker
        sent_at = job._done_sent_at.get(upto - 1)
        if sent_at is not None:
            # The marker was cut when the block acked here crossed the
            # sink's cadence; its BLOCK_DONE send time closes an RTT
            # loop (inflated by sink-side consumption — which only makes
            # derived timeouts more patient, never too eager).
            self.health.rtt.observe(self.engine.now - sent_at)
        for s in [s for s in job._done_sent_at if s < upto]:
            del job._done_sent_at[s]
        job.marker = upto
        for seq in [s for s in job.unacked if s < upto]:
            blk = job.unacked.pop(seq)
            blk.release()
            self.pool.put_free_blk(blk)
            job.nack_attempts.pop(seq, None)

    def _on_block_nack(self, thread, job: TransferJob, msg: ControlMessage) -> Generator:
        """BLOCK_NACK: the sink's end-to-end checksum caught a corrupt
        arrival.  Re-send from the still-WAITING local copy into the
        credit the NACK carries (the same region), bounded by the block
        resend budget."""
        seq, credit = msg.data
        block = job.unacked.pop(seq, None)
        if block is None:
            # A repair for this seq is already in flight (its in-flight
            # entry owns the block) — or the NACK is stale.
            self.stray_messages.add()
            return
        attempts = job.nack_attempts.get(seq, 0) + 1
        job.nack_attempts[seq] = attempts
        if attempts > MAX_BLOCK_RESENDS:
            self._reclaim(job, block, credit)
            self._abort_job(
                job,
                ResendLimitExceeded(
                    job.session_id, f"block seq {seq} NACKed {attempts} times"
                ),
            )
            return
        job._count_repair()
        self.engine.trace(
            "link", "repair", session=job.session_id, seq=seq, attempt=attempts
        )
        block.nacked()  # WAITING → NACKED (Fig. 6 extension)
        block.reload()  # NACKED → LOADED: the local copy is still valid
        yield from self._post_block(thread, job, block, credit, 0, True)

    #: One handler per type the source receives, called ``(self, thread,
    #: job, msg)`` — ``job`` is ``None`` for a link-scoped type.  A type
    #: with neither a handler nor a grant (PROTOCOL) is a stray.
    _HANDLERS = {
        CtrlType.PING: _on_ping,
        CtrlType.PONG: _on_pong,
        CtrlType.BLOCK_SIZE_REP: _on_reply,
        CtrlType.CHANNELS_REP: _on_reply,
        CtrlType.SESSION_REP: _on_reply,
        CtrlType.SESSION_RESUME_REP: _on_reply,
        CtrlType.TRANSPORT_FALLBACK_REP: _on_reply,
        CtrlType.TRANSPORT_RESTORE_REP: _on_reply,
        CtrlType.BLOCK_MARKER: _on_marker,
        CtrlType.BLOCK_NACK: _on_block_nack,
        CtrlType.DATASET_DONE_ACK: _on_dataset_done_ack,
    }

    # -- heartbeats (peer liveness in bounded time) -----------------------------------
    def _heartbeat_thread(self) -> Generator:
        """PING the sink whenever the link goes quiet for one adaptive
        heartbeat interval; declare :class:`PeerDead` after the miss
        budget.  Any inbound control traffic counts as life — PINGs only
        flow on an otherwise-idle link, so a healthy busy transfer pays
        nothing."""
        thread = self.host.thread("src-hb", "app")
        while self.jobs:
            interval = self.health.heartbeat_interval()
            yield self.engine.timeout(interval)
            if not self.jobs:
                break
            if self.engine.now - self.health.last_heard < interval:
                continue
            self.health.misses += 1
            if self.health.misses > self.config.heartbeat_misses:
                self._m_peer_dead.add()
                self.engine.trace("link", "peer_dead", misses=self.health.misses)
                for job in list(self.jobs.values()):
                    self._abort_job(
                        job,
                        PeerDead(
                            job.session_id,
                            f"peer silent for {self.health.misses}"
                            " heartbeat intervals",
                        ),
                    )
                continue
            self._m_pings.add()
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.PING, 0, self.health.next_ping()),
            )
        self._hb_running = False

    # -- graceful degradation: the TCP fallback path ----------------------------------
    def _begin_fallback(self, job: TransferJob) -> bool:
        """Flip a session whose every data channel died onto the TCP
        fallback.  Returns True when it is already on it, and False when
        degradation is impossible (no factory wired, disabled, or the
        session already ended) — the caller then aborts with
        :class:`DataChannelsLost` as before."""
        if job.phase is not _RDMA or not self.config.tcp_fallback or self.tcp_factory is None:
            return job.phase in _ON_TCP
        job.phase = _TCP
        job.fallbacks += 1
        self.fallbacks.add()
        # Halt the RDMA-plane threads; they recycle whatever they hold.
        # Blocks parked in the loaded queue and repair copies are
        # reclaimed here — the fallback pump re-reads straight from the
        # data source, and the sink's accept revokes every RDMA region,
        # so neither the copies nor their credits stay meaningful.
        self._scrap_held(job)
        if not job._halt.triggered:
            job._halt.succeed()
        self.engine.trace(
            "link", "fallback_begin", session=job.session_id, marker=job.marker
        )
        self.engine.process(self._fallback_thread(job))
        return True

    def _fallback_thread(self, job: TransferJob) -> Generator:
        """Carry the rest of the dataset over TCP: negotiate, pump the
        missing suffix with checksummed framed blocks, then either
        finish (DATASET_DONE over the control QP as usual) or promote
        the session back to RDMA when a channel returns."""
        from repro.tcp.fallback import TcpBlockStream

        thread = self.host.thread(f"src-fallback{job.session_id}", "app")
        sid = job.session_id
        try:
            conn = self.tcp_factory()
        except Exception as exc:  # factory refused (injected denial)
            self._abort_job(
                job, TransportFallbackFailed(sid, f"no TCP path: {exc}")
            )
            return
        stream = TcpBlockStream(conn)
        fallbacks = job.fallbacks
        # However the session settles, the TCP connection dies with it.
        job.done.add_callback(lambda _ev: conn.close())
        reply = yield from self._request_reply(
            thread, job, CtrlType.TRANSPORT_FALLBACK_REQ, (job.total_bytes, stream)
        )
        if reply is None:
            return  # aborted (NegotiationTimeout) — done-callback closed conn
        accepted, resume_seq = reply.data
        if not accepted:
            self._abort_job(
                job, TransportFallbackFailed(sid, "sink denied transport fallback")
            )
            return
        # The sink revoked every outstanding RDMA region when it
        # accepted; stale credits in the shared ledger must not survive.
        self.ledger.flush()
        resume_seq = min(max(resume_seq, 0), job.total_blocks)
        job.marker = resume_seq
        self.engine.trace(
            "link", "fallback_accepted", session=sid, resume_seq=resume_seq
        )
        # Stands down once the pump is done (the ack watchdog owns the
        # endgame) or the session is promoted back to RDMA (and may have
        # fallen back again, onto another stream).
        self.engine.process(self._stall_watchdog(
            job,
            lambda: stream.blocks_sent,
            lambda: job.phase not in (_TCP, _REPROMOTING) or job.fallbacks != fallbacks,
            lambda n: TransportFallbackFailed(
                sid, f"fallback stream stalled at {stream.blocks_sent}"
                f" blocks for {n} timeouts",
            ),
        ))
        if self.config.fallback_repromote and self._reopen is not None:
            self.engine.process(self._repromote_watchdog(job))
        seq = resume_seq
        while seq < job.total_blocks and job.phase is _TCP:
            offset, length = job._block_extent(seq)
            payload = yield from job.data_source.read(thread, length, seq)
            if job.phase in _ENDED:
                return
            header = BlockHeader(sid, seq, offset, length, block_checksum(payload))
            yield from stream.send_block(thread, header, payload)
            job._count_fallback_block()
            seq += 1
        if job.phase in _ENDED:
            return
        job.phase = _DRAINED
        yield from stream.send_eof(thread)
        if seq >= job.total_blocks:
            # The whole remainder is queued on the TCP path; close out
            # with the ordinary completion handshake.  The ack watchdog
            # keeps retransmitting DATASET_DONE while the sink drains.
            yield from self._dataset_done(thread, job)
            return
        yield from self._restore_rdma(thread, job, seq)

    def _restore_rdma(self, thread, job: TransferJob, next_seq: int) -> Generator:
        """Promote the session back to RDMA after the sink has drained
        the TCP phase (signalled by the in-band EOF sentinel).  The sink
        answers "not ready" until its consumer hits the sentinel, so the
        handshake is polled under the patience budget."""
        sid = job.session_id
        store = job._replies[CtrlType.TRANSPORT_RESTORE_REP]
        for round_ in range(CTRL_RETRIES + 1):
            store.items.clear()  # drop stale not-ready replies
            reply = yield from self._request_reply(
                thread, job, CtrlType.TRANSPORT_RESTORE_REQ,
                (job.total_bytes, self._marker_interval()),
            )
            if reply is None:
                return  # aborted
            ready, resume_seq, _initial = reply.data  # credits: control thread
            if ready:
                break
            yield self.engine.timeout(self.health.patience_timeout(round_))
            if job.phase in _ENDED:
                return
        else:
            self._abort_job(
                job,
                TransportFallbackFailed(
                    sid, "sink never drained the fallback stream"
                ),
            )
            return
        self.repromotions.add()
        job.repromotions += 1
        self.engine.trace("link", "repromote", session=sid, start_seq=resume_seq)
        # Re-arm the RDMA plane exactly like a session resume, minus the
        # session handshake: fresh halt event, the RDMA phase, cursors at
        # the sink's durable prefix, and a new reader/sender generation.
        # The first arming's marker watchdog idled through the fallback:
        # still running.
        job._halt = Event(self.engine)
        job.completed_blocks = 0
        job._done_sent_at.clear()
        yield from self._arm(thread, job, resume_seq, marker_watchdog=False)

    def _repromote_watchdog(self, job: TransferJob) -> Generator:
        """While degraded, periodically probe for an RDMA path: once a
        channel re-establishes (a breaker cooldown's worth of waiting
        between attempts), flag the pump to hand the tail back to the
        RDMA plane."""
        while job.phase in _ON_TCP:
            yield self.engine.timeout(self.health.breaker_cooldown())
            if job.phase is not _TCP:
                return
            if self.data.alive_count == 0:
                reopen = self._reopen
                if reopen is None:
                    return
                try:
                    yield reopen()
                except Exception:
                    continue  # path still down; retry next cooldown
            if self.data.alive_count > 0 and job.phase is _TCP:
                job.phase = _REPROMOTING
                self.engine.trace(
                    "link", "repromote_requested", session=job.session_id
                )
                return


def _reap(host_pool: HostChannelPool) -> Generator:
    """The one reader of a set's send CQ: pop each completion's entry
    off ``host_pool.inflight`` and settle the WR on its link.

    The per-WC body is inline, not a generator per completion (one more
    frame per block on the hot path), and nothing it binds outlives a
    batch: a parked reaper must not keep an ended session alive."""
    thread = host_pool.host.thread("src-completion", "app")
    engine = host_pool.engine
    inflight = host_pool.inflight
    while True:
        link = job = block = credit = None  # parked: hold no rider or session
        yield host_pool.cc.wait(thread)
        wcs = yield host_pool.send_cq.poll(thread, max_entries=64)
        for wc in wcs:
            # Unpacked, never bound: a held entry would keep its job alive.
            link, job, block, credit, attempts, is_repair, posted_at = inflight.pop(wc.wr_id)
            if not wc.ok and wc.status is WcStatus.WR_FLUSH_ERR:
                # A dead channel flushed this WR: detach it so the
                # rotation shrinks to the survivors (idempotent — the
                # first flushed WR wins, later ones find it gone).
                host_pool.data.detach(wc.qp_num)
            breaker = host_pool.breaker_for(wc.qp_num)
            if wc.ok:
                breaker.record_success()
            elif breaker.record_failure(engine.now):
                link.breaker_trips.add()
                engine.trace(
                    "link", "breaker_trip", qp=wc.qp_num,
                    trips=breaker.trips,
                )
            if job.phase is not _RDMA:
                # The session ended (or degraded to TCP) while this
                # WRITE was in flight; the reaper holds the last live
                # reference.
                link._reclaim(job, block, credit)
                continue
            if wc.ok:
                link._m_latency.observe(engine.now - posted_at)
                assert block.header is not None
                if credit is not None:
                    yield from link.ctrl.send(thread, ControlMessage(
                        CtrlType.BLOCK_DONE, job.session_id,
                        (credit.block_id, block.header),
                    ))
                    if job.phase is not _RDMA:
                        # Halted during the send, after its scrap: the
                        # block is ours to reclaim; BLOCK_DONE spent the
                        # credit.
                        link._reclaim(job, block)
                        continue
                # Eager (credit is None): the SEND delivered header
                # and payload together — there is no region to name,
                # so no BLOCK_DONE rides the control QP.  Everything
                # below (marker bookkeeping, the repair hold, dataset
                # completion) applies to both transports.
                # Restart markers ack this send later; remember when
                # it left (Karn: a re-sent seq becomes ambiguous and
                # is struck from the sample book).
                seq = block.header.seq
                job._done_sent_at[seq] = (
                    None if seq in job._done_sent_at else engine.now
                )
                if link.config.block_repair:
                    # Keep the copy WAITING until a restart marker (or
                    # the final ACK) covers it — a BLOCK_NACK re-sends
                    # from exactly this copy.
                    job.unacked[block.header.seq] = block
                else:
                    block.release()
                    link.pool.put_free_blk(block)
                if is_repair:
                    continue  # counted when it first completed
                job.completed_blocks += 1
                link._m_completed.add()
                if job.completed_blocks == job.blocks_to_send:
                    yield job._loaded.put(None)  # release the sender
                    yield from link._dataset_done(thread, job)
            else:
                # Failed WRITE (Fig. 6: WAITING → LOADED re-send).
                # The payload never landed, so the credit's region is
                # still empty — re-post immediately with the SAME
                # credit.  Routing it back through the ledger would
                # let fresh blocks steal it and, with a fully
                # advertised sink pool, leave the retransmission
                # unable to ever acquire a region (head-of-line
                # deadlock).  After a channel death the re-post lands
                # on a surviving QP (least-loaded pick skips ERROR).
                attempts += 1
                if attempts > MAX_BLOCK_RESENDS:
                    seq = block.header.seq if block.header else -1
                    link._reclaim(job, block, credit)
                    link._abort_job(
                        job,
                        ResendLimitExceeded(
                            job.session_id,
                            f"block seq {seq} failed {attempts} times",
                        ),
                    )
                    continue
                job._count_resend()
                block.resend()
                yield from link._post_block(thread, job, block, credit, attempts, is_repair)
