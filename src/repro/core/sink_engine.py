"""The data-sink protocol engine (receiver side of §IV).

The sink is *not* on the data path: payload lands in its registered
blocks via one-sided RDMA WRITE with zero sink CPU.  Its threads only:

- handle control messages — negotiate parameters, turn BLOCK_DONE
  notifications into READY blocks (via the reassembly buffer), and grant
  credits per the proactive-feedback policy;
- consume READY blocks in order (``get_ready_blk``), hand payload to the
  application's data sink (file system, /dev/null), and recycle blocks
  (``put_free_blk``), triggering fresh grants.

Everything the sink knows about one session id is one slotted
:class:`SinkSession` record, ``LIVE → ACKED | RECLAIMED | CRASHED →
evicted``.  Incarnations *start* through ``_go_live`` / ``_reanchor``
(+ ``_reattach`` for resume and fallback) and *end* through
``_end_incarnation``; DESIGN.md §8 tabulates what each start resets, what
each end keeps, and why.

Recovery: duplicate negotiation requests are answered idempotently (a
retransmitting source must converge on one session, one grant), ended
sessions are evicted whole past ``sink_session_history``, and a lazy
garbage collector reclaims sessions idle past ``session_idle_timeout`` —
freeing parked reassembly blocks and, once no live session shares the
pool, revoking credits a dead source can never honour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.core.blocks import SinkBlock, SinkBlockState
from repro.core.channels import ControlChannel
from repro.core.config import ProtocolConfig
from repro.core.credits import Credit, CreditGranter
from repro.core.errors import (
    EndpointCrashed,
    PeerDead,
    StaleSessionReclaimed,
    TransferError,
)
from repro.core.health import HealthMonitor
from repro.core.messages import (
    PROTOCOL, ControlMessage, CtrlType, Duplicate, Grant, block_checksum,
)
from repro.core.pool import BlockPool
from repro.core.reassembly import ReassemblyBuffer
from repro.sim.events import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.host import Host
    from repro.sim.engine import Engine

__all__ = ["SessionState", "SinkEngine", "SinkSession"]


class SessionState(enum.Enum):
    """A :class:`SinkSession`'s lifecycle; ended states double as outcomes."""

    LIVE = "live"  #: negotiated (or re-attached); blocks are accepted
    ACKED = "acked"  #: everything consumed and DATASET_DONE_ACK sent
    RECLAIMED = "reclaimed"  #: reaped by the GC (idle, or the peer is dead)
    CRASHED = "crashed"  #: was live when the sink process crashed


_LIVE, _ACKED = SessionState.LIVE, SessionState.ACKED


@dataclass(slots=True, eq=False)
class SinkSession:
    """Everything the sink holds for one session id.

    It outlives its incarnation (bounded by ``sink_session_history``): an
    ACKED record re-acks a retransmitted DATASET_DONE, a RECLAIMED / CRASHED
    one anchors a later resume or fallback at its restart marker.
    """

    sid: int
    #: Marker cadence the source negotiated (bounded by the *source*
    #: pool so repair copies can't starve its readers).
    interval: int
    state: SessionState = _LIVE  # records are born going live (``_go_live``)
    #: Succeeds (with the byte total) once everything is consumed and
    #: acked; fails (defused) with the typed error that ended the
    #: incarnation — :class:`StaleSessionReclaimed`, :class:`PeerDead` or
    #: :class:`EndpointCrashed`.  Pending exactly while LIVE.
    done: Optional[Event] = None
    #: Total bytes of the acked dataset (ACKED only) — lets a
    #: retransmitted DATASET_DONE be re-acked idempotently.
    acked_total: Optional[int] = None
    consumed: int = 0
    #: Byte total the source announced in DATASET_DONE, once seen.
    dataset_done_total: Optional[int] = None
    #: Eager (SEND/RECV) transport: payload arrives through the shared
    #: receive queue, so no credits are granted for the session — freeing
    #: its blocks must not advertise regions nothing will ever write into.
    eager: bool = False
    #: Last control/consumption activity (meaningful while LIVE).
    last_activity: float = 0.0
    #: Generation of the consumed-bytes accounting.  Bumped whenever
    #: ``consumed`` is re-anchored to the marker (fallback accept, resume,
    #: reclaim, crash): a writer thread whose ``data_sink.write``
    #: straddled the re-anchor must NOT apply its accounting — its block
    #: sits below the new marker and will be re-delivered, so counting it
    #: twice would retire the session one block early.
    epoch: int = 0
    # -- restart marker -------------------------------------------------------
    #: Contiguous *written* prefix, in blocks: everything below it has
    #: hit the application sink, so a resumed session re-attaches here.
    #: Recoverable from the data file itself, it survives both GC reclaim
    #: and a sink crash.
    upto: int = 0
    #: Seqs written above the contiguous prefix (the small out-of-order
    #: window of the parallel writer threads), or None.
    pending: Optional[set] = None
    #: Last BLOCK_MARKER value sent to the source.  The marker wire
    #: messages track the *delivered* prefix
    #: (``ReassemblyBuffer.next_seq``): delivery implies the checksum
    #: verified, which is all the source needs to release its repair
    #: copies — waiting for the writer threads too would hold its pool
    #: blocks hostage to sink disk latency.
    sent: int = 0
    #: ``(marker, credits)`` of the last SESSION_RESUME_REP, so a
    #: retransmitted resume request is answered idempotently.
    resume_grant: Optional[tuple] = None
    #: ``(seq, credits)`` of the last ready TRANSPORT_RESTORE_REP,
    #: answered idempotently like resumes.
    restore_grant: Optional[tuple] = None
    # -- degraded mode --------------------------------------------------------
    #: Live TcpBlockStream carrying the degraded session; its consumer
    #: thread stands down once this is no longer *its* stream.
    stream: Any = None
    #: resume_seq of the accepted fallback, for idempotent replies to
    #: retransmitted TRANSPORT_FALLBACK_REQs.
    fallback_seq: Optional[int] = None
    #: Next expected seq recorded when the TCP consumer hit the EOF
    #: sentinel (the TRANSPORT_RESTORE anchor).
    fallback_eof: Optional[int] = None

    def clear_incarnation(self) -> None:
        """Forget what belongs to one incarnation (the marker anchor
        ``upto`` / ``sent`` / ``interval`` and the epoch are not)."""
        self.dataset_done_total = None
        self.pending = None
        self.resume_grant = self.restore_grant = None
        # The TCP consumer keys its liveness on this registration.
        self.stream = self.fallback_seq = self.fallback_eof = None
        self.eager = False
        self.last_activity = 0.0


class SinkEngine:
    """Drives the receiving side of transfer sessions on one control
    channel."""

    def __init__(
        self,
        host: "Host",
        ctrl: ControlChannel,
        config: ProtocolConfig,
        data_sink: Any,
        pool_factory,
    ) -> None:
        self.host = host
        self.engine: "Engine" = host.engine
        self.ctrl = ctrl
        self.config = config
        self.data_sink = data_sink
        #: Callable ``(block_size) -> BlockPool[SinkBlock]`` — the pool is
        #: built only once the block size is negotiated.
        self.pool_factory = pool_factory

        self.pool: Optional[BlockPool[SinkBlock]] = None
        self.granter: Optional[CreditGranter] = None
        reg = self.engine.metrics
        self._m_idx = reg.sequence("sink_engine")
        labels = {"sink": self._m_idx}
        self.reassembly = ReassemblyBuffer(registry=reg, sink=self._m_idx)
        self._ready: Store = Store(self.engine)
        #: session id -> the one record of everything held for that id,
        #: ordered by last transition: LIVE sessions are swept (GC,
        #: PeerDead, crash) in the order they went live, ended ones are
        #: evicted in the order they ended.  Past
        #: ``config.sink_session_history`` ended records the oldest is
        #: deleted whole, or a broker multiplexing thousands of short
        #: sessions over one link would grow the table without bound.
        self._sessions: Dict[int, SinkSession] = {}
        #: Records currently LIVE.
        self._live = 0
        self.blocks_delivered = reg.counter("sink.blocks_delivered", **labels)
        self.sessions_reclaimed = reg.counter("sink.sessions_reclaimed", **labels)
        self.stray_messages = reg.counter("sink.stray_messages", **labels)
        self.checksum_mismatches = reg.counter("sink.checksum_mismatches", **labels)
        self.nacks_sent = reg.counter("sink.nacks_sent", **labels)
        self.markers_sent = reg.counter("sink.markers_sent", **labels)
        self.resumes = reg.counter("sink.resumes", **labels)
        self.crashes = reg.counter("sink.crashes", **labels)
        reg.gauge_fn("sink.ready_blocks", lambda: len(self._ready.items), **labels)
        reg.gauge_fn("sink.active_sessions", lambda: self._live, **labels)
        self._consumers_started = False
        self._gc_running = False
        # -- adaptive health / degraded-mode state -------------------------------------
        #: Peer liveness + RTT estimation (samples come from the PONGs to
        #: our own idle-time PINGs; the sink is otherwise a pure responder).
        self.health = HealthMonitor(self.engine, config)
        #: Optional zero-arg hook consulted on TRANSPORT_FALLBACK_REQ;
        #: returning True denies the fallback (fault injection).
        self.fallback_deny_hook = None
        self._last_ping_at = float("-inf")
        self._m_pings = reg.counter("sink.pings", **labels)
        self._m_peer_dead = reg.counter("sink.peer_dead", **labels)
        self.fallback_sessions = reg.counter("sink.fallback_sessions", **labels)
        self.fallback_blocks = reg.counter("sink.fallback_blocks", **labels)

    # -- public -----------------------------------------------------------------
    def start(self) -> None:
        """Launch the control-handling thread."""
        self.engine.process(self._control_thread())

    def has_session(self, session_id: int) -> bool:
        """True while ``session_id`` is LIVE here."""
        s = self._sessions.get(session_id)
        return s is not None and s.state is _LIVE

    def _live_sessions(self) -> List[SinkSession]:
        """LIVE records, in the order they went live."""
        return [s for s in self._sessions.values() if s.state is _LIVE]

    def audit(self) -> List[str]:
        """What a quiescent engine must not hold, as leak messages."""
        leaks: List[str] = [] if self.pool is None else self.pool.audit()
        parked = self.reassembly.sessions_with_parked()
        if parked:
            leaks.append(f"reassembly entries parked for sessions {parked}")
        if self._ready.items:
            leaks.append(f"{len(self._ready.items)} ready blocks unconsumed")
        if self._live:
            leaks.append(f"{self._live} sink sessions never retired")
        ended = len(self._sessions) - self._live
        if ended > self.config.sink_session_history:
            leaks.append(
                f"retired-session history {ended} exceeds cap"
                f" {self.config.sink_session_history}"
            )
        # A completed session has no business keeping resume anchors,
        # stored grants or a degraded stream.
        acked = [s for s in self._sessions.values() if s.state is _ACKED]
        for name in ("upto", "pending", "sent", "resume_grant", "restore_grant",
                     "stream", "fallback_seq", "fallback_eof"):
            stranded = [s.sid for s in acked if getattr(s, name) not in (None, 0)]
            if stranded:
                leaks.append(
                    f"restart-marker state {name} stranded for acked"
                    f" sessions {sorted(stranded)}"
                )
        return leaks

    # -- session lifecycle (DESIGN.md §8) ----------------------------------------------
    def _go_live(self, sid: int, s: Optional[SinkSession]) -> SinkSession:
        """Enter LIVE — a new id, or an ended record revived: fresh
        ``done`` event, writer and GC threads running."""
        if s is None:
            s = SinkSession(sid, self.config.marker_interval_blocks)
        else:
            del self._sessions[sid]  # revived: re-inserted at the back
            s.state = _LIVE
            s.acked_total = None  # a finished session's id may be reused
        self._sessions[sid] = s
        self._live += 1
        s.done = Event(self.engine)
        s.last_activity = self.engine.now
        if not self._consumers_started:
            self._consumers_started = True
            for i in range(self.config.writer_threads):
                self.engine.process(self._consumer_thread(i))
        if not self._gc_running:
            self._gc_running = True
            self.engine.process(self._gc_thread())
        return s

    def _reanchor(self, s: SinkSession, seq: int, total: int) -> None:
        """Anchor ``s`` at block ``seq`` — the only place consumed bytes,
        the marker and the reassembly cursor are set.  Accounting restarts
        at the anchor: bytes consumed beyond it may be re-delivered
        (overlap) and must count exactly once."""
        assert self.pool is not None
        s.consumed = min(seq * self.pool.block_size, total)
        s.upto = s.sent = seq
        s.pending = None
        s.last_activity = self.engine.now
        self.reassembly.set_next_seq(s.sid, seq)

    def _reattach(
        self, sid: int, s: Optional[SinkSession], total: int, seq: int,
        supersede_done: bool,
    ) -> SinkSession:
        """Re-attach a session at its restart marker ``seq`` — the part
        SESSION_RESUME and TRANSPORT_FALLBACK share.  All RDMA credits of
        the old incarnation die here; the caller grants afresh (or not)."""
        if s is not None and s.state is _LIVE:
            # The old incarnation is still live here (source-side crash
            # or degradation): free its un-consumed arrivals above the
            # marker (they will be re-sent) and forget its stored grants,
            # degraded stream and eager flag — a re-attach always rides
            # rendezvous, anchored on credits + restart markers.
            self._drop_unconsumed(sid)
            s.clear_incarnation()
            if supersede_done:
                s.done.fail(EndpointCrashed(sid, "superseded by session resume")).defuse()
                s.done = Event(self.engine)
        else:
            s = self._go_live(sid, s)
        s.epoch += 1
        self._reanchor(s, seq, total)
        self._revoke_waiting()
        return s

    def _revoke_waiting(self) -> None:
        """Revoke every WAITING block and forget the starved-sender latch.

        Unconditional on re-attach: accepting a resume or fallback
        flushes the *entire* link ledger on the source, so no live ledger
        holds a credit for any WAITING region, whichever session id it
        was stamped with.  Guarding on "no sibling registered" leaked
        blocks for good while a dead-but-unreclaimed sibling lingered
        (resume's contract already forbids a *healthy* one).
        """
        assert self.pool is not None and self.granter is not None
        for blk in self.pool.blocks.values():
            if blk.state is SinkBlockState.WAITING:
                blk.mr.take(blk.mr.buffer.addr)  # discard unnotified data
                blk.revoke()
                self.pool.put_free_blk(blk)
        self.granter.pending_request = False

    def _end_incarnation(self, s: SinkSession, outcome: SessionState, result: Any) -> None:
        """LIVE → ``outcome`` — the only place per-incarnation fields are
        cleared and the only way into the bounded history.  ``result``
        resolves ``done``: the acked byte total, or the typed error."""
        s.state = outcome
        self._live -= 1
        s.clear_incarnation()
        if outcome is _ACKED:
            # ``consumed`` and ``done`` remain for post-run observability.
            s.acked_total = result
            s.upto = s.sent = s.epoch = 0
            s.interval = self.config.marker_interval_blocks
            s.done.succeed(result)
        else:
            # ``upto`` / ``interval`` stay to anchor a later resume or
            # fallback.  A writer mid-``write`` (a sim process: it survives
            # a crash) must not resurrect the dead incarnation's accounting.
            s.epoch += 1
            if outcome is SessionState.CRASHED:
                # Volatile: accounting dies; the sent cursor is re-derived
                # from disk so post-resume markers stay truthful.
                s.consumed = 0
                s.sent = s.upto
            # Defused: ending the incarnation is the handling — whoever
            # polls the event later still sees the typed error.
            s.done.fail(result).defuse()
        del self._sessions[s.sid]  # to the back: evicted in ending order
        self._sessions[s.sid] = s
        while len(self._sessions) - self._live > self.config.sink_session_history:
            oldest = next(r for r in self._sessions.values() if r.state is not _LIVE)
            del self._sessions[oldest.sid]

    # -- control plane -------------------------------------------------------------
    def _control_thread(self) -> Generator:
        thread = self.host.thread("snk-ctrl", "app")
        while True:
            msgs = yield from self.ctrl.receive(thread)
            for msg in msgs:
                self.health.heard()
                step = self._dispatch(thread, msg)
                if step is not None:
                    yield from step

    def _dispatch(self, thread, msg: ControlMessage) -> Optional[Generator]:
        """Hand ``msg`` to its type's entry in ``_HANDLERS`` and return
        what the handler returns: a generator for the caller to drive when
        it may send, ``None`` otherwise.  A type the sink has no handler
        for (a sink→source type sent its way) is a counted stray."""
        s = self._sessions.get(msg.session_id)  # any state, or None
        if s is not None and s.state is _LIVE:
            s.last_activity = self.engine.now
        handler = self._HANDLERS.get(msg.type)
        if handler is None:
            self.stray_messages.add()
            return None
        return handler(self, thread, msg, s)

    def _reply(self, msg: ControlMessage, data: Any) -> ControlMessage:
        """The answer to ``msg``: its reply type in ``PROTOCOL``."""
        return ControlMessage(PROTOCOL[msg.type].reply, msg.session_id, data)

    def _on_block_size_req(self, thread, msg, s) -> Generator:
        accept = msg.data >= 4096
        if self.pool is not None and msg.data != self.pool.block_size:
            # The registered pool is sized for one block size; a later
            # session must negotiate the same one (or a new link).
            accept = False
        if accept and self.pool is None:
            self.pool = self.pool_factory(msg.data)
            self.granter = CreditGranter(
                self.pool,
                grant_ratio=self.config.credit_grant_ratio,
                proactive=self.config.proactive_credits,
            )
        yield from self.ctrl.send(thread, self._reply(msg, (accept,)))

    def _on_channels_req(self, thread, msg, s) -> Generator:
        yield from self.ctrl.send(thread, self._reply(msg, (True,)))

    def _on_session_req(self, thread, msg, s) -> Generator:
        if self.granter is None:
            # No block size negotiated, so no pool to grant from: refuse,
            # and the source aborts with a typed error.
            yield from self.ctrl.send(thread, self._reply(msg, (False, ())))
            return
        total_bytes, marker_interval, eager = msg.data
        initial: tuple = ()
        if s is None or s.state is not _LIVE:
            reused = s is not None
            if reused and s.state is not _ACKED:
                # Marker-epoch guard: the restart marker a reclaimed
                # predecessor left only anchors a SESSION_RESUME; a
                # fresh incarnation inheriting it would overstate its
                # durable prefix and stall marker emission.
                # Re-anchoring at 0 (below) resets it.
                s.epoch += 1
            s = self._go_live(msg.session_id, s)
            if reused:  # a new record is born anchored at block 0
                self._reanchor(s, 0, total_bytes)
            s.interval = marker_interval
            s.eager = eager
            if not eager:
                initial = tuple(self.granter.initial_grant(self.config.initial_credits))
        # Empty grant for a retransmitted duplicate (PROTOCOL's
        # ``Duplicate.EMPTY``) and for an eager session (it lands via the
        # shared receive queue: no region to name).
        yield from self.ctrl.send(thread, self._reply(msg, (True, initial)))

    def _on_mr_info_req(self, thread, msg, s) -> Generator:
        # Credits are link-level: answer as long as *any* session is
        # live, whichever session id the starved sender stamped on it.
        if self.granter is None or not self._live:
            self.stray_messages.add()
            return
        granted = self.granter.on_request()
        if granted:
            yield from self._send_credits(thread, msg.session_id, granted)

    def _on_ping(self, thread, msg, s) -> Generator:
        # Link-level liveness (session id 0): echo the nonce so the
        # peer's estimator gets an unambiguous sample.
        yield from self.ctrl.send(thread, self._reply(msg, msg.data))

    def _on_pong(self, thread, msg, s) -> None:
        self.health.on_pong(msg.data)

    def _on_dataset_done(self, thread, msg, s) -> Generator:
        if s is not None and s.state is _LIVE:
            s.dataset_done_total = msg.data
            yield from self._maybe_finish(thread, s)
        elif s is not None and s.state is _ACKED:
            # The original ACK was sent (and possibly lost) after the
            # session was retired: re-ack idempotently.
            yield from self.ctrl.send(thread, self._reply(msg, s.acked_total))
        else:
            self.stray_messages.add()

    def _on_block_done(self, thread, msg, s) -> Generator:
        if s is None or s.state is not _LIVE:
            # In flight when its session was reclaimed (or a replay).
            # The block's region may since have been refunded to a live
            # session or revoked — not ours to touch.
            self.stray_messages.add()
            return
        assert self.pool is not None and self.granter is not None
        block_id, header = msg.data
        block = self.pool.by_id(block_id)
        # Extract what the one-sided WRITE deposited in the region.
        wire = block.mr.take(block.mr.buffer.addr)
        payload = wire.payload if wire is not None else None
        if header.checksum != block_checksum(payload):
            # The transport's CRC passed but the end-to-end checksum did
            # not: the region holds garbage.  Withhold the block — it
            # stays WAITING on the same region — and, when repair is on,
            # ask the source to re-send its still-WAITING copy into the
            # same credit.  With repair off the session starves and dies
            # with a typed abort instead of delivering corrupt data.
            self._count_mismatch(header)
            if self.config.block_repair:
                yield from self._nack(thread, header, block)
            return
        if self.reassembly.reject_duplicate(header, payload):
            # A replay (or a resumed session re-sending data consumed
            # beyond the restart marker): the bytes are already accounted
            # for, so recycle the region straight away.
            block.revoke()
            self.pool.put_free_blk(block)
            if not s.eager or self.granter.pending_request:
                granted = self.granter.on_block_freed()
                if granted:
                    yield from self._send_credits(thread, msg.session_id, granted)
            return
        block.finish(header, payload)
        self.blocks_delivered.add()
        for hdr, blk in self.reassembly.push(header, block):
            yield self._ready.put((hdr, blk))
        # An eager session reaches here only through the rendezvous
        # repair path (a NACKed block re-written into a one-off credit);
        # granting replacements would advertise regions nothing writes
        # into, slowly pinning the whole pool — unless a starved
        # rendezvous sibling is owed a grant.
        if not s.eager or self.granter.pending_request:
            granted = self.granter.on_block_done()
            if granted:
                yield from self._send_credits(thread, msg.session_id, granted)
        yield from self._maybe_send_marker(thread, s)

    def _count_mismatch(self, header) -> None:
        self.checksum_mismatches.add()
        self.engine.trace(
            "sink", "checksum_mismatch", session=header.session_id, seq=header.seq
        )

    def _nack(self, thread, header, block: SinkBlock) -> Generator:
        """BLOCK_NACK: have the source re-send its still-WAITING copy of
        ``header.seq`` into the credit for ``block``'s region."""
        self.nacks_sent.add()
        yield from self.ctrl.send(
            thread,
            ControlMessage(
                CtrlType.BLOCK_NACK,
                header.session_id,
                (header.seq, Credit.for_block(block)),
            ),
        )

    def on_eager_block(self, thread, wire) -> Generator:
        """One eager (SEND/RECV) arrival off the shared receive queue.

        The middleware's SRQ dispatcher hands over the
        :class:`~repro.core.messages.DataBlockWire` a SEND delivered;
        header and payload arrive together, so there is no BLOCK_DONE and
        no credit bookkeeping.  The payload is copied into a pool block
        (which may wait for the writer threads — that wait, not credits,
        is the eager path's flow control: the dispatcher does not repost
        the consumed WQE until this returns, so a starved pool surfaces
        as RNR backpressure on the wire).  A checksum mismatch repairs
        over the *rendezvous* path: the NACK carries a one-off credit for
        the block just claimed, and the source re-WRITEs into it.
        """
        header = wire.header
        payload = wire.payload
        s = self._sessions.get(header.session_id)
        if self.pool is None or s is None or s.state is not _LIVE:
            # Reclaimed or unknown session: the WQE was consumed but the
            # payload has no home.  Counted, not fatal — like strays.
            self.stray_messages.add()
            return
        s.last_activity = self.engine.now
        if self.reassembly.reject_duplicate(header, payload):
            return  # no region was claimed; nothing to recycle
        block = yield self.pool.get_free_blk()
        block.advertise()  # FREE → WAITING: the region now owns this seq
        if header.checksum != block_checksum(payload):
            self._count_mismatch(header)
            if self.config.block_repair:
                yield from self._nack(thread, header, block)
            else:
                # No repair: withhold delivery (the session starves and
                # dies typed, as on the rendezvous path) but return the
                # region — it holds nothing.
                block.revoke()
                self.pool.put_free_blk(block)
            return
        block.finish(header, payload)
        self.blocks_delivered.add()
        for hdr, blk in self.reassembly.push(header, block):
            yield self._ready.put((hdr, blk))
        yield from self._maybe_send_marker(thread, s)

    # -- re-attach: resume, TCP fallback, restore (DESIGN.md §8) -----------------------
    def _reattach_answer(
        self, msg, s: Optional[SinkSession], stored: Optional[tuple], total: int,
        enabled: bool = True,
    ) -> Optional[tuple]:
        """The prologue the three re-attach requests share: the reply's
        data when the request is refused (``enabled`` off, or no pool
        yet), names an ACKED dataset, or repeats the request ``stored``
        answered — per the type's ``duplicate`` rule — else ``None``: the
        handler must act.  A reply that carries a grant (its ``grant``
        column) carries an empty one here."""
        empty = ((),) if PROTOCOL[PROTOCOL[msg.type].reply].grant is not Grant.NONE else ()
        if not enabled or self.pool is None or self.granter is None:
            return (False, 0, *empty)
        if s is not None and s.state is _ACKED:
            # Point the source past the last block: it goes straight to
            # DATASET_DONE, re-acked idempotently from ``acked_total``.
            bs = self.pool.block_size
            return (True, (s.acked_total + bs - 1) // bs, *empty)
        if stored is None:
            return None
        seq = stored[0]
        if PROTOCOL[msg.type].duplicate is Duplicate.REPLAY and not (
            s.upto == seq
            and self.reassembly.next_seq(s.sid) == seq
            and self.reassembly.pending(s.sid) == 0
            and s.consumed == min(seq * self.pool.block_size, total)
        ):
            return None  # something landed since: the stored grant is spent
        return (True, *stored)

    def _on_session_resume(self, thread, msg, s) -> Generator:
        """SESSION_RESUME_REQ: re-attach a session at its restart marker.

        The reply is ``(accepted, resume_seq, initial_credits)``.  The
        source re-sends every block from ``resume_seq`` on; everything
        below it is already in the application sink (possibly written by
        a dead incarnation) and is never re-transferred.
        """
        sid = msg.session_id
        total, marker_interval = msg.data
        answer = self._reattach_answer(
            msg, s, s.resume_grant if s is not None else None, total
        )
        if answer is None:
            marker = s.upto if s is not None else 0
            self.resumes.add()
            self.engine.trace("sink", "session_resume", session=sid, marker=marker)
            # A resume is a NEW incarnation: a still-pending ``done`` of
            # the old one fails with EndpointCrashed.
            s = self._reattach(sid, s, total, marker, supersede_done=True)
            s.interval = marker_interval
            initial = tuple(self.granter.initial_grant(self.config.initial_credits))
            s.resume_grant = (marker, initial)
            answer = (True, marker, initial)
        yield from self.ctrl.send(thread, self._reply(msg, answer))

    def _on_transport_fallback(self, thread, msg, s) -> Generator:
        """TRANSPORT_FALLBACK_REQ: carry the session on over TCP.

        ``msg.data`` is ``(total_bytes, stream)``.  The reply is
        ``(accepted, resume_seq)``: the source re-sends every block from
        ``resume_seq`` on over the stream — same restart-marker anchor as
        a SESSION_RESUME, so nothing below the contiguous-written prefix
        crosses the wire twice.  All RDMA credits of the session die here
        (the data QPs are gone); WAITING regions are revoked like on a
        resume, and nothing is granted.
        """
        sid = msg.session_id
        total, stream = msg.data
        deny = (
            not self.config.tcp_fallback
            or self.pool is None
            or (self.fallback_deny_hook is not None and self.fallback_deny_hook())
        )
        # A retransmitted request for the stream we already consume is
        # answered identically: the consumer thread is already running.
        same = s is not None and s.stream is stream
        answer = self._reattach_answer(
            msg, s, (s.fallback_seq,) if same else None, total, enabled=not deny
        )
        if deny:
            self.engine.trace("sink", "fallback_denied", session=sid)
        elif answer is None:
            marker = s.upto if s is not None else 0
            self.fallback_sessions.add()
            self.engine.trace("sink", "transport_fallback", session=sid, marker=marker)
            # The *same* incarnation degrading transports: a live ``done``
            # and the negotiated marker interval are kept; no grant.
            s = self._reattach(sid, s, total, marker, supersede_done=False)
            s.stream = stream
            s.fallback_seq = marker
            self.engine.process(self._tcp_consumer_thread(s, stream, marker))
            answer = (True, marker)
        yield from self.ctrl.send(thread, self._reply(msg, answer))

    def _on_transport_restore(self, thread, msg, s) -> Generator:
        """TRANSPORT_RESTORE_REQ: promote a degraded session back to RDMA.

        ``msg.data`` is ``(total_bytes, marker_interval)``.  The reply is
        ``(ready, resume_seq, initial_credits)`` — not ready until the
        TCP consumer has drained the stream to its EOF sentinel, so the
        RDMA restart point is exact and nothing races the stream.
        """
        sid = msg.session_id
        total, marker_interval = msg.data
        answer = self._reattach_answer(
            msg, s, s.restore_grant if s is not None else None, total
        )
        if answer is None:
            if s is None or s.state is not _LIVE or s.fallback_eof is None:
                # Nothing degraded here, or the consumer has not reached
                # the EOF sentinel yet; the source retries after a
                # patience interval.
                answer = (False, 0, ())
            else:
                # Back on RDMA at the consumer's EOF cursor.  The fallback
                # accept already revoked every region and bumped the
                # epoch, and the stream is drained: neither happens again.
                done_seq = s.fallback_eof
                self.engine.trace("sink", "transport_restore", session=sid, seq=done_seq)
                s.stream = s.fallback_seq = s.fallback_eof = None
                s.interval = marker_interval
                self._reanchor(s, done_seq, total)
                initial = tuple(self.granter.initial_grant(self.config.initial_credits))
                s.restore_grant = (done_seq, initial)
                answer = (True, done_seq, initial)
        yield from self.ctrl.send(thread, self._reply(msg, answer))

    #: One handler per type the sink receives (PROTOCOL's ``direction``),
    #: called ``(self, thread, msg, s)``: ``s`` is the record the message's
    #: id names (any state) or ``None``.  A type with no handler is a stray.
    _HANDLERS = {
        CtrlType.BLOCK_SIZE_REQ: _on_block_size_req,
        CtrlType.CHANNELS_REQ: _on_channels_req,
        CtrlType.SESSION_REQ: _on_session_req,
        CtrlType.MR_INFO_REQ: _on_mr_info_req,
        CtrlType.BLOCK_DONE: _on_block_done,
        CtrlType.DATASET_DONE: _on_dataset_done,
        CtrlType.SESSION_RESUME_REQ: _on_session_resume,
        CtrlType.PING: _on_ping,
        CtrlType.PONG: _on_pong,
        CtrlType.TRANSPORT_FALLBACK_REQ: _on_transport_fallback,
        CtrlType.TRANSPORT_RESTORE_REQ: _on_transport_restore,
    }

    # -- degraded mode: TCP fallback ---------------------------------------------------
    def _tcp_consumer_thread(self, s: SinkSession, stream, start_seq: int) -> Generator:
        """Drain one degraded session's TCP stream into the data sink.

        Blocks arrive strictly in order (TCP), so delivery bypasses the
        reassembly buffer and the credit machinery entirely; checksums
        are still verified end to end.  The thread stands down the moment
        the session's registered stream is no longer *this* one — a
        reclaim, crash, restore, or superseding fallback all clear or
        replace the registration.
        """
        thread = self.host.thread(f"snk-tcp{s.sid}", "app")
        cursor = start_seq
        while True:
            if s.stream is not stream:
                return
            frame = yield from stream.recv_block(thread)
            if s.stream is not stream:
                return
            if frame is None:
                # EOF sentinel: the source's pump stopped (dataset done or
                # a repromotion pending).  Record the restore anchor.
                s.fallback_eof = cursor
                self.engine.trace("sink", "fallback_eof", session=s.sid, seq=cursor)
                return
            header, payload = frame
            if header.checksum != block_checksum(payload):
                self._count_mismatch(header)
                continue
            yield from self.data_sink.write(thread, header.length, header, payload)
            if s.stream is not stream:
                return
            self.fallback_blocks.add()
            self.blocks_delivered.add()
            cursor = header.seq + 1
            s.consumed += header.length
            s.last_activity = self.engine.now
            self._advance_written(s, header.seq)
            yield from self._maybe_finish(thread, s)

    def _drop_unconsumed(self, session_id: int) -> None:
        """Free a session's parked and READY-but-unconsumed blocks."""
        assert self.pool is not None
        for _hdr, blk in self.reassembly.reclaim_session(session_id):
            blk.consume()
            self.pool.put_free_blk(blk)
        survivors = []
        for item in self._ready.items:
            if item[0].session_id == session_id:
                item[1].consume()
                self.pool.put_free_blk(item[1])
            else:
                survivors.append(item)
        self._ready.items.clear()
        self._ready.items.extend(survivors)

    def crash(self) -> None:
        """Kill the sink process and restart it with only persistent state.

        Volatile state dies: live sessions, the reassembly buffer, parked
        and READY blocks, outstanding credits, consumed-byte accounting.
        What a real implementation keeps on stable storage survives: data
        already written to the application sink, the DATASET_DONE_ACK
        ledger, and the contiguous-written restart marker (recoverable
        from the data file itself).  Blocks written *out of order* beyond
        that prefix are forgotten — without a block-granular journal a
        restarted sink cannot tell them from garbage, so a resume
        re-writes them identically.
        """
        self.crashes.add()
        self.engine.trace("sink", "crash")
        for s in self._live_sessions():
            self._end_incarnation(
                s, SessionState.CRASHED, EndpointCrashed(s.sid, "sink process crashed")
            )
        if self.pool is not None:
            for sid in self.reassembly.sessions():
                for _hdr, blk in self.reassembly.reclaim_session(sid):
                    blk.consume()
                    self.pool.put_free_blk(blk)
            for _hdr, blk in self._ready.items:
                blk.consume()
                self.pool.put_free_blk(blk)
            self._ready.items.clear()
            self._revoke_waiting()

    def _send_credits(self, thread, session_id: int, credits: List[Credit]) -> Generator:
        yield from self.ctrl.send(
            thread,
            ControlMessage(CtrlType.MR_INFO_REP, session_id, (True, tuple(credits))),
        )

    # -- data consumption -------------------------------------------------------------
    def get_ready_blk(self):
        """Event resolving to the next in-order ``(header, block)`` pair."""
        return self._ready.get()

    def _consumer_thread(self, index: int) -> Generator:
        thread = self.host.thread(f"snk-writer{index}", "app")
        assert self.pool is not None and self.granter is not None
        while True:
            header, block = yield self.get_ready_blk()
            payload = block.payload
            s = self._sessions.get(header.session_id)
            epoch = s.epoch if s is not None else None
            yield from self.data_sink.write(thread, header.length, header, payload)
            block.consume()
            self.pool.put_free_blk(block)
            if s is None or s.epoch != epoch:
                # The accounting was re-anchored mid-write; this block is
                # below the new marker and will arrive again.  (Or its
                # session was reclaimed and evicted before pickup.)
                continue
            s.consumed += header.length
            if s.state is _LIVE:
                s.last_activity = self.engine.now
            # Freed eager blocks go back to the pool, not out as credits
            # (nothing would ever write into them) — except when a
            # starved rendezvous sibling has a request outstanding.
            if not s.eager or self.granter.pending_request:
                granted = self.granter.on_block_freed()
                if granted:
                    yield from self._send_credits(thread, header.session_id, granted)
            self._advance_written(s, header.seq)
            if s.dataset_done_total is not None:
                yield from self._maybe_finish(thread, s)

    def _advance_written(self, s: SinkSession, seq: int) -> None:
        """Advance the contiguous-written prefix (the restart marker a
        resume re-attaches to — only bytes on stable storage count)."""
        if s.state is _ACKED:
            # A sibling writer thread finished (and retired) the session
            # while this one was still inside data_sink.write; don't
            # resurrect marker state for an acked dataset.
            return
        upto = s.upto
        if seq < upto:
            return
        pending = s.pending
        if pending is None:
            pending = s.pending = set()
        pending.add(seq)
        while upto in pending:
            pending.remove(upto)
            upto += 1
        s.upto = upto
        if not pending:
            s.pending = None

    def _maybe_send_marker(self, thread, s: SinkSession) -> Generator:
        """Emit a BLOCK_MARKER every ``s.interval`` blocks of *delivered*
        progress (``ReassemblyBuffer.next_seq``).

        Markers are cumulative acks: everything below one passed its
        checksum, so the source releases the repair copies it holds for
        possible BLOCK_NACK re-send.  Cadence follows delivery, not the
        writer threads — a repair copy pinned until fsync would starve
        the source pool for nothing.
        """
        if s.state is not _LIVE:
            return
        delivered = self.reassembly.next_seq(s.sid)
        if delivered - s.sent < s.interval:
            return
        s.sent = delivered
        self.markers_sent.add()
        yield from self.ctrl.send(
            thread, ControlMessage(CtrlType.BLOCK_MARKER, s.sid, delivered)
        )

    def _maybe_finish(self, thread, s: SinkSession) -> Generator:
        total = s.dataset_done_total
        if total is None or s.consumed < total:
            return
        # End the incarnation before yielding: two consumer threads can
        # both reach this point in the same instant otherwise.
        self._end_incarnation(s, _ACKED, total)
        self.reassembly.reclaim_session(s.sid)  # drops the seq cursor
        yield from self.ctrl.send(
            thread, ControlMessage(CtrlType.DATASET_DONE_ACK, s.sid, total)
        )

    # -- stale-session garbage collection --------------------------------------------
    def _gc_thread(self) -> Generator:
        """Sweep idle sessions and watch the peer.  Runs only while
        sessions are live, so a drained engine is not kept awake by a
        housekeeping timer; the next session to go live restarts it.

        With heartbeats on, a sweep that finds the whole *link* silent
        past the adaptive PING cadence sends its own PING; after
        ``heartbeat_misses`` unanswered intervals every session is
        reclaimed with a typed :class:`PeerDead` — bounded-time detection
        of a dead source even when ``session_idle_timeout`` is long.  The
        per-session idle threshold itself is ``health.idle_timeout()``:
        never below the configured floor, scaled up by the RTT estimate
        on long paths."""
        thread = self.host.thread("snk-gc", "app")
        while self._live:
            yield self.engine.timeout(self.config.gc_interval)
            now = self.engine.now
            if self.config.heartbeats and self._live:
                interval = self.health.heartbeat_interval()
                silent = now - self.health.last_heard
                if silent >= interval and now - self._last_ping_at >= interval:
                    self.health.misses += 1
                    if self.health.misses > self.config.heartbeat_misses:
                        self._m_peer_dead.add()
                        self.engine.trace(
                            "sink", "peer_dead", misses=self.health.misses
                        )
                        for s in self._live_sessions():
                            self._reclaim_session(
                                s,
                                PeerDead(
                                    s.sid,
                                    f"source silent for {self.health.misses} "
                                    "heartbeat intervals",
                                ),
                            )
                        continue
                    self._last_ping_at = now
                    self._m_pings.add()
                    yield from self.ctrl.send(
                        thread,
                        ControlMessage(CtrlType.PING, 0, self.health.next_ping()),
                    )
            for s in self._live_sessions():
                if now - s.last_activity >= self.health.idle_timeout():
                    self._reclaim_session(s)
        self._gc_running = False

    def _reclaim_session(self, s: SinkSession, error: Optional[TransferError] = None) -> None:
        """Free everything a dead session still pins at the sink."""
        self.sessions_reclaimed.add()
        self.engine.trace("sink", "gc_reclaim", session=s.sid)
        # Parked out-of-order arrivals and undelivered in-order blocks
        # both hold pool blocks with payload.
        self._drop_unconsumed(s.sid)
        if error is None:
            error = StaleSessionReclaimed(
                s.sid, f"idle past {self.config.session_idle_timeout}s, reclaimed"
            )
        self._end_incarnation(s, SessionState.RECLAIMED, error)
        if not self._live:
            # No live session shares the pool: advertised credits held by
            # dead sources can never be honoured — revoke them so the next
            # session starts from a full pool.
            self._revoke_waiting()
