"""The sink's session lifecycle, row by row (DESIGN.md §8).

One hand-driven :class:`SinkEngine` — no source, no wire: control
messages go straight into ``_dispatch``, replies are captured, and blocks
are "written" by placing a :class:`DataBlockWire` in the credited region
before the BLOCK_DONE.  Each *end* row asserts exactly which record
fields survive and how ``done`` resolved; each *start* row asserts what
was reset and what was granted.
"""

import pytest

from repro.core import ProtocolConfig
from repro.core.blocks import SinkBlockState
from repro.core.errors import EndpointCrashed, PeerDead, StaleSessionReclaimed
from repro.core.messages import (
    BlockHeader,
    ControlMessage,
    CtrlType,
    DataBlockWire,
    block_checksum,
)
from repro.core.pool import BlockPool
from repro.core.sink_engine import SessionState, SinkEngine
from repro.tcp.fallback import TcpBlockStream
from repro.testbeds import roce_lan

BS = 64 * 1024
SID = 7


class SlowSink:
    """Data sink whose ``write`` takes ``delay`` simulated seconds."""

    def __init__(self, engine):
        self.engine = engine
        self.delay = 1e-6
        self.written = []

    def write(self, thread, nbytes, header=None, payload=None):
        yield self.engine.timeout(self.delay)
        self.written.append(header.seq)


class CapturedCtrl:
    """Stands in for the control channel: records what the sink sends."""

    def __init__(self):
        self.sent = []

    def send(self, thread, msg):
        self.sent.append(msg)
        return
        yield  # pragma: no cover - makes this a generator


class Rig:
    def __init__(self, negotiate=True, **over):
        base = dict(
            block_size=BS,
            sink_blocks=8,
            source_blocks=8,
            initial_credits=2,
            marker_interval_blocks=4,
            heartbeats=False,
            session_idle_timeout=0.5,
            gc_interval=0.1,
            idle_rto_multiplier=4.0,
        )
        base.update(over)
        self.config = ProtocolConfig(**base)
        self.tb = roce_lan()
        self.engine = self.tb.engine
        self.sink = SlowSink(self.engine)
        self.ctrl = CapturedCtrl()
        pd = self.tb.dst_dev.alloc_pd()
        self.se = SinkEngine(
            self.tb.dst, self.ctrl, self.config, self.sink,
            pool_factory=lambda bs: BlockPool.build_sink(
                self.tb.dst, pd, self.config.sink_blocks, bs
            ),
        )
        self.thread = self.tb.dst.thread("test-peer", "app")
        #: Credits the "source" holds, in grant order.
        self.credits = []
        if negotiate:
            self.tell(CtrlType.BLOCK_SIZE_REQ, 0, BS)

    # -- driving ------------------------------------------------------------
    def step(self, dt=1e-3):
        self.engine.run(until=self.engine.now + dt)

    def tell(self, type_, sid, data=None, dt=1e-3):
        """Dispatch one control message; return the replies it caused."""
        before = len(self.ctrl.sent)
        step = self.se._dispatch(self.thread, ControlMessage(type_, sid, data))
        if step is not None:
            self.engine.process(step)
        self.step(dt)
        replies = self.ctrl.sent[before:]
        for msg in replies:
            if msg.type is CtrlType.MR_INFO_REP:
                self.credits.extend(msg.data[-1])
        return replies

    def reply(self, type_, sid, data, rep_type):
        """Dispatch and return the data of the one ``rep_type`` reply."""
        (rep,) = [m for m in self.tell(type_, sid, data) if m.type is rep_type]
        return rep.data

    def open(self, sid=SID, blocks=4, interval=2, eager=False):
        accepted, grant = self.reply(
            CtrlType.SESSION_REQ, sid, (blocks * BS, interval, eager),
            CtrlType.SESSION_REP,
        )
        assert accepted
        self.credits.extend(grant)
        return grant

    def write_block(self, sid, seq, dt=1e-3):
        """One-sided WRITE of block ``seq`` into the next held credit,
        then its BLOCK_DONE."""
        credit = self.credits.pop(0)
        payload = ("blk", seq, BS)
        header = BlockHeader(sid, seq, seq * BS, BS, checksum=block_checksum(payload))
        block = self.se.pool.by_id(credit.block_id)
        block.mr.place(credit.addr, DataBlockWire(header, payload, credit.block_id))
        return self.tell(CtrlType.BLOCK_DONE, sid, (credit.block_id, header), dt=dt)

    def rec(self, sid=SID):
        return self.se._sessions.get(sid)

    def states(self):
        return [b.state for b in self.se.pool.blocks.values()]

    def pool_is_free(self):
        return all(s is SinkBlockState.FREE for s in self.states())

    def forget_credits(self):
        """What accepting a resume / fallback reply does at the source."""
        self.credits.clear()


def failed_with(done, exc_type):
    return done.triggered and not done.ok and isinstance(done.value, exc_type)


INCARNATION_FIELDS = dict(
    dataset_done_total=None, pending=None, resume_grant=None, restore_grant=None,
    stream=None, fallback_seq=None, fallback_eof=None, eager=False,
)


def assert_incarnation_cleared(s):
    for name, cleared in INCARNATION_FIELDS.items():
        assert getattr(s, name) == cleared, name


# -- ends -------------------------------------------------------------------

def end_finish(rig):
    rig.open(blocks=2, interval=1)
    done = rig.rec().done
    rig.write_block(SID, 0)
    rig.write_block(SID, 1)
    acks = rig.tell(CtrlType.DATASET_DONE, SID, 2 * BS)
    assert [m.data for m in acks if m.type is CtrlType.DATASET_DONE_ACK] == [2 * BS]
    s = rig.rec()
    assert s.state is SessionState.ACKED
    # Survive: the ack ledger, consumed bytes, the resolved done event.
    assert (s.acked_total, s.consumed, s.done) == (2 * BS, 2 * BS, done)
    assert done.ok and done.value == 2 * BS
    # Cleared: marker anchor, cadence, epoch, everything per-incarnation.
    assert (s.upto, s.sent, s.epoch) == (0, 0, 0)
    assert s.interval == rig.config.marker_interval_blocks
    assert_incarnation_cleared(s)
    # A retransmitted DATASET_DONE is re-acked from the ledger.
    again = rig.tell(CtrlType.DATASET_DONE, SID, 2 * BS)
    assert [m.data for m in again] == [2 * BS]


def _half_done(rig, **open_kw):
    """A live session with block 0 written and block 2 parked."""
    rig.open(blocks=4, interval=1, **open_kw)
    rig.write_block(SID, 0)
    rig.write_block(SID, 2)
    s = rig.rec()
    assert (s.upto, s.sent, s.consumed) == (1, 1, BS)
    assert len(s.parked) == 1 and rig.se.reassembly.parked == 1
    return s


def end_idle_reclaim(rig):
    s = _half_done(rig)
    done = s.done
    rig.step(3.0)  # past the idle threshold (4 x the initial RTO)
    assert s.state is SessionState.RECLAIMED
    assert failed_with(done, StaleSessionReclaimed)
    # Survive: the resume anchor, the cadence, consumed bytes, bumped epoch.
    assert (s.upto, s.sent, s.interval, s.consumed, s.epoch) == (1, 1, 1, BS, 1)
    assert_incarnation_cleared(s)
    assert rig.se.sessions_reclaimed.total == 1
    assert rig.pool_is_free() and rig.se.audit() == []


def end_peer_dead(rig):
    s = _half_done(rig)
    done = s.done
    rig.step(3.0)  # PINGs go unanswered: nobody is there
    assert s.state is SessionState.RECLAIMED
    assert failed_with(done, PeerDead)
    assert (s.upto, s.sent, s.interval, s.consumed, s.epoch) == (1, 1, 1, BS, 1)
    assert_incarnation_cleared(s)
    assert any(m.type is CtrlType.PING for m in rig.ctrl.sent)
    assert rig.pool_is_free() and rig.se.audit() == []


def end_sink_crash(rig):
    s = _half_done(rig)
    # Delivered past the written prefix: the sent cursor runs ahead.
    rig.sink.delay = 10.0
    rig.write_block(SID, 1)
    assert (s.upto, s.sent) == (1, 3)
    done = s.done
    rig.se.crash()
    assert s.state is SessionState.CRASHED
    assert failed_with(done, EndpointCrashed)
    # Survive: the on-disk prefix and cadence; the sent cursor is
    # re-derived from it; volatile accounting is gone; epoch bumped.
    assert (s.upto, s.sent, s.interval, s.consumed, s.epoch) == (1, 1, 1, 0, 1)
    assert_incarnation_cleared(s)
    rig.step(20.0)  # the writers caught mid-write finish and account nothing
    assert s.consumed == 0 and s.upto == 1
    assert rig.pool_is_free() and rig.se.audit() == []


def end_eviction(rig):
    for sid in (1, 2, 3):
        rig.open(sid=sid, blocks=1, interval=1)
        rig.write_block(sid, 0)
        rig.tell(CtrlType.DATASET_DONE, sid, BS)
    # History cap 2: the oldest ended record is gone, whole.
    assert rig.se._sessions.get(1) is None
    assert rig.se._sessions.get(2).state is rig.se._sessions.get(3).state is SessionState.ACKED
    assert len(rig.se._sessions) == 2 and rig.se.audit() == []
    # Its retransmitted DATASET_DONE is a stray now, not a re-ack.
    stray = rig.se.stray_messages.total
    assert rig.tell(CtrlType.DATASET_DONE, 1, BS) == []
    assert rig.se.stray_messages.total == stray + 1


ENDS = {
    "finish": (end_finish, {}),
    "idle-reclaim": (end_idle_reclaim, {}),
    "peer-dead-reclaim": (
        end_peer_dead,
        dict(heartbeats=True, session_idle_timeout=60.0, heartbeat_interval_max=0.2),
    ),
    "sink-crash": (end_sink_crash, {}),
    "eviction": (end_eviction, dict(sink_session_history=2)),
}


@pytest.mark.parametrize("row", ENDS)
def test_end_of_incarnation(row):
    check, over = ENDS[row]
    check(Rig(**over))


# -- starts -----------------------------------------------------------------

def start_fresh(rig):
    grant = rig.open(blocks=4, interval=3)
    s = rig.rec()
    assert s.state is SessionState.LIVE and rig.se.has_session(SID)
    assert s.done is not None and not s.done.triggered
    assert (s.epoch, s.upto, s.sent, s.consumed, s.interval) == (0, 0, 0, 0, 3)
    assert not s.eager and len(grant) == rig.config.initial_credits
    assert rig.states().count(SinkBlockState.WAITING) == len(grant)


def start_fresh_eager(rig):
    grant = rig.open(blocks=4, interval=3, eager=True)
    assert rig.rec().eager and grant == ()
    assert rig.pool_is_free()


def start_duplicate_session_req(rig):
    rig.open(blocks=4, interval=3)
    s, done = rig.rec(), rig.rec().done
    rig.write_block(SID, 0)
    before = (s.epoch, s.upto, s.sent, s.consumed, s.interval)
    waiting = rig.states().count(SinkBlockState.WAITING)
    assert rig.open(blocks=4, interval=3) == ()  # accepted, EMPTY grant
    assert rig.rec() is s and s.done is done and not done.triggered
    assert (s.epoch, s.upto, s.sent, s.consumed, s.interval) == before
    assert rig.states().count(SinkBlockState.WAITING) == waiting


def start_reuse_after_finish(rig):
    end_finish(rig)
    old_done = rig.rec().done
    rig.forget_credits()
    grant = rig.open(blocks=3, interval=2)
    s = rig.rec()
    assert s.state is SessionState.LIVE
    assert s.done is not old_done and not s.done.triggered
    assert (s.acked_total, s.consumed, s.epoch, s.upto, s.sent) == (None, 0, 0, 0, 0)
    assert s.interval == 2 and len(grant) == rig.config.initial_credits


def start_reuse_after_reclaim(rig):
    end_idle_reclaim(rig)
    s = rig.rec()
    old_done, old_epoch = s.done, s.epoch
    assert s.upto == 1  # the predecessor's marker is still there ...
    rig.forget_credits()
    grant = rig.open(blocks=2, interval=2)
    assert rig.rec() is s and s.state is SessionState.LIVE
    # ... and a fresh incarnation must not inherit it: marker reset,
    # epoch bumped, accounting from zero.
    assert (s.upto, s.sent, s.pending, s.consumed) == (0, 0, None, 0)
    assert s.epoch == old_epoch + 1
    assert s.done is not old_done and not s.done.triggered
    assert len(grant) == rig.config.initial_credits
    assert s.next_seq == 0


def _resume(rig, blocks=4, interval=2):
    return rig.reply(
        CtrlType.SESSION_RESUME_REQ, SID, (blocks * BS, interval),
        CtrlType.SESSION_RESUME_REP,
    )


def start_resume_live(rig):
    s = _half_done(rig)
    old_done, old_epoch = s.done, s.epoch
    accepted, marker, grant = _resume(rig)
    rig.forget_credits()
    assert accepted and marker == 1
    assert rig.rec() is s and s.state is SessionState.LIVE
    assert failed_with(old_done, EndpointCrashed)  # superseded
    assert s.done is not old_done and not s.done.triggered
    assert s.epoch == old_epoch + 1
    assert (s.upto, s.sent, s.pending, s.consumed, s.interval) == (1, 1, None, BS, 2)
    assert s.resume_grant == (1, grant) and len(grant) == rig.config.initial_credits
    # Parked block 2 was dropped, every stale WAITING region revoked:
    # only the fresh grant is advertised.
    assert not s.parked and rig.se.reassembly.parked == 0
    assert s.next_seq == 1
    assert rig.states().count(SinkBlockState.WAITING) == len(grant)
    assert rig.states().count(SinkBlockState.FREE) == len(rig.states()) - len(grant)
    assert rig.se.resumes.total == 1


def start_resume_reclaimed(rig):
    end_idle_reclaim(rig)
    s = rig.rec()
    old_done, old_epoch = s.done, s.epoch
    accepted, marker, grant = _resume(rig)
    assert accepted and marker == 1
    assert s.state is SessionState.LIVE and rig.se._live == 1
    assert s.done is not old_done and not s.done.triggered
    assert failed_with(old_done, StaleSessionReclaimed)  # not re-failed
    assert s.epoch == old_epoch + 1
    assert (s.upto, s.sent, s.consumed) == (1, 1, BS)
    assert s.resume_grant == (1, grant)


def start_resume_acked(rig):
    end_finish(rig)
    s = rig.rec()
    before = (s.state, s.acked_total, s.consumed, s.done, rig.states())
    # Point the source past the last block; it goes straight to
    # DATASET_DONE, which is re-acked from the ledger.
    assert _resume(rig, blocks=2) == (True, 2, ())
    assert (s.state, s.acked_total, s.consumed, s.done, rig.states()) == before
    assert rig.se.resumes.total == 0  # nothing re-attached, granted or revoked


def start_resume_retransmitted(rig):
    _half_done(rig)
    first = _resume(rig)
    s = rig.rec()
    done, epoch = s.done, s.epoch
    waiting = rig.states().count(SinkBlockState.WAITING)
    assert _resume(rig) == first  # the identical stored grant
    assert rig.se.resumes.total == 1  # not a second re-attach
    assert s.done is done and not done.triggered and s.epoch == epoch
    assert rig.states().count(SinkBlockState.WAITING) == waiting


def _fallback(rig, stream, blocks=4):
    return rig.reply(
        CtrlType.TRANSPORT_FALLBACK_REQ, SID, (blocks * BS, stream),
        CtrlType.TRANSPORT_FALLBACK_REP,
    )


def _stream(rig):
    return TcpBlockStream(rig.tb.tcp_connection())


def start_fallback_live(rig):
    s = _half_done(rig)
    done, old_epoch = s.done, s.epoch
    stream = _stream(rig)
    sent = len(rig.ctrl.sent)
    assert _fallback(rig, stream) == (True, 1)
    rig.forget_credits()
    # The SAME incarnation degrading: done kept, cadence kept.
    assert s.done is done and not done.triggered
    assert s.interval == 1 and s.epoch == old_epoch + 1
    assert (s.upto, s.sent, s.consumed) == (1, 1, BS)
    assert (s.stream, s.fallback_seq, s.fallback_eof) == (stream, 1, None)
    # Nothing granted, every RDMA region revoked.
    assert [m.type for m in rig.ctrl.sent[sent:]] == [CtrlType.TRANSPORT_FALLBACK_REP]
    assert rig.pool_is_free()
    assert rig.se.fallback_sessions.total == 1


def start_fallback_reclaimed(rig):
    end_idle_reclaim(rig)
    s = rig.rec()
    old_done = s.done
    stream = _stream(rig)
    assert _fallback(rig, stream) == (True, 1)
    assert s.state is SessionState.LIVE
    assert s.done is not old_done and not s.done.triggered  # GC failed the old one
    assert s.interval == 1  # the cadence survived the reclaim
    assert s.stream is stream


def start_fallback_acked(rig):
    end_finish(rig)
    assert _fallback(rig, _stream(rig), blocks=2) == (True, 2)
    assert rig.rec().state is SessionState.ACKED and rig.rec().stream is None


def start_fallback_retransmitted(rig):
    s = _half_done(rig)
    stream = _stream(rig)
    first = _fallback(rig, stream)
    epoch = s.epoch
    assert _fallback(rig, stream) == first
    assert rig.se.fallback_sessions.total == 1 and s.epoch == epoch
    assert s.stream is stream


def _restore(rig, blocks=4, interval=3):
    return rig.reply(
        CtrlType.TRANSPORT_RESTORE_REQ, SID, (blocks * BS, interval),
        CtrlType.TRANSPORT_RESTORE_REP,
    )


def _pump(rig, stream, seqs, eof=True, corrupt=()):
    """Send blocks (and the EOF sentinel) down the fallback stream; the
    ``corrupt`` seqs carry a checksum that does not match their payload."""
    src = rig.tb.src.thread("test-pump", "app")

    def pump():
        for seq in seqs:
            payload = ("blk", seq, BS)
            header = BlockHeader(
                SID, seq, seq * BS, BS,
                checksum=block_checksum(payload) ^ (seq in corrupt),
            )
            yield from stream.send_block(src, header, payload)
        if eof:
            yield from stream.send_eof(src)

    rig.engine.process(pump())
    rig.step(0.05)


def start_restore(rig):
    s = _half_done(rig)
    stream = _stream(rig)
    _fallback(rig, stream)
    rig.forget_credits()
    assert _restore(rig) == (False, 0, ())  # not ready: consumer not at EOF
    _pump(rig, stream, [1, 2])
    assert (s.fallback_eof, s.upto, s.consumed) == (3, 3, 3 * BS)
    done, epoch = s.done, s.epoch
    ready, seq, grant = _restore(rig)
    assert (ready, seq) == (True, 3) and len(grant) == rig.config.initial_credits
    # Same incarnation back on RDMA: done and epoch untouched, anchored at
    # the consumer's EOF cursor, stream state gone, cadence renegotiated.
    assert s.done is done and not done.triggered and s.epoch == epoch
    assert (s.upto, s.sent, s.consumed, s.interval) == (3, 3, 3 * BS, 3)
    assert (s.stream, s.fallback_seq, s.fallback_eof) == (None, None, None)
    assert s.restore_grant == (3, grant)
    assert s.next_seq == 3
    # A duplicate before any restored block landed: the same grant again.
    waiting = rig.states().count(SinkBlockState.WAITING)
    assert _restore(rig) == (True, 3, grant)
    assert rig.states().count(SinkBlockState.WAITING) == waiting == len(grant)
    # The restored tail finishes the dataset over RDMA.
    rig.credits.extend(grant)
    rig.write_block(SID, 3)
    rig.tell(CtrlType.DATASET_DONE, SID, 4 * BS)
    assert s.state is SessionState.ACKED and done.ok and done.value == 4 * BS
    assert rig.se.audit() == []


def start_restore_without_session(rig):
    assert _restore(rig) == (False, 0, ())  # never seen
    end_idle_reclaim(rig)
    assert _restore(rig) == (False, 0, ())  # reclaimed: not LIVE
    assert rig.rec().state is SessionState.RECLAIMED


def start_restore_acked(rig):
    end_finish(rig)
    assert _restore(rig, blocks=2) == (True, 2, ())


def start_writer_straddles_reanchor(rig):
    """A writer whose ``data_sink.write`` straddles a re-anchor (the
    epoch changed mid-write) must not account its block: the re-attached
    source delivers it again, and it must count exactly once."""
    rig.open(blocks=4, interval=1)
    rig.write_block(SID, 0)
    s = rig.rec()
    assert (s.upto, s.consumed) == (1, BS)
    rig.sink.delay = 0.02
    rig.write_block(SID, 1)  # picked up by a writer, still inside write()
    assert rig.sink.written == [0] and s.consumed == BS
    accepted, marker, _grant = _resume(rig)  # epoch changes mid-write
    assert accepted and marker == 1
    rig.step(0.1)  # the straddling write completes
    assert rig.sink.written == [0, 1]
    assert (s.upto, s.consumed) == (1, BS)  # ... and accounted nothing
    assert rig.states().count(SinkBlockState.READY) == 0


STARTS = {
    "fresh": start_fresh,
    "fresh-eager": start_fresh_eager,
    "duplicate-session-req": start_duplicate_session_req,
    "id-reuse-after-finish": start_reuse_after_finish,
    "id-reuse-after-reclaim": start_reuse_after_reclaim,
    "resume-live": start_resume_live,
    "resume-reclaimed": start_resume_reclaimed,
    "resume-acked": start_resume_acked,
    "resume-retransmitted": start_resume_retransmitted,
    "fallback-live": start_fallback_live,
    "fallback-reclaimed": start_fallback_reclaimed,
    "fallback-acked": start_fallback_acked,
    "fallback-retransmitted": start_fallback_retransmitted,
    "restore-not-ready-ready-duplicate": start_restore,
    "restore-without-live-session": start_restore_without_session,
    "restore-acked": start_restore_acked,
    "writer-straddles-reanchor": start_writer_straddles_reanchor,
}


@pytest.mark.parametrize("row", STARTS)
def test_start_of_incarnation(row):
    STARTS[row](Rig())


# -- checksum mismatches off the RDMA WRITE path -----------------------------
# The fault injector corrupts only RDMA WRITEs, so these branches are
# driven with a tampered wire / frame.

@pytest.mark.parametrize("repair", [True, False])
def test_eager_checksum_mismatch(repair):
    rig = Rig(block_repair=repair)
    rig.open(blocks=4, interval=2, eager=True)
    payload = ("blk", 0, BS)
    header = BlockHeader(SID, 0, 0, BS, checksum=block_checksum(payload) ^ 1)
    sent = len(rig.ctrl.sent)
    rig.engine.process(
        rig.se.on_eager_block(rig.thread, DataBlockWire(header, payload))
    )
    rig.step()
    replies = rig.ctrl.sent[sent:]
    assert rig.se.checksum_mismatches.total == 1
    assert rig.se.blocks_delivered.total == 0 and rig.sink.written == []
    if not repair:
        # Withheld, and the claimed region goes straight back: it holds nothing.
        assert replies == [] and rig.se.nacks_sent.total == 0
        assert rig.pool_is_free()
        return
    # Repair rides the rendezvous path: a NACK with a one-off credit for
    # the region just claimed, which stays WAITING for the re-WRITE.
    (nack,) = replies
    assert nack.type is CtrlType.BLOCK_NACK and rig.se.nacks_sent.total == 1
    seq, credit = nack.data
    assert seq == 0
    assert rig.states().count(SinkBlockState.WAITING) == 1
    assert rig.se.pool.by_id(credit.block_id).state is SinkBlockState.WAITING
    rig.credits.append(credit)
    rig.write_block(SID, 0)
    assert rig.se.blocks_delivered.total == 1 and rig.sink.written == [0]


def test_fallback_checksum_mismatch_is_counted_and_skipped():
    rig = Rig()
    s = _half_done(rig)
    stream = _stream(rig)
    assert _fallback(rig, stream) == (True, 1)
    rig.forget_credits()
    _pump(rig, stream, [1, 2, 3], corrupt={2})
    assert rig.se.checksum_mismatches.total == 1
    # Blocks 1 and 3 are written; 2 is skipped, so the contiguous-written
    # prefix stops below it and the dataset cannot finish.
    assert rig.se.fallback_blocks.total == 2
    assert sorted(rig.sink.written) == [0, 1, 3]
    assert (s.upto, s.consumed, s.fallback_eof) == (2, 3 * BS, 4)
    rig.tell(CtrlType.DATASET_DONE, SID, 4 * BS)
    assert s.state is SessionState.LIVE and not s.done.triggered
    assert rig.pool_is_free()
