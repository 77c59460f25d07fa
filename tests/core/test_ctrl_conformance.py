"""Control-protocol conformance, generated from ``PROTOCOL``.

The table in :mod:`repro.core.messages` says, per message type, who
receives it, whether it is routed by session id, what answers it, what
the source's ledger does with its credits and how the sink answers a
retransmission.  Every row is checked against the code that implements
it:

- **sink**: each type × each :class:`SinkSession` state (LIVE / ACKED /
  RECLAIMED / CRASHED / an unknown id) × {fresh, retransmitted, sent by
  the id's previous incarnation}, delivered to a real :class:`SinkEngine`
  (the lifecycle ``Rig``).  The outcome is the table's reply type or
  exactly one counted stray, never an exception, and the engine audits
  clean once its GC has run;
- **source**: each type delivered over the control QP to a link with no
  job, a live job or an ended job for the id.  It is handled or counted
  as a stray, and the ledger moves exactly as the ``grant`` column says.

Each test walks all of its cases and fails once, listing every case that
failed or raised.
"""

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.core.credits import Credit
from repro.core.errors import TransferCanceled
from repro.core.messages import (
    PROTOCOL,
    BlockHeader,
    ControlMessage,
    CtrlType,
    DataBlockWire,
    Direction,
    Duplicate,
    Grant,
    Scope,
    block_checksum,
)
from repro.core.sink_engine import SessionState, SinkEngine
from repro.core.source_link import JobPhase, SourceLink
from repro.faults import DEFAULT_DROPPABLE
from repro.tcp.fallback import TcpBlockStream
from repro.testbeds import roce_lan
from tests.core.test_sink_session_lifecycle import BS, SID, Rig

T = CtrlType
#: Two-block sessions: the prelude writes block 0, so block 1 is "next".
TOTAL = 2 * BS
#: What the sink's data path may send on its own while it handles a
#: message (credit grants, markers, repair requests, the final ACK).
DATA_PATH = {T.MR_INFO_REP, T.BLOCK_MARKER, T.BLOCK_NACK, T.DATASET_DONE_ACK}


def _check_all(check, cases):
    """Run ``check(*case)`` on every case; fail listing each that did not pass."""
    failures = []
    for case in cases:
        try:
            check(*case)
        except Exception as exc:  # an exception from the code under test is a finding
            name = "-".join(getattr(c, "value", str(c)) for c in case)
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not failures, f"{len(failures)} of {len(cases)} cases:\n" + "\n".join(failures)


# -- the table itself ---------------------------------------------------------------

def test_table_rows_match_the_handlers():
    assert set(PROTOCOL) == set(CtrlType)
    to_sink = {t for t, r in PROTOCOL.items() if r.direction is not Direction.TO_SOURCE}
    to_source = {t for t, r in PROTOCOL.items() if r.direction is not Direction.TO_SINK}
    granted = {t for t, r in PROTOCOL.items() if r.grant is not Grant.NONE}
    assert set(SinkEngine._HANDLERS) == to_sink
    assert set(SourceLink._HANDLERS) | granted == to_source
    for t, rule in PROTOCOL.items():
        if rule.reply is not None:  # a reply travels back the way it came
            back = PROTOCOL[rule.reply].direction
            assert back is {Direction.TO_SINK: Direction.TO_SOURCE}.get(
                rule.direction, Direction.EITHER
            ), t
        if rule.duplicate is not None:
            assert rule.reply is not None, t
        if rule.grant is not Grant.NONE:
            assert rule.direction is Direction.TO_SOURCE, t


def _check_droppable(type_):
    rule = PROTOCOL[type_]
    retransmitted = rule.direction is Direction.TO_SINK and rule.reply is not None
    re_answered = any(
        r.reply is type_ and r.duplicate is Duplicate.IDEMPOTENT for r in PROTOCOL.values()
    )
    assert retransmitted or re_answered


def test_droppable_types_are_recovered():
    """The fault plan may only lose what the protocol recovers: a request
    the source retransmits until its reply comes, or a reply whose request
    the sink re-answers idempotently."""
    _check_all(_check_droppable, [(t,) for t in DEFAULT_DROPPABLE])


# -- sink -----------------------------------------------------------------------------

def _block_done(rig):
    """BLOCK_DONE for block 1, its payload placed in the next held credit
    (region 0 when the id never held one)."""
    payload = ("blk", 1, BS)
    header = BlockHeader(SID, 1, BS, BS, checksum=block_checksum(payload))
    if not rig.credits:
        return (0, header)
    credit = rig.credits.pop(0)
    block = rig.se.pool.by_id(credit.block_id)
    block.mr.place(credit.addr, DataBlockWire(header, payload, credit.block_id))
    return (credit.block_id, header)


#: Request data per type a sink handles (sink→source types carry None).
SINK_DATA = {
    T.BLOCK_SIZE_REQ: lambda rig: BS,
    T.CHANNELS_REQ: lambda rig: 2,
    T.SESSION_REQ: lambda rig: (TOTAL, 1, False),
    T.MR_INFO_REQ: lambda rig: None,
    T.BLOCK_DONE: _block_done,
    T.DATASET_DONE: lambda rig: TOTAL,
    T.SESSION_RESUME_REQ: lambda rig: (TOTAL, 1),
    T.PING: lambda rig: 7,
    T.PONG: lambda rig: 7,
    T.TRANSPORT_FALLBACK_REQ: lambda rig: (TOTAL, TcpBlockStream(rig.tb.tcp_connection())),
    T.TRANSPORT_RESTORE_REQ: lambda rig: (TOTAL, 1),
}


def _finish(rig):
    rig.write_block(SID, 1)
    rig.tell(T.DATASET_DONE, SID, TOTAL)


def _resume(rig):
    rig.forget_credits()
    (rep,) = [m for m in rig.tell(T.SESSION_RESUME_REQ, SID, (TOTAL, 1))
              if m.type is T.SESSION_RESUME_REP]
    rig.credits.extend(rep.data[-1])


def _evict(rig):
    """End the id's incarnation and push its record out of the history."""
    _finish(rig)
    rig.open(sid=SID + 1, blocks=1, interval=1)
    rig.write_block(SID + 1, 0)
    rig.tell(T.DATASET_DONE, SID + 1, BS)
    assert rig.se._sessions.get(SID) is None


#: state -> (expected record state, how a live incarnation ends to reach
#: it — only run when a message of that incarnation is captured, for the
#: states a plain fresh session does not reach by itself).
STATES = {
    "live": (SessionState.LIVE, _resume),
    "acked": (SessionState.ACKED, _finish),
    "reclaimed": (SessionState.RECLAIMED, lambda rig: rig.step(3.0)),
    "crashed": (SessionState.CRASHED, lambda rig: rig.se.crash()),
    "unknown": (None, _evict),
}
VARIANTS = ("fresh", "retransmitted", "dead-incarnation")


def _reach(state, variant, make):
    """A rig whose record for ``SID`` is in ``state``, and the data of the
    message to deliver: made now, or — for the dead-incarnation variant —
    while the incarnation that sent it was still live."""
    rig = Rig(sink_session_history=1)
    expected, end = STATES[state]
    if state != "unknown" or variant == "dead-incarnation":
        rig.open(blocks=2, interval=1)
        rig.write_block(SID, 0)
    data = None
    if variant == "dead-incarnation":
        data = make(rig)
        end(rig)
    elif state not in ("live", "unknown"):
        end(rig)
    record = rig.se._sessions.get(SID)
    assert (record.state if record else None) is expected
    return rig, (data if variant == "dead-incarnation" else make(rig))


def _deliver(rig, type_, data):
    """One delivery: its outcome (reply, stray or handled) and replies."""
    rule = PROTOCOL[type_]
    strays = rig.se.stray_messages.total
    replies = rig.tell(type_, SID, data)
    strays = rig.se.stray_messages.total - strays
    sent = {m.type for m in replies}
    if strays:
        assert strays == 1 and not sent, (strays, sent)
        return "stray", replies
    assert sent <= {rule.reply} | DATA_PATH, sent
    return ("reply" if rule.reply in sent else "handled"), replies


def _data_of(replies, type_):
    return [m.data for m in replies if m.type is type_]


def _check_sink(type_, state, variant):
    rule = PROTOCOL[type_]
    rig, data = _reach(state, variant, SINK_DATA.get(type_, lambda rig: None))
    outcome, first = _deliver(rig, type_, data)
    if variant == "retransmitted":
        again, second = _deliver(rig, type_, data)
        if outcome == again == "reply" and rule.duplicate is not None:
            one, two = _data_of(first, rule.reply), _data_of(second, rule.reply)
            if rule.duplicate is Duplicate.EMPTY:
                assert two == [(True, ())]
            else:
                assert two == one
        outcome = again

    if rule.direction is Direction.TO_SOURCE:
        assert outcome == "stray"
    elif outcome == "handled" and rule.reply is not None:
        # The one deferred answer: a DATASET_DONE for a live session
        # whose last block is still missing is ACKed once it is consumed.
        assert type_ is T.DATASET_DONE and rig.se.has_session(SID)
        assert rig.se._sessions.get(SID).dataset_done_total == TOTAL
        _finish(rig)
        assert rig.se._sessions.get(SID).state is SessionState.ACKED
    rig.step(3.0)  # past the idle GC: whatever went live is reclaimed
    assert rig.se.audit() == []


def test_sink_replies_or_counts_a_stray():
    _check_all(_check_sink, [
        (t, state, variant) for t in CtrlType for state in STATES for variant in VARIANTS
    ])


def _check_unnegotiated(type_):
    rig = Rig(negotiate=False)
    outcome, replies = _deliver(rig, type_, SINK_DATA[type_](rig))
    assert outcome != "handled" or PROTOCOL[type_].reply is None  # nothing deferred
    if type_ is T.SESSION_REQ:
        assert _data_of(replies, T.SESSION_REP) == [(False, ())]
    assert rig.se.audit() == []


def test_sink_before_negotiation():
    """No pool yet: a SESSION_REQ is refused ``(False, ())`` (the source
    aborts typed) and nothing raises."""
    _check_all(_check_unnegotiated, [
        (t,) for t, r in PROTOCOL.items() if r.direction is not Direction.TO_SOURCE
    ])


# -- source ---------------------------------------------------------------------------

class SourceRig:
    """A real link with, for ``SID``, no job, a live job that nothing
    drives (so only the delivered message moves it) or an ended job."""

    def __init__(self, job):
        self.config = ProtocolConfig(block_size=BS, heartbeats=False)
        self.tb = roce_lan()
        self.engine = self.tb.engine
        server = RdmaMiddleware(self.tb.dst, self.tb.dst_dev, self.tb.cm, self.config)
        server.serve(4000, CollectingSink(self.tb.dst))
        client = RdmaMiddleware(self.tb.src, self.tb.src_dev, self.tb.cm, self.config)
        opened = client.open_link(self.tb.dst_dev, 4000)
        self.engine.run()
        self.link = opened.value
        self.peer_ctrl = server.sink_engines[self.link._client_id].ctrl
        self.peer = self.tb.dst.thread("test-peer", "app")
        self.link._start_shared_threads()  # the control thread listens
        if job != "none":
            self.job = self.link._open_session(PatternSource(self.tb.src), TOTAL, SID)
        if job == "ended":
            self.link.abort_session(SID, TransferCanceled(SID, "ended by the rig"))
        assert (SID in self.link.jobs) is (job == "live")
        # Something for an accepted REPLACE to flush.
        self.link.ledger.deposit([Credit(99, 0, 0)])

    def deliver(self, msg):
        def send():
            yield from self.peer_ctrl.send(self.peer, msg)
        self.engine.process(send())
        self.engine.run(until=self.engine.now + 1e-3)


_CREDITS = (Credit(1, 0, 0), Credit(2, 0, 0))
#: Reply data per type a source handles (source→sink types carry None).
SOURCE_DATA = {
    T.BLOCK_SIZE_REP: (True,),
    T.CHANNELS_REP: (True,),
    T.SESSION_REP: (True, _CREDITS),
    T.MR_INFO_REP: (True, _CREDITS),
    T.BLOCK_NACK: (1, _CREDITS[0]),  # no repair copy held for seq 1
    T.BLOCK_MARKER: 1,
    T.DATASET_DONE_ACK: TOTAL,
    T.SESSION_RESUME_REP: (True, 0, _CREDITS),
    T.PING: 7,
    T.PONG: 7,
    T.TRANSPORT_FALLBACK_REP: (True, 0),
    T.TRANSPORT_RESTORE_REP: (True, 0, _CREDITS),
}


def _check_source(type_, job):
    rule = PROTOCOL[type_]
    rig = SourceRig(job)
    ledger = rig.link.ledger
    data = SOURCE_DATA.get(type_)
    before = (rig.link.stray_messages.total, ledger.total_received.total, ledger.flushed.total, ledger.balance)
    rig.deliver(ControlMessage(type_, SID, data))
    strays = rig.link.stray_messages.total - before[0]
    received, flushed = ledger.total_received.total - before[1], ledger.flushed.total - before[2]

    if rule.direction is Direction.TO_SINK:
        expected = 1
    elif rule.scope is Scope.LINK:
        expected = 0
    else:  # a stale NACK (no repair copy for its seq) is a stray too
        expected = int(job != "live" or type_ is T.BLOCK_NACK)
    assert strays == expected

    if rule.grant is Grant.NONE:
        assert (received, flushed) == (0, 0)
    else:
        accepted, *_, credits = data
        assert received == len(credits)
        assert flushed == (before[3] if rule.grant is Grant.REPLACE and accepted else 0)
    if type_ is T.DATASET_DONE_ACK and job == "live":
        assert rig.job.phase is JobPhase.ACKED and rig.job.done.ok


def test_source_handles_or_counts_a_stray():
    _check_all(_check_source, [(t, job) for t in CtrlType for job in ("none", "live", "ended")])
