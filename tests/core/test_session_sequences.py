"""Generated-sequence oracle for the session lifecycle on a real link.

A real :class:`RdmaMiddleware` pair on ``roce_lan`` with a 10-block pool
and ``sink_session_history=3`` is driven by drawn sequences of
start-session / abort-at-source / source-crash / sink-crash /
kill-channels (total channel loss: the live sessions fall back to TCP) /
resume / advance-time; at every quiescence the conservation laws must hold: no
``SourceLink.audit()`` and ``SinkEngine.audit()`` empty (no block
stuck in either pool, the history bounded), every ended record's
``done`` resolved, every session that
reported success byte-exact at the sink.  Sessions may *fail* — only
typed, and leaving nothing behind.

The same oracle also judges every single-fault placement: a fault at
each control-message index of a fixed scenario, enumerated rather than
drawn (:func:`_placement_ending`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.core.errors import TransferCanceled, TransferError
from repro.core.sink_engine import SessionState
from repro.faults.plan import DEFAULT_DROPPABLE, FaultPlan
from repro.sim.engine import SimulationError
from repro.testbeds import roce_lan

BS = 128 * 1024
HISTORY = 3
#: The sink's ended phases: a settled run leaves no record live.
ENDED = (SessionState.ACKED, SessionState.RECLAIMED, SessionState.CRASHED)


def cfg():
    return ProtocolConfig(
        block_size=BS,
        num_channels=2,
        source_blocks=10,
        sink_blocks=10,
        sink_session_history=HISTORY,
        heartbeats=False,
        session_idle_timeout=0.5,
        idle_rto_multiplier=4.0,
    )


class World:
    """One link, one sink engine, and what the driver knows about them."""

    def __init__(self):
        self.tb = roce_lan()
        self.engine = self.tb.engine
        c = cfg()
        self.server = RdmaMiddleware(self.tb.dst, self.tb.dst_dev, self.tb.cm, c)
        self.sink = CollectingSink(self.tb.dst)
        self.server.serve(4000, self.sink)
        client = RdmaMiddleware(self.tb.src, self.tb.src_dev, self.tb.cm, c)
        opened = client.open_link(
            self.tb.dst_dev, 4000, tcp_factory=self.tb.tcp_connection
        )
        self.engine.run()
        self.link = opened.value
        self.se = self.server.sink_engines[self.link._client_id]
        self.next_sid = 100
        #: sid -> (total blocks, process event of its latest incarnation)
        self.sessions = {}
        #: sids whose latest incarnation died at the source (resumable).
        self.dead = []

    # -- steps ----------------------------------------------------------------
    def _track(self, sid, blocks, ev):
        ev.defuse()  # failures are read off the event, not raised
        self.sessions[sid] = (blocks, ev)

    def start(self, blocks):
        sid, self.next_sid = self.next_sid, self.next_sid + 1
        self._track(sid, blocks, self.link.transfer(
            PatternSource(self.tb.src), blocks * BS, session_id=sid
        ))

    def abort(self, k):
        live = sorted(self.link.jobs)
        if live:
            sid = live[k % len(live)]
            self.link.abort_session(sid, TransferCanceled(sid, "oracle abort"))
            self.dead.append(sid)

    def source_crash(self):
        self.dead.extend(sorted(self.link.jobs))
        self.link.crash()

    def sink_crash(self):
        self.se.crash()

    def kill_channels(self):
        for index in range(len(self.link._host_pool.qps)):
            self.link.kill_channel(index)

    def deny_fallback(self):
        """Total channel loss with the sink refusing every fallback: the
        live sessions abort with TransportFallbackFailed."""
        self.se.fallback_deny_hook = lambda: True
        self.kill_channels()

    def resume(self, k):
        # SourceLink.resume's contract: no *healthy* sibling on the link
        # (accepting the REP flushes the shared ledger).
        if self.link.jobs or not self.dead:
            return
        sid = self.dead.pop(k % len(self.dead))
        blocks, _old = self.sessions[sid]
        self._track(sid, blocks, self.link.resume(
            PatternSource(self.tb.src), blocks * BS, sid
        ))

    def advance(self, dt):
        self.engine.run(until=self.engine.now + dt)

    # -- the oracle -----------------------------------------------------------
    def settle(self):
        """Run to quiescence and check every conservation law."""
        self.engine.run()
        link, se = self.link, self.se
        # Source: every session retired, no WR in flight, no credit waiter,
        # every block FREE and on the free list.  Sink: no live session,
        # the history within its cap, every block FREE or WAITING (an
        # advertised, unspent credit) and the free list in step.
        assert link.audit() == [] and se.audit() == []
        sessions = self.sink.session_rows()
        for sid, (blocks, ev) in self.sessions.items():
            assert ev.triggered, f"session {sid} never settled"
            rec = se._sessions.get(sid)
            if rec is not None:
                assert rec.state in ENDED and rec.done.triggered
            if ev.ok:
                # A resumed or degraded session may re-deliver a consumed
                # prefix, but only as identical copies.
                problems, _ = self.sink.audit_blocks(
                    f"session {sid}", sessions.get(sid, ()), blocks * BS, BS, "blk",
                    overlap_ok=True,
                )
                assert problems == []
            else:
                assert isinstance(ev.value, TransferError), ev.value


def run_steps(world, steps):
    for step in steps:
        getattr(world, step[0])(*step[1:])
    world.settle()


_STEPS = st.one_of(
    st.tuples(st.just("start"), st.integers(1, 24)),
    st.tuples(st.just("start"), st.integers(1, 24)),
    st.tuples(st.just("abort"), st.integers(0, 3)),
    st.tuples(st.just("source_crash")),
    st.tuples(st.just("sink_crash")),
    st.tuples(st.just("kill_channels")),
    st.tuples(st.just("resume"), st.integers(0, 3)),
    st.tuples(st.just("advance"), st.sampled_from([5e-5, 2e-4, 1e-3, 0.05, 3.0])),
    st.tuples(st.just("advance"), st.sampled_from([5e-5, 2e-4, 1e-3, 0.05, 3.0])),
    st.tuples(st.just("settle")),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_STEPS, min_size=3, max_size=14))
def test_session_conservation_after_every_quiescence(steps):
    run_steps(World(), steps)


def test_all_endings_in_one_sequence():
    """A hand-picked walk through every ending, so the oracle's laws are
    exercised on each even if the generator's draws change."""
    world = World()
    run_steps(world, [
        ("start", 6), ("settle",),  # finish
        ("start", 20), ("advance", 2e-4), ("source_crash",), ("settle",),  # reclaim
        ("resume", 0), ("settle",),  # resume of a reclaimed session
        ("start", 20), ("advance", 2e-4), ("sink_crash",), ("settle",),  # crash
        ("start", 20), ("advance", 2e-4), ("abort", 0), ("advance", 1e-3),
        ("resume", 0), ("settle",),  # resume of a still-live session
        ("start", 4), ("start", 4), ("settle",),  # eviction past the cap
    ])
    assert sum(1 for _b, ev in world.sessions.values() if ev.ok) >= 5
    assert world.se.sessions_reclaimed.total >= 1 and world.se.crashes.total == 1
    assert len(world.se._sessions) == HISTORY

    # Depth 1: every fault at every control-message index of one 8-block
    # session and of two sequential ones, against the table of known
    # failures (a new failing placement fails, and so does a listed one
    # that passes or fails differently).
    failing, placements = {}, 0
    for sessions, messages in ((1, 40), (2, 68)):
        assert _placement_ending(sessions, None, -1) == (messages, False, None)
        for action in _ACTIONS:
            for k in range(messages):
                _, placed, ending = _placement_ending(sessions, action, k)
                placements += placed
                if ending is not None:
                    failing[sessions, action, k] = ending
    assert placements == 669  # drops: the droppable 9 and 12 indexes; the rest: all 108
    assert failing == {
        (sessions, action, k): line
        for sessions, action, first, last, line in FAILING_PLACEMENTS
        for k in range(first, last + 1)
    }


#: Every failing placement of the depth-1 enumeration, as ``(sessions,
#: action, first k, last k, error line)``: none.  A change that makes a
#: placement fail must list it here, row by row, with its error line.
FAILING_PLACEMENTS = []

#: The faults placed at a control message: a drop or a delay (the chaos
#: plan's default, which outlasts a converged LAN's request timeout) is
#: the hook's verdict; each other action runs at the instant the message
#: is posted, once the poster has moved on.
_ACTIONS = {
    "drop": None,
    "delay": None,
    "abort": lambda world: world.abort(0),
    "source_crash": lambda world: world.source_crash(),
    "sink_crash": lambda world: world.se.crash(),
    "kill_channels": lambda world: world.kill_channels(),
    "fallback_deny": lambda world: world.deny_fallback(),
}


def _placement_ending(sessions, action, k):
    """Run ``sessions`` sequential 8-block sessions with ``action`` at the
    ``k``-th control message either side sends; after an abort or a
    crash at either end, idle 3 s and run one more.  Returns the number of
    control messages sent, whether the fault was placed (a drop only on a
    droppable type), and ``None`` for a run the oracle passes, else its
    error line."""
    world = World()
    sent, placed = [0], []

    def hook(msg):
        index, sent[0] = sent[0], sent[0] + 1
        if index != k or (action == "drop" and msg.type not in DEFAULT_DROPPABLE):
            return None
        placed.append(index)
        if action == "drop":
            return "drop"
        if action == "delay":
            return FaultPlan().ctrl_delay_seconds
        world.engine.timeout(0.0).add_callback(lambda _ev: _ACTIONS[action](world))
        return None

    world.link.ctrl.fault_hook = world.se.ctrl.fault_hook = hook
    try:
        for _ in range(sessions):
            world.start(8)
            world.engine.run()
        if action in ("abort", "source_crash", "sink_crash"):
            world.advance(3.0)
            world.start(8)
        world.settle()
    except SimulationError as exc:
        cause = exc.__cause__ or exc
        ending = f"{type(cause).__name__}: {cause}"
    except AssertionError as exc:
        leaks = world.link.audit() + world.se.audit()
        ending = "leak: " + "; ".join(leaks) if leaks else f"oracle: {exc}"
    else:
        ending = None
    return sent[0], bool(placed), ending


def test_stale_credit_after_reclaim_breaks_the_successor():
    """Seeded reproducer the oracle found: WRITEs in flight at an abort
    refund credits whose regions the idle GC then revokes.  The GC bumps
    the sink's revocation generation, so the successor's grant flushes
    them and their late refunds are dropped: none is ever spent."""
    run_steps(World(), [
        ("start", 8), ("advance", 2e-4), ("abort", 0),  # WRITEs in flight refund
        ("advance", 3.0),  # idle GC reclaims and revokes every WAITING region
        ("start", 8),  # ... which the ledger still holds credits for
    ])
