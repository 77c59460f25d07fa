"""The per-file progress watchdog: wedged slots die, healthy runs don't.

The failure mode the watchdog exists for is a session that neither
progresses nor errors — no lower-layer timeout fires, so without it the
attempt would hold a worker slot forever.  The stuck door below models
exactly that: ``transfer`` returns an event that never resolves and a
link whose progress vector never changes.
"""

from repro.apps.rftp import RftpClient, RftpServer
from repro.core.errors import StuckTransfer
from repro.sched import (
    FileState,
    JobState,
    SchedulerConfig,
    TransferSpec,
    run_sched,
    synthetic_spec,
)
from repro.sched.broker import ADMIT, RftpDoor, TransferBroker
from repro.sim.events import Event
from repro.testbeds import roce_lan

MiB = 1 << 20


class _StuckJob:
    """A link-level job whose progress vector never moves."""

    start_seq = 0
    marker = 0
    completed_blocks = 0
    fallback_blocks = 0
    started_at = None


class _StuckLink:
    health = None  # watchdog falls back to its minimum poll interval

    def __init__(self):
        self.jobs = {}
        self._events = {}

    def abort_session(self, session_id, exc):
        self.jobs.pop(session_id, None)
        event = self._events.pop(session_id, None)
        if event is not None and not event.triggered:
            event.fail(exc)


class _StuckDoor:
    """Accepts a session, then sits on it forever."""

    name = "door-stuck"

    def __init__(self, engine):
        self.engine = engine
        self.active = 0
        self.max_sessions = 4
        self.link = _StuckLink()
        self.leases = None  # no shared channel set
        self.breaker = None  # the broker installs its own

    def admission(self, now, session_cap=None):
        return ADMIT

    def transfer(self, task, session_id=None):
        event = Event(self.engine)
        self.link.jobs[session_id] = _StuckJob()
        self.link._events[session_id] = event
        return event


def test_watchdog_kills_a_stalled_attempt_and_failover_continues():
    tb = roce_lan()
    server = RftpServer(tb)
    server.start(2811)
    client = RftpClient(tb)
    cfg = SchedulerConfig(
        watchdog=True,
        watchdog_min_interval=0.05,
        watchdog_rto_multiplier=1.0,
        retry_backoff=0.1,
        retry_jitter=0.0,
    )
    out = {}

    def driver(env):
        good = RftpDoor("door-good", client.middleware, tb.dst_dev, 2811,
                        client.source, tcp_factory=tb.tcp_connection)
        yield good.open()
        stuck = _StuckDoor(tb.engine)
        broker = TransferBroker(tb.engine, [stuck, good], cfg)
        job = broker.submit("t", [
            TransferSpec("/data/x", 2 * MiB,
                         sources=("door-stuck", "door-good")),
        ])
        yield job.done
        out.update(broker=broker, job=job)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()

    broker, job = out["broker"], out["job"]
    task = job.files[0]
    assert broker._m_watchdog_kills.count == 1
    assert job.state is JobState.FINISHED
    assert task.state is FileState.FINISHED
    assert task.attempts == 2  # stalled try + the failover retry
    assert task.source_used == "door-good"
    # The kill is journaled as a normal typed attempt failure, so crash
    # recovery replays the advanced alternatives cursor.
    fails = [r for r in broker.journal.records if r["kind"] == "attempt_fail"]
    assert len(fails) == 1
    assert fails[0]["error"] == StuckTransfer.__name__


def test_healthy_run_sees_zero_watchdog_kills():
    spec = synthetic_spec(seed=1, total_files=12, doors=2)
    spec["watchdog"] = True
    result = run_sched(spec, audit=True)
    assert result.all_finished
    assert result.audit_ok, result.audit_problems
    kills = result.testbed.engine.metrics.get("sched.watchdog.kills")
    assert kills is None or kills.total == 0
