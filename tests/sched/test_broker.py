"""Broker mechanics: dedupe, admission control, and the job state model."""

import heapq
import itertools
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rftp import RftpClient, RftpServer
from repro.core.health import ChannelBreaker
from repro.sched import (
    BrokerSupervisor,
    FileState,
    JobState,
    SchedulerConfig,
    TenantPolicy,
    TransferSpec,
    run_sched,
)
from repro.sched.broker import ADMIT, CLOSED, FULL, RftpDoor, TransferBroker
from repro.sched.runner import quiescence_leaks
from repro.sched.spec import validate_spec
from repro.sim import Engine
from repro.testbeds import roce_lan
from tests.conftest import open_broker

MiB = 1 << 20


def wire(tb):
    server = RftpServer(tb)
    server.start(2811)
    return server, RftpClient(tb)


def test_duplicate_destination_rides_along_on_the_primary():
    """Two submissions for one destination path transfer ONCE; the
    duplicate mirrors the primary's outcome without its own session."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        j1 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        j2 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB),
                                 TransferSpec("/data/b", 2 * MiB)])
        yield j1.done
        yield j2.done
        out.update(broker=broker, j1=j1, j2=j2)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    j1, j2, broker = out["j1"], out["j2"], out["broker"]
    assert j1.state is JobState.FINISHED and j2.state is JobState.FINISHED
    dup = j2.files[0]
    assert dup.duplicate_of is j1.files[0]
    assert dup.attempts == 0  # never transferred on its own
    assert dup.state is FileState.FINISHED
    assert broker._m_dedup_hits.count == 1
    # The primary and the non-duplicate file each ran exactly once.
    assert j1.files[0].attempts == 1 and j2.files[1].attempts == 1
    # Per-file records are slotted: no instance dict per spec, task or job.
    for record in (dup.spec, dup, j2):
        assert not hasattr(record, "__dict__")


def test_dedupe_window_closes_when_the_primary_finishes():
    """Back-to-back submissions for the same path after the first
    finished are fresh transfers, not dedupe hits (the file may have
    changed; also the seam for the sid-reuse marker guard)."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        j1 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        yield j1.done
        j2 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        yield j2.done
        out.update(broker=broker, j1=j1, j2=j2)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["broker"]._m_dedup_hits.count == 0
    assert out["j2"].files[0].attempts == 1
    assert out["j2"].state is JobState.FINISHED


def test_admission_control_rejects_overflow_submissions_whole():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(
            client,
            tenants={"t": TenantPolicy(max_queued=2)},
        )
        files = [TransferSpec(f"/data/f{i}", MiB) for i in range(3)]
        rejected = broker.submit("t", files)
        # Rejection is immediate and whole: the event is already up.
        assert rejected.done.triggered
        out["rejected"] = rejected
        accepted = broker.submit("t", files[:2])
        yield accepted.done
        out.update(broker=broker, accepted=accepted)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    rejected, accepted = out["rejected"], out["accepted"]
    assert rejected.state is JobState.CANCELED
    assert all(t.state is FileState.CANCELED for t in rejected.files)
    assert all("queue full" in t.error for t in rejected.files)
    assert accepted.state is JobState.FINISHED
    assert out["broker"]._m_jobs_rejected.count == 1


def test_sessions_reuse_negotiation_on_a_door():
    """After a door's first file, later files skip the link-level
    negotiation: no extra QPs, and the link is flagged negotiated."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        qps_after_open = len(tb.src_dev.qps)
        job = broker.submit(
            "t", [TransferSpec(f"/data/f{i}", MiB) for i in range(6)]
        )
        yield job.done
        out["job"] = job
        out["same_qps"] = len(tb.src_dev.qps) == qps_after_open
        out["negotiated"] = next(iter(broker.doors.values())).link._negotiated

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["job"].state is JobState.FINISHED
    assert out["same_qps"]  # six files, one connection set
    assert out["negotiated"]


def test_broker_and_policy_validation():
    with pytest.raises(ValueError):
        TenantPolicy(weight=0)
    with pytest.raises(ValueError):
        TenantPolicy(max_inflight=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_active=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_attempts=0)
    with pytest.raises(ValueError):
        TransferSpec("", MiB)
    with pytest.raises(ValueError):
        TransferSpec("/data/a", 0)
    # The spec keys BAD_SPECS leaves out, each with its message.
    for spec, message in [
        ({"jobs": [{"files": []}]}, "jobs[0] needs a non-empty 'files' list"),
        ({"jobs": _JOBS, "checkpoint_compact": 1}, "'checkpoint_compact' must be a boolean"),
        ({"jobs": _JOBS, "use_srq": "no"}, "'use_srq' must be a boolean"),
        ({"jobs": _JOBS, "drain_at": 0}, "'drain_at' must be a positive number"),
        ({"jobs": _JOBS, "overload": []}, "'overload' must be an object"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_spec(spec)
    with pytest.raises(ValueError, match="broker needs at least one door"):
        TransferBroker(Engine(), [])
    with pytest.raises(ValueError, match=re.escape("duplicate door names: ['d', 'd']")):
        TransferBroker(Engine(), [SimpleNamespace(name="d")] * 2)
    with pytest.raises(ValueError, match="restart_delay must be positive"):
        BrokerSupervisor(Engine(), [], restart_delay=0)
    with pytest.raises(ValueError, match="run_sched needs a spec or a journal to recover"):
        run_sched(None)
    with pytest.raises(ValueError, match="unknown testbed 'moon-lan'"):
        run_sched({"jobs": _JOBS, "testbed": "moon-lan"})


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_tenant_weight_must_be_finite(weight):
    # nan <= 0 is False and an infinite weight makes the stride pass 0.
    with pytest.raises(ValueError, match="tenant weight must be positive"):
        TenantPolicy(weight=weight)


_JOBS = [{"tenant": "gold", "files": [{"path": "/data/a", "size": MiB}]}]

# Malformed job-mix specs (what ``repro sched --spec`` reads) and the
# message each must raise with, before any traffic moves.
BAD_SPECS = [
    pytest.param([], "spec must be a JSON object", id="not-an-object"),
    pytest.param({"jobs": []}, "spec needs a non-empty 'jobs' list",
                 id="no-jobs"),
    pytest.param({"jobs": _JOBS, "tenants": []},
                 "'tenants' must be an object", id="tenants-not-an-object"),
    pytest.param({"jobs": ["/data/a"]}, "jobs[0] must be an object",
                 id="job-not-an-object"),
    pytest.param({"jobs": [{"files": [{"path": "/data/a"}]}]},
                 "jobs[0].files[0] needs 'path' and 'size'",
                 id="file-without-size"),
    pytest.param({"jobs": [dict(_JOBS[0], deadline=0)]},
                 "jobs[0].deadline must be a positive number",
                 id="zero-deadline"),
    pytest.param({"jobs": _JOBS, "watchdog": "yes"},
                 "'watchdog' must be a boolean", id="watchdog-not-a-bool"),
    pytest.param({"jobs": _JOBS, "resubmit_limit": -1},
                 "'resubmit_limit' must be a non-negative integer",
                 id="negative-resubmit-limit"),
    # JSON admits NaN; the tenant policy is what rejects it.
    pytest.param({"jobs": _JOBS,
                  "tenants": json.loads('{"gold": {"weight": NaN}}')},
                 "tenant weight must be positive", id="nan-tenant-weight"),
]


@pytest.mark.parametrize("spec,message", BAD_SPECS)
def test_run_sched_rejects_a_malformed_spec(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_sched(spec)


def test_retry_and_watchdog_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(retry_backoff_factor=0.5)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_backoff=2.0, retry_backoff_cap=1.0)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_jitter=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_jitter=-0.1)
    with pytest.raises(ValueError):
        SchedulerConfig(watchdog_rto_multiplier=0)
    with pytest.raises(ValueError):
        SchedulerConfig(watchdog_min_interval=0)
    for kwargs, message in [
        (dict(blocked_retry=0), "retry timings must be positive"),
        (dict(breaker_failures=0), "breaker_failures must be >= 1"),
        (dict(breaker_cooldown=0), "breaker_cooldown must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            SchedulerConfig(**kwargs)
    with pytest.raises(ValueError, match="max_queued must be >= 0"):
        TenantPolicy(max_queued=-1)


def test_retry_jitter_is_deterministic_per_task_and_attempt():
    from repro.core.jitter import jitter_fraction

    a = jitter_fraction(0, "job-1", "/x", 1)
    assert a == jitter_fraction(0, "job-1", "/x", 1)
    assert 0.0 <= a < 1.0
    # Any coordinate change de-synchronises the retry.
    assert a != jitter_fraction(0, "job-1", "/x", 2)
    assert a != jitter_fraction(0, "job-1", "/y", 1)
    assert a != jitter_fraction(7, "job-1", "/x", 1)


def test_retry_backoff_is_capped_exponential():
    from repro.sched.jobs import Job

    tb = roce_lan()
    server, client = wire(tb)
    cfg = SchedulerConfig(retry_backoff=0.5, retry_backoff_factor=2.0,
                       retry_backoff_cap=3.0, retry_jitter=0.0)
    out = {}

    def driver(env):
        out["broker"] = yield open_broker(client, broker_config=cfg)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    broker = out["broker"]
    job = Job.build("job-x", "t", [TransferSpec("/data/a", MiB)])
    task = job.files[0]
    delays = []
    for attempt in (1, 2, 3, 4, 5):
        task.attempts = attempt
        delays.append(broker._retry_delay(task))
    assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]  # x2 growth, capped at 3

    # With jitter on, the delay stretches by at most the jitter fraction
    # and is reproducible (seeded, not drawn from a shared RNG).
    broker.config = SchedulerConfig(retry_backoff=0.5, retry_jitter=0.25)
    task.attempts = 1
    d1 = broker._retry_delay(task)
    assert 0.5 <= d1 <= 0.5 * 1.25
    assert d1 == broker._retry_delay(task)


class _FailingDoor:
    """Every attempt dies shortly after dispatch with a typed error."""

    name = "door-bad"

    def __init__(self, engine):
        self.engine = engine
        self.active = 0
        self.max_sessions = 4
        self.link = None
        self.leases = None  # no shared channel set
        self.breaker = None

    def admission(self, now, session_cap=None):
        return ADMIT

    def transfer(self, task, session_id=None):
        from repro.core.errors import TransferError
        from repro.sim.events import Event

        event = Event(self.engine)

        def _die():
            yield self.engine.timeout(0.01)
            if not event.triggered:
                event.fail(TransferError(session_id or 0, "boom"))

        self.engine.process(_die())
        return event


def test_cancel_unparks_a_file_waiting_in_retry_backoff():
    """Regression: canceling a job whose file sits in a retry backoff
    timer must cancel it NOW (timer cancelled, cancel journaled) — not
    leak it parked until the timer fires."""
    tb = roce_lan()
    cfg = SchedulerConfig(retry_backoff=60.0, retry_backoff_cap=60.0,
                       retry_jitter=0.0, max_attempts=3, breaker_failures=5)
    out = {}

    def driver(env):
        broker = TransferBroker(tb.engine, [_FailingDoor(tb.engine)], cfg)
        job = broker.submit("t", [TransferSpec("/data/x", MiB)])
        yield tb.engine.timeout(1.0)  # attempt failed, file now parked
        assert len(broker._parked) == 1
        assert broker._tenants["t"].parked == 1
        assert broker.cancel_job(job, reason="user says stop")
        out.update(broker=broker, job=job)
        yield job.done

    tb.engine.process(driver(tb.engine))
    tb.engine.run()

    broker, job = out["broker"], out["job"]
    assert job.state is JobState.CANCELED
    assert job.files[0].state is FileState.CANCELED
    assert job.files[0].error == "user says stop"
    assert broker._parked == {}
    assert broker._tenants["t"].parked == 0
    # The cancel hit the journal and no further attempt ever ran.
    kinds = [r["kind"] for r in broker.journal.records]
    assert kinds.count("cancel") == 1
    assert kinds.count("attempt") == 1


def test_deadline_cancels_whatever_files_remain():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        job = broker.submit(
            "t", [TransferSpec(f"/data/f{i}", 8 * MiB) for i in range(4)],
            deadline=1e-6,  # expires before any transfer can land
        )
        yield job.done
        out.update(broker=broker, job=job)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()

    broker, job = out["broker"], out["job"]
    assert job.state is JobState.CANCELED
    assert all(t.state is FileState.CANCELED for t in job.files)
    assert all("deadline exceeded" in t.error for t in job.files)
    assert broker._m_deadline_cancels.count == 1


def test_submit_rejects_nonpositive_deadline():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        with pytest.raises(ValueError):
            broker.submit("t", [TransferSpec("/data/a", MiB)], deadline=0)
        out["ok"] = True

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["ok"]


# -- blocked dispatch: one shared retry tick per pass (the cohort) ----------------


class _GateDoor:
    """Closed until ``opens_at``, full at ``max_sessions`` active; every
    attempt, transfer or resume, succeeds after ``delay``.  Counts the
    admission checks the broker makes and records the resumed sessions."""

    def __init__(self, engine, opens_at, name="door-0", max_sessions=8,
                 delay=0.01):
        self.engine = engine
        self.name = name
        self.opens_at = opens_at
        self.max_sessions = max_sessions
        self.delay = delay
        self.active = 0
        self.checks = 0
        self.resumed = []
        self.link = None
        self.leases = None  # no shared channel set
        self.breaker = None  # the broker installs its own

    def admission(self, now, session_cap=None):
        self.checks += 1
        if now < self.opens_at:
            return CLOSED
        return FULL if self.active >= self.max_sessions else ADMIT

    def transfer(self, task, session_id=None):
        return self.engine.timeout(self.delay)

    def resume(self, task, session_id):
        self.resumed.append(session_id)
        return self.engine.timeout(self.delay)


class _ReopenLink:
    """A door link that a crash leaves with no live data channel; as the
    door's middleware, it brings one back ``delay`` after a reopen."""

    def __init__(self, engine, delay):
        self.engine = engine
        self.delay = delay
        self.data = SimpleNamespace(alive_count=1)

    def crash(self):
        self.data.alive_count = 0

    def audit(self):
        return []  # no session state of its own to leak

    def reopen_channel(self, link, remote_dev, port):
        def _reopen():
            yield self.engine.timeout(self.delay)
            self.data.alive_count = 1

        return self.engine.process(_reopen())


def _blocked_broker(opens_at, **cfg):
    engine = Engine()
    door = _GateDoor(engine, opens_at)
    broker = TransferBroker(
        engine, [door], SchedulerConfig(blocked_retry=0.25, **cfg),
        tenants={"t": TenantPolicy(max_inflight=8)},
    )
    return engine, door, broker


def _attempts(broker):
    return [(r["t"], r["job_id"], r["index"])
            for r in broker.journal.records if r["kind"] == "attempt"]


def _leaks(broker):
    return quiescence_leaks(SimpleNamespace(broker=broker, server=None))


def test_cancel_removes_cohort_members_and_the_rest_requeue_in_order():
    """Files one dispatch pass could not place share ONE retry timer.
    Cancelling a job takes exactly its files out of that cohort at cancel
    time; the others requeue at the same tick in their parked order."""
    engine, door, broker = _blocked_broker(opens_at=0.6)
    jobs = [
        broker.submit("t", [TransferSpec(f"/data/{j}{i}", MiB)
                            for i in range(n)], job_id=j)
        for j, n in (("a", 3), ("b", 2), ("c", 2))
    ]
    state = broker._tenants["t"]
    engine.run(until=0.1)  # the pass at t=0 found every file blocked
    assert state.parked == len(broker._parked) == 7
    assert broker._m_blocked.count == 7

    assert broker.cancel_job(jobs[1], reason="user says stop")
    assert state.parked == len(broker._parked) == 5

    engine.run(until=0.3)  # tick at 0.25: the five survivors, blocked again
    assert broker._m_blocked.count == 7 + 5
    assert state.parked == len(broker._parked) == 5
    engine.run()
    # The door opened at 0.6; the 0.75 tick dispatched all five, in the
    # order they were parked.  The cancelled files never ran.
    assert _attempts(broker) == [
        (0.75, "a", 0), (0.75, "a", 1), (0.75, "a", 2),
        (0.75, "c", 0), (0.75, "c", 1),
    ]
    assert [j.state for j in jobs] == [
        JobState.FINISHED, JobState.CANCELED, JobState.FINISHED
    ]
    assert _leaks(broker) == []


def test_cancelling_a_whole_cohort_leaves_its_tick_to_fire_harmlessly():
    """With every member cancelled the shared timer still fires (it is
    not cancelled) and finds nothing: no requeue, no dispatch, and the
    clock drains to the tick's deadline exactly as the parent's per-file
    tombstones did."""
    engine, door, broker = _blocked_broker(opens_at=10.0)
    job = broker.submit(
        "t", [TransferSpec(f"/data/f{i}", MiB) for i in range(4)]
    )
    engine.run(until=0.1)
    assert len(broker._parked) == 4
    assert broker.cancel_job(job)
    assert broker._parked == {} and broker._tenants["t"].parked == 0
    checks = door.checks
    engine.run()
    assert engine.now == 0.25
    assert door.checks == checks and _attempts(broker) == []
    assert job.state is JobState.CANCELED
    assert _leaks(broker) == []


def test_crash_with_a_cohort_parked_and_recovery_finishes_every_file():
    """A dead incarnation's cohort tick touches nothing; the recovered
    broker re-admits the SUBMITTED files.  Crashed again while they are
    ACTIVE, and once more while the next incarnation's resume pass waits
    for a channel reopen: when the reopen lands, the dead incarnation
    neither takes a slot nor resumes the session on the crashed link, and
    the last incarnation resumes every file."""
    engine, door, broker = _blocked_broker(opens_at=0.3)
    door.link = door.middleware = _ReopenLink(engine, delay=0.1)
    door.remote_dev = door.port = None
    broker.submit("t", [TransferSpec(f"/data/f{i}", MiB) for i in range(5)],
                  job_id="j")
    engine.run(until=0.1)
    dead_state = broker._tenants["t"]
    assert dead_state.parked == len(broker._parked) == 5
    broker.crash()
    records_at_crash = len(broker.journal.records)
    engine.run(until=0.3)  # the dead incarnation's tick fired at 0.25
    assert dead_state.parked == len(broker._parked) == 5  # untouched
    assert dead_state.queue == [] and door.active == 0
    assert len(broker.journal.records) == records_at_crash

    def recover(dead):
        return TransferBroker.recover(
            engine, [door], dead.journal, dead.config,
            tenants={"t": TenantPolicy(max_inflight=8)},
        )

    recovered = recover(broker)
    engine.run(until=0.305)  # the five attempts started at 0.3, end at 0.31
    assert [t for t, _, _ in _attempts(recovered)] == [0.3] * 5
    recovered.crash()
    resuming = recover(recovered)  # the link is down: the pass reopens it
    engine.run(until=0.35)
    resuming.crash()  # the reopen lands at 0.405, on a dead incarnation
    records_at_crash = len(resuming.journal.records)
    engine.run(until=0.5)
    assert door.resumed == [] and door.active == 0
    assert len(resuming.journal.records) == records_at_crash

    final = recover(resuming)
    engine.run()
    (job,) = final.jobs
    assert job.state is JobState.FINISHED
    assert door.resumed == [t.last_session for t in job.files]
    assert _leaks(final) == []


# -- full doors: a released slot wakes dispatch, no tick ---------------------------


def _full_broker(max_sessions, delay):
    engine = Engine()
    door = _GateDoor(engine, 0.0, max_sessions=max_sessions, delay=delay)
    broker = TransferBroker(
        engine, [door], SchedulerConfig(blocked_retry=0.25),
        tenants={"t": TenantPolicy(max_inflight=8)},
    )
    return engine, broker


def test_a_freed_slot_dispatches_the_head_file_at_the_release_instant():
    """The door is full, not closed: the third file stays queued (no
    cohort, no timer) and starts when the first two release their
    slots at 0.1, not at the 0.25 tick."""
    engine, broker = _full_broker(max_sessions=2, delay=0.1)
    job = broker.submit(
        "t", [TransferSpec(f"/data/f{i}", MiB) for i in range(3)], job_id="j"
    )
    engine.run(until=0.05)
    assert broker._parked == {} and len(broker._tenants["t"].queue) == 1
    assert broker._m_blocked.count == 1
    engine.run()
    assert _attempts(broker) == [(0.0, "j", 0), (0.0, "j", 1), (0.1, "j", 2)]
    assert job.state is JobState.FINISHED and engine.now == 0.2
    assert _leaks(broker) == []


def test_a_held_file_dispatches_before_a_later_arrival_of_equal_priority():
    """A file waiting on a full door keeps its ``(-prio, seq)`` heap key,
    so a later submission of the same priority queues behind it (a cohort
    requeue would have given it a fresh seq behind the newcomer)."""
    engine, broker = _full_broker(max_sessions=1, delay=0.1)
    broker.submit("t", [TransferSpec(f"/data/a{i}", MiB) for i in range(2)],
                  job_id="a")
    engine.run(until=0.05)
    broker.submit("t", [TransferSpec("/data/b0", MiB)], job_id="b")
    engine.run()
    assert _attempts(broker) == [(0.0, "a", 0), (0.1, "a", 1), (0.2, "b", 0)]
    # a1 at t=0 and at b's kick, then b0 at a1's dispatch pass.
    assert broker._m_blocked.count == 3
    assert _leaks(broker) == []


def test_a_closed_door_still_waits_for_the_tick():
    """A release cannot open a closed door: a file whose only door is
    closed parks in the cohort even while another door holds a slot, and
    starts at the 0.25 tick rather than at that slot's release (1.0)."""
    engine = Engine()
    busy = _GateDoor(engine, 0.0, name="busy", max_sessions=1, delay=1.0)
    gated = _GateDoor(engine, 0.05, name="gated")
    broker = TransferBroker(
        engine, [busy, gated], SchedulerConfig(blocked_retry=0.25),
        tenants={"t": TenantPolicy(max_inflight=8)},
    )
    broker.submit("t", [TransferSpec("/data/x", MiB, ("busy",))], job_id="x")
    broker.submit("t", [TransferSpec("/data/y", MiB, ("gated",))], job_id="y")
    engine.run(until=0.1)
    assert len(broker._parked) == 1 and broker._m_blocked.count == 1
    engine.run()
    assert _attempts(broker) == [(0.0, "x", 0), (0.25, "y", 0)]
    assert _leaks(broker) == []


def test_a_real_door_is_closed_before_it_is_full():
    """``RftpDoor.admission``: a door at its session cap whose channels
    are all quarantined, or whose broker breaker is open, is CLOSED — a
    released slot would not let it admit."""
    door = RftpDoor("d", None, None, 0, None, max_sessions=1)
    assert door.admission(0.0) == CLOSED  # link not open yet
    channel = ChannelBreaker(7, 1, lambda: 1.0)
    door.link = SimpleNamespace(data=SimpleNamespace(qps=[SimpleNamespace(qp_num=7)]),
                                _host_pool=SimpleNamespace(breakers={7: channel}))
    door.active = 1
    assert door.admission(0.0) == FULL
    channel.record_failure(0.0)  # every channel quarantined until 1.0
    assert door.admission(0.5) == CLOSED
    assert door.admission(1.0) == FULL
    door.breaker = ChannelBreaker(0, 1, lambda: 2.0)
    door.breaker.record_failure(1.0)  # broker breaker open until 3.0
    assert door.admission(1.5) == CLOSED
    door.active = 0
    assert door.admission(3.0) == ADMIT
    # Below its own cap, a door whose shared channel set has no lease
    # left is FULL too.
    door.active, door.leases = 0, SimpleNamespace(available=0)
    assert door.admission(3.0) == FULL
    with pytest.raises(ValueError, match="max_sessions must be >= 1"):
        RftpDoor("d", None, None, 0, None, max_sessions=0)


# -- equivalence oracle: the cohort path against a model of the per-file one ------


class _PerFileParkModel:
    """The dispatch rule as a model with per-file timers: a pass pops
    every file it may.  A file no door takes while EVERY door is full and
    a slot is held goes back to its heap position and ends the pass (the
    next ``finish`` kicks it); any other blocked file is parked behind
    its own ``blocked_retry`` timer, and a fired timer requeues it with a
    fresh fifo seq and kicks.  Same-instant events run in creation order,
    as in the kernel; an attempt's completion timer is created after its
    pass (the process bootstrap), hence after that pass's park timers."""

    def __init__(self, doors, tenants, max_active, retry, delay):
        self.doors, self.tenants = doors, tenants  # plain dicts, see _model()
        self.max_active, self.retry, self.delay = max_active, retry, delay
        self.now, self.active, self.blocked = 0.0, 0, 0
        self.events, self.eid, self.fifo = [], itertools.count(), itertools.count()
        self.pass_pending, self.log = False, []

    def at(self, when, kind, arg=None):
        heapq.heappush(self.events, (when, next(self.eid), kind, arg))

    def kick(self):
        if not self.pass_pending:
            self.pass_pending = True
            self.at(self.now, "dispatch")

    def submit(self, tenant, priority, job_id, sources):
        for index, names in enumerate(sources):
            self.enqueue({"key": (job_id, index), "tenant": tenant,
                          "priority": priority, "cursor": 0,
                          "names": names or tuple(self.doors)})

    def enqueue(self, f):
        queue = self.tenants[f["tenant"]]["queue"]
        heapq.heappush(queue, (-f["priority"], next(self.fifo), f))
        self.kick()

    def run(self, until):
        while self.events and self.events[0][0] <= until:
            self.now, _, kind, arg = heapq.heappop(self.events)
            getattr(self, kind)(arg)
        self.now = until

    def pick(self, f):
        n = len(f["names"])
        for i in range(n):
            door = self.doors[f["names"][(f["cursor"] + i) % n]]
            if door["open"] and door["active"] < door["cap"]:
                f["cursor"] = (f["cursor"] + i) % n
                return door
        return None

    def dispatch(self, _):
        self.pass_pending = False
        started = []
        while self.active < self.max_active:
            runnable = [t for _, t in sorted(self.tenants.items())
                        if t["queue"] and t["inflight"] < t["cap"]]
            if not runnable:
                break
            tenant = min(runnable, key=lambda t: t["pass"])  # first of equals
            entry = heapq.heappop(tenant["queue"])
            f = entry[2]
            door = self.pick(f)
            if door is None:
                self.blocked += 1
                if self.active and all(d["open"] and d["active"] >= d["cap"]
                                       for d in self.doors.values()):
                    heapq.heappush(tenant["queue"], entry)
                    break
                self.at(self.now + self.retry, "enqueue", f)
                continue
            tenant["pass"] += 1.0 / tenant["weight"]
            tenant["inflight"] += 1
            door["active"] += 1
            self.active += 1
            self.log.append((self.now, *f["key"], door["name"]))
            started.append((tenant, door))
        for slot in started:
            self.at(self.now + self.delay, "finish", slot)

    def finish(self, slot):
        tenant, door = slot
        tenant["inflight"] -= 1
        door["active"] -= 1
        self.active -= 1
        self.kick()


_DOOR_CAPS = {"d0": 2, "d1": 1}
_TENANTS = {"a": TenantPolicy(weight=1.0, max_inflight=3),
            "b": TenantPolicy(weight=2.0, max_inflight=2)}
_DISPATCH_STEPS = st.one_of(
    st.tuples(
        st.just("submit"), st.sampled_from(sorted(_TENANTS)),
        st.sampled_from([0, 0, 1, 5]),
        st.lists(st.sampled_from([(), ("d0",), ("d1",), ("d1", "d0"),
                                  ("d0", "d1")]), min_size=1, max_size=6),
    ),
    st.tuples(st.just("door"), st.sampled_from(sorted(_DOOR_CAPS)),
              st.booleans()),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.6])),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.6])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_DISPATCH_STEPS, min_size=3, max_size=20))
def test_cohort_dispatch_matches_the_per_file_park_model(steps):
    """Whatever mix of submissions (priorities, explicit sources, two
    weighted tenants), door closures, full doors and time a real broker
    sees, it dispatches the same files to the same doors at the same
    instants, and counts the same ``sched.dispatch_blocked``, as the
    per-file model of the full / closed rule."""
    engine = Engine()
    doors = [_GateDoor(engine, 0.0, name=name, max_sessions=cap, delay=0.1)
             for name, cap in _DOOR_CAPS.items()]
    broker = TransferBroker(
        engine, doors, SchedulerConfig(max_active=4, blocked_retry=0.25),
        tenants=_TENANTS,
    )
    model = _PerFileParkModel(
        {d.name: {"name": d.name, "open": True, "cap": d.max_sessions,
                  "active": 0} for d in doors},
        {name: {"weight": p.weight, "cap": p.max_inflight, "pass": 0.0,
                "inflight": 0, "queue": []} for name, p in _TENANTS.items()},
        max_active=4, retry=0.25, delay=0.1,
    )
    paths = itertools.count()
    for n, step in enumerate(steps + [("advance", 30.0)]):
        if step[0] == "submit":
            _, tenant, priority, sources = step
            broker.submit(
                tenant,
                [TransferSpec(f"/data/{next(paths)}", MiB, s) for s in sources],
                priority=priority, job_id=f"j{n}",
            )
            model.submit(tenant, priority, f"j{n}", sources)
        elif step[0] == "door":
            _, name, is_open = step
            broker.doors[name].opens_at = 0.0 if is_open else float("inf")
            model.doors[name]["open"] = is_open
        else:
            engine.run(until=engine.now + step[1])
            model.run(model.now + step[1])
        attempts = [(r["t"], r["job_id"], r["index"], r["door"])
                    for r in broker.journal.records if r["kind"] == "attempt"]
        assert attempts == model.log
        assert broker._m_blocked.count == model.blocked
        assert len(broker._parked) == sum(
            s.parked for s in broker._tenants.values()
        )


def _blocked_ticks(n_files, ticks=10):
    """Events and admission checks spent on ``ticks`` blocked retry ticks
    with ``n_files`` queued behind one closed door."""
    engine, door, broker = _blocked_broker(opens_at=0.25 * ticks + 0.1)
    job = broker.submit(
        "t", [TransferSpec(f"/data/f{i}", MiB) for i in range(n_files)]
    )
    engine.run(until=0.1)  # the first pass parked everything
    events, checks = engine.events_processed, door.checks
    engine.run(until=0.25 * ticks + 0.1)
    assert broker._m_blocked.count == n_files * (ticks + 1)
    spent = (engine.events_processed - events, door.checks - checks)
    engine.run()
    assert job.state is JobState.FINISHED and _leaks(broker) == []
    return spent


def test_a_blocked_tick_costs_the_same_for_50_and_500_queued_files():
    """The herd is gone: a retry tick is one timer, one process and one
    wake however long the queue, and a pass asks each door once (the
    parent spent three events and one check of every door per FILE)."""
    events_50, checks_50 = _blocked_ticks(50)
    events_500, checks_500 = _blocked_ticks(500)
    assert events_50 == events_500 <= 4 * 10
    assert checks_50 == checks_500 == 10  # one door, one verdict per pass
