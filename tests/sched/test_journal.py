"""The write-ahead journal: replay semantics, file round-trips, and the
live-broker ↔ replay oracle (both apply records through one reducer)."""

import dataclasses
import gc
import json
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TransferError
from repro.sched import (
    FileState,
    Journal,
    JobState,
    OverloadConfig,
    SchedulerConfig,
    TenantPolicy,
    TransferSpec,
    replay,
    restore_jobs,
    run_sched,
    snapshot_jobs,
    summarize,
    synthetic_spec,
)
from repro.sched.broker import ADMIT, CLOSED, FULL, TransferBroker
from repro.sched.jobs import Job
from repro.sim import Engine
from repro.sim.events import Event

MiB = 1 << 20


def _submit(journal, job_id, paths, t=0.0, tenant="t", deadline=None):
    journal.append(
        "submit", t=t, job_id=job_id, tenant=tenant, priority=0,
        deadline=deadline,
        files=[{"path": p, "size": MiB, "sources": ["door-0"]} for p in paths],
    )
    journal.append("admit", t=t, job_id=job_id)


def test_replay_reconstructs_terminal_outcomes():
    j = Journal()
    _submit(j, "job-1", ["/a", "/b", "/c"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=7, attempts=1)
    j.append("finish", t=0.5, job_id="job-1", index=0, door="door-0")
    j.append("attempt", t=0.1, job_id="job-1", index=1, door="door-0",
             session=8, attempts=1)
    j.append("file_failed", t=0.6, job_id="job-1", index=1, error="X: boom")
    j.append("cancel", t=0.7, job_id="job-1", index=2, reason="user")

    state = replay(j.records)
    assert not state.clean and not state.resume
    assert state.next_job_id == 2  # the reducer owns the next auto id
    (job,) = state.jobs
    assert job.state is JobState.FAILED  # one FAILED file, none pending
    assert [t.state for t in job.files] == [
        FileState.FINISHED, FileState.FAILED, FileState.CANCELED
    ]
    assert job.files[0].source_used == "door-0"
    assert job.files[1].error == "X: boom"
    assert job.finished_at == 0.7
    tenant = summarize(state.jobs, Engine())["tenants"]["t"]
    assert (tenant["finished"], tenant["failed"], tenant["canceled"]) == (1, 1, 1)


def test_replay_rederives_dedupe_from_record_order():
    """Dedupe is not journaled — admission order reproduces it exactly,
    and the primary's replayed finish cascades to the duplicate."""
    j = Journal()
    _submit(j, "job-1", ["/same"])
    _submit(j, "job-2", ["/same", "/other"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=1, attempts=1)
    j.append("finish", t=0.5, job_id="job-1", index=0, door="door-0")

    state = replay(j.records)
    j1, j2 = state.jobs
    dup = j2.files[0]
    assert dup.duplicate_of is j1.files[0]
    assert dup.state is FileState.FINISHED  # cascade, not a second transfer
    assert j2.files[1].state is FileState.SUBMITTED
    assert not state.resume  # a duplicate is never a resume candidate


def test_active_at_journal_end_is_a_resume_candidate():
    j = Journal()
    _submit(j, "job-1", ["/a"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=42, attempts=1)

    state = replay(j.records)
    (task,) = state.resume
    assert task.state is FileState.ACTIVE
    assert task.last_session == 42 and task.last_door == "door-0"
    assert not state.clean


def test_attempt_fail_restores_the_alternatives_cursor():
    j = Journal()
    _submit(j, "job-1", ["/a"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=1, attempts=1)
    j.append("attempt_fail", t=0.2, job_id="job-1", index=0, alt_cursor=1,
             attempts=1, error="ChannelLost")

    state = replay(j.records)
    task = state.jobs[0].files[0]
    assert task.state is FileState.SUBMITTED  # queued again, not resumed
    assert task.alt_cursor == 1 and task.attempts == 1
    assert not state.resume


def test_reject_cancels_the_submission_whole():
    j = Journal()
    j.append("submit", t=0.0, job_id="job-1", tenant="t", priority=0,
             deadline=None,
             files=[{"path": "/a", "size": MiB, "sources": []}])
    j.append("reject", t=0.0, job_id="job-1", reason="queue full")
    state = replay(j.records)
    assert state.jobs[0].state is JobState.CANCELED
    assert state.jobs[0].files[0].error == "queue full"


def test_checkpoint_marks_clean_and_cross_checks_the_snapshot():
    j = Journal()
    _submit(j, "job-1", ["/a"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=1, attempts=1)
    j.append("finish", t=0.5, job_id="job-1", index=0, door="door-0")
    j.append("checkpoint", t=0.6, clean=True,
             state={"jobs": {"job-1": "FINISHED"}})
    assert replay(j.records).clean

    # A transition after the checkpoint means it no longer ends clean.
    j2 = Journal(records=list(j.records))
    _submit(j2, "job-2", ["/b"], t=0.7)
    j2.append("attempt", t=0.8, job_id="job-2", index=0, door="door-0",
              session=2, attempts=1)
    assert not replay(j2.records).clean

    # A snapshot that disagrees with replayed state is corruption.
    bad = list(j.records)
    bad[-1] = {"kind": "checkpoint", "t": 0.6, "clean": True,
               "state": {"jobs": {"job-1": "FAILED"}}}
    with pytest.raises(ValueError, match="checkpoint snapshot"):
        replay(bad)


def test_resumed_finish_marks_the_task_recovered():
    j = Journal()
    _submit(j, "job-1", ["/a"])
    j.append("attempt", t=0.1, job_id="job-1", index=0, door="door-0",
             session=1, attempts=1)
    j.append("finish", t=0.5, job_id="job-1", index=0, door="door-0",
             resumed_from=17)
    task = replay(j.records).jobs[0].files[0]
    assert task.recovered and task.resumed_from == 17
    assert task.state is FileState.FINISHED

    # A resume that re-attached at block 0 still journals the key — and
    # is still a recovered outcome, exactly as the live broker reports it.
    records = list(j.records)
    records[-1]["resumed_from"] = 0
    task = replay(records).jobs[0].files[0]
    assert task.recovered and task.resumed_from == 0


def test_journal_file_roundtrip(tmp_path):
    """A run's journal written to disk loads back record-for-record and
    is self-contained (the spec rides along)."""
    path = str(tmp_path / "run.journal")
    spec = synthetic_spec(seed=2, total_files=8, doors=1)
    result = run_sched(spec, journal_path=path)
    assert result.all_finished

    loaded = Journal.load(path)
    assert list(loaded.records) == list(result.journal.records)
    assert loaded.spec() == spec
    state = loaded.replay()
    assert all(job.state is JobState.FINISHED for job in state.jobs)
    assert not state.resume
    # Self-contained means the spec must be there to recover from.
    bare = str(tmp_path / "bare.journal")
    with open(path) as src, open(bare, "w") as dst:
        dst.writelines(line for line in src if '"kind": "spec"' not in line)
    with pytest.raises(ValueError, match="has no embedded spec record"):
        run_sched(None, recover=bare)

    # The packed columns give back each record exactly as appended, and
    # ``sync`` writes ``json.dumps(record, sort_keys=True)`` line for line
    # (JSON tells a bool from an int and an int from a float): a bool
    # beside ints, None, an int past int64, keys whose value type changes
    # partway through, empty ``files`` and ``sources``, a snapshot.
    snapshot = snapshot_jobs(state.jobs[:2])
    awkward = [
        {"kind": "spec", "spec": spec},
        {"kind": "submit", "t": 0.0, "job_id": "j1", "tenant": "t", "priority": 0,
         "deadline": None, "files": [{"path": "/a", "size": 1, "sources": []},
                                     {"path": "/b", "size": 1 << 40,
                                      "sources": ["door-0", "door-1"]}]},
        {"kind": "submit", "t": 0.5, "job_id": "j2", "tenant": "t", "priority": True,
         "deadline": 2.5, "files": []},
        {"kind": "submit", "t": 1, "job_id": "j3", "tenant": "t", "priority": 2,
         "deadline": None, "files": [{"path": "/c", "size": 1 << 70, "sources": []}]},
        {"kind": "attempt", "t": 1.5, "job_id": "j1", "index": 0, "door": "door-0",
         "session": 7, "attempts": 1},
        {"kind": "attempt", "t": 2.0, "job_id": "j1", "index": 1, "door": None,
         "session": 1 << 63, "attempts": 1.0},
        {"kind": "checkpoint", "t": 3.0, "clean": True,
         "state": {"jobs": {"j1": "ACTIVE"}}, "snapshot": snapshot},
        {"kind": "finish", "t": 3.5, "job_id": "j1", "index": 0, "door": "door-0"},
    ]
    packed = Journal()
    for rec in awkward:
        assert packed.append(**rec) == rec
    assert list(packed.records) == awkward and packed.records[:] == awkward
    assert packed.records[-2]["snapshot"] is snapshot  # a reference
    lines = [json.dumps(rec, sort_keys=True) for rec in awkward]
    packed.sync(path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read().splitlines() == lines
    assert list(Journal.load(path).records) == awkward
    assert packed.compact() == 5
    packed.sync(path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read().splitlines() == [lines[0], *lines[-2:]]

    # Memory guard: what the journal alone keeps per record (strings
    # stay shared with the job table, the spec with the caller).  A dict
    # per record kept ~364 B; the columns keep ~73 B.
    tracemalloc.start()
    try:
        spec = synthetic_spec(total_files=500)
        result = run_sched(spec)
        assert result.journal.spec() is spec  # kept alive here, not counted
        journal = result.journal
        records, freed = len(journal.records), weakref.ref(journal)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        result.journal = result.broker.journal = journal = None
        gc.collect()
        assert freed() is None
        per_record = (held - tracemalloc.get_traced_memory()[0]) / records
    finally:
        tracemalloc.stop()
    assert per_record <= 80, per_record


def test_unknown_record_kind_is_an_error():
    j = Journal()
    _submit(j, "job-1", ["/a"])
    j.append("mystery", t=0.1, job_id="job-1", index=0)
    with pytest.raises(ValueError, match="unknown journal record kind"):
        replay(j.records)


# -- live broker vs replay: one reducer, checked from both ends -------------------


class _StubLink:
    """Just enough link for ``cancel_job`` to abort a pending attempt and
    for a broker crash to kill every live session (its channels stay
    up, so a resume needs no reopen)."""

    data = SimpleNamespace(alive_count=1)

    def __init__(self):
        self.pending = {}

    def crash(self):
        for session_id in list(self.pending):
            self.abort_session(session_id, TransferError(session_id, "crash"))

    def abort_session(self, session_id, exc):
        event = self.pending.pop(session_id, None)
        if event is None or event.triggered:
            return False
        event.fail(exc)
        return True


class _StubDoor:
    """A duck-typed door whose every attempt succeeds (``ok``), dies with
    a typed error (``fail``) or never resolves (``hang``)."""

    def __init__(self, engine, name, outcome, delay=0.05):
        self.engine = engine
        self.name = name
        self.outcome = outcome
        self.delay = delay
        self.active = 0
        self.max_sessions = 2
        self.saturated = False  # True: closed (files block and park)
        self.link = _StubLink()
        self.leases = None  # no shared channel set
        self.breaker = None  # the broker installs its own

    def admission(self, now, session_cap=None):
        if self.saturated:
            return CLOSED
        return ADMIT if self.active < (session_cap or self.max_sessions) else FULL

    def transfer(self, task, session_id=None):
        event = Event(self.engine)
        self.link.pending[session_id] = event
        if self.outcome != "hang":
            self.engine.process(self._resolve(event, session_id))
        return event

    resume = transfer  # a re-attach ends as a fresh attempt would

    def _resolve(self, event, session_id):
        yield self.engine.timeout(self.delay)
        if event.triggered:
            return  # a cancel aborted the session first
        if self.outcome == "ok":
            event.succeed(None)
        else:
            event.fail(TransferError(session_id, "boom"))


def test_file_parked_for_retry_checkpoints_as_submitted():
    """Regression: ``attempt_fail`` leaves the file SUBMITTED live as it
    does in replay, so a drain checkpoint taken while the file sits in
    its retry backoff snapshots it SUBMITTED — and the full journal and
    its compacted form replay to the same table, with nothing to resume
    (the parent snapshotted it ACTIVE: compacted replay tried to
    SESSION_RESUME a session that had already failed)."""
    engine = Engine()
    cfg = SchedulerConfig(retry_backoff=60.0, retry_backoff_cap=60.0,
                          retry_jitter=0.0, breaker_failures=5)
    broker = TransferBroker(engine, [_StubDoor(engine, "door-bad", "fail")],
                            cfg)
    job = broker.submit("t", [TransferSpec("/data/x", MiB)])
    engine.run(until=1.0)  # the attempt failed; parked for 60 s
    assert len(broker._parked) == 1
    assert job.files[0].state is FileState.SUBMITTED
    broker.drain()
    engine.run(until=2.0)
    assert broker.journal.records[-1]["kind"] == "checkpoint"

    compacted = Journal(records=list(broker.journal.records))
    assert compacted.compact() > 0
    full, compact = replay(broker.journal.records), replay(compacted.records)
    assert snapshot_jobs(full.jobs) == snapshot_jobs(broker.jobs)
    assert snapshot_jobs(compact.jobs) == snapshot_jobs(broker.jobs)
    assert full.resume == [] and compact.resume == []
    assert full.clean and compact.clean
    # The auto id "job-1" survives compaction: restored jobs advance the
    # next id as their submit records would.
    assert full.next_job_id == compact.next_job_id == 2
    # A drained broker refuses new work, journaled; a crashed one takes
    # none, and a second crash changes nothing.
    late = broker.submit("t", [TransferSpec("/data/late", MiB)])
    assert late.state is JobState.CANCELED
    assert broker.journal.records[-1]["kind"] == "reject"
    with pytest.raises(ValueError, match="a job needs at least one file"):
        broker.submit("t", [])
    broker.crash()
    broker.crash()
    with pytest.raises(RuntimeError, match="submit on a crashed broker incarnation"):
        broker.submit("t", [TransferSpec("/data/dead", MiB)])


def _assert_live_matches_replay(broker):
    """The journal ↔ live conservation law.  One live-only window is
    documented (DESIGN.md "Broker lifecycle") and masked here: READY is
    the dispatch-instant mark with no record."""
    table = replay(broker.journal.records)
    live, replayed = snapshot_jobs(broker.jobs), snapshot_jobs(table.jobs)
    for live_job in live:
        for lf in live_job["files"]:
            if lf["state"] == "READY":
                lf["state"] = "SUBMITTED"
    assert live == replayed
    assert (
        broker._active
        == sum(d.active for d in broker.doors.values())
        == sum(s.inflight for s in broker._tenants.values())
    )
    assert broker.table.outstanding == table.outstanding == _recount(broker.jobs)
    # Parked files (retry backoff, or a blocked pass's cohort) are counted
    # once in the index and once on their tenant.
    assert len(broker._parked) == sum(
        s.parked for s in broker._tenants.values()
    )


def _recount(jobs):
    """Admitted primary files not yet terminal, from the task states."""
    return sum(1 for job in jobs for t in job.files
               if t.duplicate_of is None and not t.state.terminal)


_SOURCES = [(), ("ok",), ("fail", "ok"), ("fail",), ("hang", "ok"), ("hang",)]

_SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(["a", "b"]),
    st.sampled_from([None, None, "j1", "j2"]),  # a reused id dedupes
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_SOURCES)),
             min_size=1, max_size=4),  # few paths: duplicates ride along
    st.sampled_from([None, None, None, 0.02, 0.3]),
)
_STEPS = st.one_of(
    _SUBMIT,
    _SUBMIT,
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("saturate"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("crash")),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0])),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0])),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_STEPS, min_size=3, max_size=16),
       st.one_of(st.none(), st.integers(2, 15)))
def test_live_job_table_equals_replay_after_every_step(steps, drain_at):
    """Generated-sequence oracle: whatever interleaving of submit (with
    duplicate paths, reused ids, deadlines), cancel, time and drain a
    real broker sees over succeed / fail / hang doors that saturate and
    recover, and crash-and-recover (files ACTIVE at the crash resume on
    the same doors), replaying its journal reproduces its job table, and
    worker slots, parked files and the outstanding count are conserved."""
    engine = Engine()
    doors = [_StubDoor(engine, name, name) for name in ("ok", "fail", "hang")]
    config = SchedulerConfig(max_active=3, max_attempts=3, retry_backoff=0.05,
                             retry_backoff_cap=0.2, blocked_retry=0.05,
                             breaker_failures=2, breaker_cooldown=0.1)
    tenants = {"a": TenantPolicy(max_inflight=2, max_queued=5)}
    overload = OverloadConfig(global_rate=5.0, global_burst=6.0,
                              retry_budget_ratio=0.5, retry_budget_burst=3.0)
    broker = TransferBroker(engine, doors, config, tenants, overload=overload)
    for i, step in enumerate(steps):
        if i == drain_at:
            broker.drain()
        if step[0] == "submit":
            _, tenant, job_id, files, deadline = step
            broker.submit(
                tenant,
                [TransferSpec(f"/data/p{i}", MiB, src) for i, src in files],
                job_id=job_id, deadline=deadline,
            )
        elif step[0] == "cancel" and broker.jobs:
            broker.cancel_job(broker.jobs[step[1] % len(broker.jobs)])
        elif step[0] == "saturate":
            doors[step[1]].saturated = step[2]
        elif step[0] == "advance":
            engine.run(until=engine.now + step[1])
        elif step[0] == "crash":
            broker.crash()
            broker = TransferBroker.recover(engine, doors, broker.journal, config,
                                            tenants, overload=overload)
        _assert_live_matches_replay(broker)
    engine.run(until=engine.now + 5.0)  # retries, deadlines, drain settle
    _assert_live_matches_replay(broker)
    compacted = Journal(records=list(broker.journal.records))
    if compacted.compact():
        full, compact = replay(broker.journal.records), replay(compacted.records)
        assert snapshot_jobs(compact.jobs) == snapshot_jobs(full.jobs)
        assert compact.outstanding == full.outstanding == _recount(compact.jobs)


#: One non-default sample per annotation used on Job / FileTask; a field
#: of a new type fails the guard below until it is given one.
_SAMPLES = {
    "str": "x", "int": 7, "float": 1.5, "bool": True,
    "Optional[str]": "door-9", "Optional[int]": 41, "Optional[float]": 2.5,
    "FileState": FileState.FAILED, "JobState": JobState.FAILED,
}


def test_snapshot_restore_round_trips_every_dataclass_field():
    """Field-drift guard (the ``tests/sim/test_event_slots.py`` pattern):
    checkpoints copy Job / FileTask fields by name, so set EVERY field to
    a non-default value and require the round trip to preserve it — a
    field added later cannot be forgotten in snapshots."""
    structural = {"spec", "job", "index", "duplicate_of", "duplicates",
                  "files", "done"}

    def fill(obj):
        names = []
        for f in dataclasses.fields(obj):
            if f.name in structural:
                continue
            assert f.type in _SAMPLES, f"add a _SAMPLES entry for {f.type}"
            assert _SAMPLES[f.type] != f.default
            setattr(obj, f.name, _SAMPLES[f.type])
            names.append(f.name)
        return names

    owner = Job.build("owner", "t", [TransferSpec("/data/o", MiB)])
    job = Job.build("dup", "t", [TransferSpec("/data/a", 3 * MiB, ("d1", "d2")),
                                 TransferSpec("/data/o", MiB)], priority=2)
    job.files[1].duplicate_of = owner.files[0]
    owner.files[0].duplicates.append(job.files[1])
    job_names = fill(job)
    task_names = fill(job.files[1])

    r_owner, r_job = restore_jobs(snapshot_jobs([owner, job]))
    for name in job_names:
        assert getattr(r_job, name) == getattr(job, name), name
    for name in task_names:
        assert getattr(r_job.files[1], name) == getattr(job.files[1], name), name
    assert [t.spec for t in r_job.files] == [t.spec for t in job.files]
    assert [t.index for t in r_job.files] == [0, 1]
    assert all(t.job is r_job for t in r_job.files)
    assert r_job.files[1].duplicate_of is r_owner.files[0]
    assert r_owner.files[0].duplicates == [r_job.files[1]]
