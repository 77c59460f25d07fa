"""Crash-restart recovery: nothing lost, nothing transferred twice.

The chaos contract for the durable broker: a ``broker_crashes`` fault
kills the incarnation mid-flight (links crash, volatile state is gone),
the supervisor restarts it from the journal, and the recovered run must
end byte-identical to one that never crashed — FINISHED files are never
re-transferred, queued files continue, and files ACTIVE at crash time
re-attach via SESSION_RESUME so only the missing suffix moves.
"""

import pytest

from repro.sched import run_sched, synthetic_spec
from tests.oracles import stable_report_lines

MiB = 1 << 20

#: The 24-file quick mix's flight window (attempts ~0.74s..~1.3s sim
#: time): every point below lands while transfers are genuinely active.
CRASH_POINTS = (0.9, 1.0, 1.1)


def _quick_spec(seed, crash_at=None):
    spec = synthetic_spec(seed=seed, total_files=24, doors=2)
    if crash_at is not None:
        spec["faults"] = {"broker_crashes": [crash_at]}
    return spec


def _counter(result, name):
    metric = result.testbed.engine.metrics.get(name)
    return metric.total if metric is not None else 0.0


def test_mid_flight_crash_recovers_with_nothing_lost():
    base = run_sched(_quick_spec(0), audit=True)
    crashed = run_sched(_quick_spec(0, crash_at=1.0), audit=True)

    assert crashed.recoveries == 1
    assert crashed.all_finished
    # The delivery audit is the hard guarantee: byte-exact sink content,
    # no missing blocks, duplicated blocks only across a session resume.
    assert crashed.audit_ok, crashed.audit_problems
    # The crash landed mid-flight: interrupted sessions re-attached via
    # SESSION_RESUME instead of starting over.
    assert _counter(crashed, "sched.recovery.resumed") > 0
    assert _counter(crashed, "sched.recovery.resume_failed") == 0
    assert _counter(crashed, "sched.recovery.jobs_replayed") == len(base.jobs)
    # Outcome determinism: the recovered run's stable report is byte
    # identical to the run that never crashed.
    assert stable_report_lines(crashed.jobs) == stable_report_lines(base.jobs)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_crash_point_and_seed_sweep_is_outcome_deterministic(seed, crash_at):
    """K distinct crash points x 2 seeds: every recovered run converges
    to the uncrashed run's outcomes, and the audit stays clean."""
    base = run_sched(_quick_spec(seed), audit=True)
    crashed = run_sched(_quick_spec(seed, crash_at=crash_at), audit=True)
    assert crashed.recoveries == 1
    assert crashed.all_finished
    assert crashed.audit_ok, crashed.audit_problems
    assert stable_report_lines(crashed.jobs) == stable_report_lines(base.jobs)


def _big_file_spec(crash_at=None):
    """Two 1 GiB files: long enough data phases that a crash lands in
    the middle of a file, leaving a real suffix to resume."""
    spec = {
        "testbed": "ani-wan", "seed": 0, "max_active": 2,
        "doors": 2, "door_sessions": 2,
        "tenants": {"g": {"weight": 1.0, "max_inflight": 2,
                          "max_queued": 10 ** 9}},
        "jobs": [{"tenant": "g", "priority": 0, "submit_at": 0.0,
                  "files": [{"path": f"/data/big/f{i}", "size": 1024 * MiB,
                             "sources": ["door-0", "door-1"]}
                            for i in range(2)]}],
    }
    if crash_at is not None:
        spec["faults"] = {"broker_crashes": [crash_at]}
    return spec


def test_resume_moves_only_the_missing_suffix():
    """A crash in the middle of a 1 GiB data phase: the resumed session
    re-attaches at the sink's restart marker, so blocks delivered before
    the crash are never sent again (zero duplicate-delivered bytes)."""
    result = run_sched(_big_file_spec(crash_at=2.0), audit=True)
    assert result.recoveries == 1
    assert result.all_finished
    assert result.audit_ok, result.audit_problems
    assert result.overlap_bytes == 0

    nblocks = 1024 * MiB // result.block_size
    resumed = [t for j in result.jobs for t in j.files if t.resumed_from]
    assert resumed, "no session re-attached via SESSION_RESUME"
    for task in resumed:
        assert 0 < task.resumed_from < nblocks
    assert result.recovered_suffix_bytes > 0
    # Suffix-only: the recovered bytes are strictly less than the files.
    assert result.recovered_suffix_bytes < sum(t.size for t in resumed)

    base = run_sched(_big_file_spec(), audit=True)
    assert stable_report_lines(result.jobs) == stable_report_lines(base.jobs)


def test_submissions_during_the_outage_queue_for_the_next_incarnation():
    """The supervisor buffers submissions that arrive while the broker
    is down and replays them, in order, on the recovered incarnation."""
    # Door opening on the WAN finishes at ~0.735s; a crash at 0.7 with
    # the default 0.5s restart delay makes the t=0 submissions land in
    # the outage window.
    crashed = run_sched(_quick_spec(0, crash_at=0.7), audit=True)
    assert crashed.recoveries == 1
    assert crashed.all_finished
    assert crashed.audit_ok, crashed.audit_problems
    submits = [r for r in crashed.journal.records if r["kind"] == "submit"]
    assert submits and all(r["t"] >= 1.2 for r in submits)

    base = run_sched(_quick_spec(0), audit=True)
    assert stable_report_lines(crashed.jobs) == stable_report_lines(base.jobs)


def test_drain_checkpoint_then_standalone_recover(tmp_path):
    """``drain()`` stops admissions, finishes in-flight work, writes a
    clean checkpoint; a later ``run_sched(recover=...)`` continues the
    leftover files from the journal file alone (no spec, no re-transfer
    of FINISHED files)."""
    path = str(tmp_path / "drain.journal")
    spec = _quick_spec(0)
    spec["drain_at"] = 0.9  # after the first dispatch wave, before it lands
    first = run_sched(spec, journal_path=path)
    assert first.drained
    assert not first.all_finished  # queued files were left for later
    checkpoints = [r for r in first.journal.records
                   if r["kind"] == "checkpoint"]
    assert len(checkpoints) == 1 and checkpoints[0]["clean"]
    finished_before = {
        (j.job_id, t.index)
        for j in first.jobs for t in j.files if t.state.value == "FINISHED"
    }
    assert finished_before  # in-flight work finished before the checkpoint

    second = run_sched(recover=path)
    assert second.all_finished
    assert second.broker.recovered
    # FINISHED files came back by replay — never re-transferred: every
    # post-recovery attempt is for a file the drain left unfinished.
    boundary = next(i for i, r in enumerate(second.journal.records)
                    if r["kind"] == "recover")
    late_attempts = [r for r in second.journal.records[boundary:]
                     if r["kind"] == "attempt"]
    assert late_attempts
    assert all((r["job_id"], r["index"]) not in finished_before
               for r in late_attempts)

    # A drain that lands while the post-crash resume pass still runs:
    # every resume settles, the pass then leaves dispatch closed (no
    # attempt follows it), and the one checkpoint comes after the last.
    spec = _quick_spec(0, crash_at=1.0)
    spec["drain_at"] = 1.5001  # the restart recovers at 1.5
    mid = run_sched(spec)
    assert mid.drained and mid.recoveries == 1
    records = mid.journal.records
    boundary = next(i for i, r in enumerate(records) if r["kind"] == "recover")
    recover, after = records[boundary], records[boundary + 1:]
    assert recover["resumed"] > 1 and recover["t"] < 1.5001 < after[0]["t"]
    assert [r["kind"] for r in after] == ["finish"] * recover["resumed"] + ["checkpoint"]
    assert all("resumed_from" in r for r in after[:-1])
