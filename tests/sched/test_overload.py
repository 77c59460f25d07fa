"""Overload control: backpressure, shedding, budgets, brownout, compaction.

The robustness contract for the broker's front door: when demand exceeds
capacity the broker sheds *cooperatively* (whole jobs, deterministic
RETRY_AFTER hints, everything journaled and reported — never silently
lost), retry storms are capped at the tenant boundary, brownout degrades
instead of collapsing, and all of it survives crash recovery
byte-identically.
"""

import json
from dataclasses import fields

import pytest

from repro.apps.rftp import RftpClient, RftpServer
from repro.core.jitter import jitter_fraction, jittered
from repro.obs.registry import MetricsRegistry
from repro.sched import (
    FileState,
    JobState,
    Journal,
    OverloadConfig,
    TenantPolicy,
    TransferSpec,
    overload_spec,
    run_sched,
    summarize,
    synthetic_spec,
)
from repro.sched.journal import replay
from repro.sched.overload import (
    BROWNOUT,
    NORMAL,
    RECOVERING,
    OverloadController,
    TokenBucket,
)
from repro.sched.report import report_lines
from repro.testbeds import roce_lan
from tests.conftest import open_broker
from tests.oracles import stable_report_lines

MiB = 1 << 20

#: Tight controls for the small shed tests: rate 20 files/s, burst 30,
#: no per-tenant bucket — the 10× spike sheds a few whole jobs fast.
TIGHT = {
    "global_rate": 20.0,
    "global_burst": 30.0,
    "tenant_rate": 0.0,
    "retry_after_cap": 6.0,
}


def wire(tb):
    server = RftpServer(tb)
    server.start(2811)
    return server, RftpClient(tb)


class _Clock:
    """Minimal engine stand-in for controller unit tests: a settable
    clock, a metrics registry, and a null tracer."""

    def __init__(self):
        self.now = 0.0
        self.metrics = MetricsRegistry()

    def trace(self, *args, **kwargs):
        pass


# -- config / bucket / jitter units -----------------------------------------------


def test_overload_config_validation():
    assert not OverloadConfig().enabled  # all-defaults config is inert
    assert OverloadConfig(global_rate=1.0).enabled
    assert OverloadConfig(retry_budget_ratio=0.5).enabled
    assert OverloadConfig(brownout_high=0.9).brownout_enabled
    assert not OverloadConfig().brownout_enabled
    with pytest.raises(ValueError):
        OverloadConfig(global_rate=-1.0)
    with pytest.raises(ValueError):
        OverloadConfig(global_burst=0.0)
    with pytest.raises(ValueError):
        OverloadConfig(retry_after_cap=0.1, retry_after_base=0.5)
    with pytest.raises(ValueError):
        OverloadConfig(retry_after_jitter=1.5)
    with pytest.raises(ValueError):
        OverloadConfig(brownout_high=0.5, brownout_low=0.9)
    with pytest.raises(ValueError):
        OverloadConfig(brownout_session_factor=0.0)
    for kwargs, message in [
        (dict(max_queued_files=-1), "max_queued_files must be >= 0"),
        (dict(priority_overdraft=-1), "priority_overdraft must be >= 0"),
        (dict(retry_after_base=0), "retry_after_base must be positive"),
        (dict(retry_budget_ratio=-1), "retry_budget_ratio must be >= 0"),
        (dict(retry_budget_burst=0), "retry_budget_burst must be positive"),
        (dict(brownout_high=-1), "brownout_high must be >= 0"),
        (dict(pool_high=0.5, pool_low=0.9), "need 0 <= pool_low <= pool_high"),
        (dict(brownout_hold=-1), "brownout_hold must be >= 0"),
        (dict(brownout_park_tenants=-1), "brownout_park_tenants must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            OverloadConfig(**kwargs)
    with pytest.raises(ValueError, match="unknown overload keys"):
        OverloadConfig.from_spec({"global_rte": 1.0})
    with pytest.raises(ValueError, match="need base_rate > 0 and spike >= 1"):
        overload_spec(spike=0.5)
    # Spec keys are the dataclass fields: every one is accepted by name.
    every = {f.name: getattr(OverloadConfig(), f.name) for f in fields(OverloadConfig)}
    assert len(every) == 18 and OverloadConfig.from_spec(every) == OverloadConfig()
    # A typo in a spec's ``faults`` object fails the same way.
    spec = synthetic_spec(seed=0, total_files=1)
    spec["faults"] = {"write_fault_rte": 0.1}
    with pytest.raises(ValueError, match="unknown fault keys"):
        run_sched(spec)


def test_token_bucket_refill_take_and_overdraft():
    bucket = TokenBucket(rate=10.0, burst=20.0, now=0.0)
    assert bucket.try_take(15, now=0.0)
    assert bucket.tokens == pytest.approx(5.0)
    # Not enough now; refill is lazy arithmetic from the clock.
    assert not bucket.try_take(10, now=0.0)
    assert bucket.try_take(10, now=1.0)  # 5 + 10/s * 1s = 15
    assert bucket.tokens == pytest.approx(5.0)
    # Overdraft may leave the level negative; the debt repays via refill.
    assert bucket.try_take(10, now=1.0, overdraft=6.0)
    assert bucket.tokens == pytest.approx(-5.0)
    assert bucket.time_until(5, now=1.0) == pytest.approx(1.0)
    assert bucket.time_until(0.0, now=3.0) == 0.0
    # Refill never exceeds the burst depth.
    bucket._refill(1000.0)
    assert bucket.tokens == pytest.approx(20.0)
    assert TokenBucket(0.0, 4.0).time_until(10, now=0.0) == float("inf")


def test_shared_jitter_helper_is_deterministic_and_bounded():
    f = jitter_fraction(7, "job-1", "/data/a", 3)
    assert f == jitter_fraction(7, "job-1", "/data/a", 3)
    assert 0.0 <= f < 1.0
    assert f != jitter_fraction(8, "job-1", "/data/a", 3)
    value = jittered(2.0, 0.5, 7, "job-1", "shed", 1)
    assert 2.0 <= value <= 3.0
    assert value == jittered(2.0, 0.5, 7, "job-1", "shed", 1)
    assert jittered(2.0, 0.0, 7, "x") == 2.0


# -- admission gates (controller units) -------------------------------------------


def _controller(clock=None, **kwargs):
    clock = clock or _Clock()
    return clock, OverloadController(clock, OverloadConfig(**kwargs), seed=0)


def test_priority_overdraft_admits_urgent_work():
    clock, ctrl = _controller(global_rate=10.0, global_burst=10.0,
                              priority_overdraft=0.5)
    assert ctrl.admit("a", "t", 10, 0, 0, priority=0, deadline=None) is None
    # Bucket empty: normal work sheds, priority overdraws (0.5 * 10).
    shed = ctrl.admit("b", "t", 4, 0, 0, priority=0, deadline=None)
    assert shed is not None and "global rate limit" in shed.reason
    assert shed.retry_after > 0
    assert ctrl.admit("c", "t", 4, 0, 0, priority=1, deadline=None) is None
    # The overdraft is a bounded privilege, not an exemption.
    deep = ctrl.admit("d", "t", 40, 0, 0, priority=1, deadline=None)
    assert deep is not None


def test_queue_bound_and_deadline_infeasible_shed():
    clock, ctrl = _controller(max_queued_files=50, global_rate=10.0,
                              global_burst=1000.0)
    shed = ctrl.admit("a", "t", 20, 0, 40, priority=0, deadline=None)
    assert shed is not None and "queue bound" in shed.reason
    # 40 backlog / 10 per s = 4s wait > the 2s deadline: shed now
    # rather than admit work that must die of old age in the queue.
    shed = ctrl.admit("b", "t", 5, 0, 40, priority=0, deadline=2.0)
    assert shed is not None and "deadline infeasible" in shed.reason
    assert ctrl.admit("c", "t", 5, 0, 40, priority=0, deadline=10.0) is None
    # With no global rate to drain it, a full queue hints twice the base.
    clock, ctrl = _controller(max_queued_files=50, retry_after_base=1.0,
                              retry_after_jitter=0.0)
    shed = ctrl.admit("d", "t", 20, 0, 40, priority=0, deadline=None)
    assert "queue bound" in shed.reason and shed.retry_after == pytest.approx(2.0)


def test_retry_after_doubles_per_shed_and_spans_incarnations():
    clock, ctrl = _controller(global_rate=10.0, retry_after_base=1.0,
                              retry_after_cap=100.0, retry_after_jitter=0.0)
    first = ctrl.retry_after("job-1", need=1.0)
    # A resubmission incarnation shares the base id's shed count.
    second = ctrl.retry_after("job-1~r1", need=1.0)
    third = ctrl.retry_after("job-1~r2", need=1.0)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    assert third == pytest.approx(4.0)
    # Another job's count is independent.
    assert ctrl.retry_after("job-2", need=1.0) == pytest.approx(1.0)
    # A wait no refill ends (a zero-rate bucket) hints the cap.
    assert ctrl.retry_after("job-3", need=float("inf")) == pytest.approx(100.0)


def test_retry_budget_spend_and_replenish():
    clock, ctrl = _controller(retry_budget_ratio=0.5, retry_budget_burst=2.0)
    assert ctrl.allow_retry("t")
    assert ctrl.allow_retry("t")
    assert not ctrl.allow_retry("t")  # dry: deny, fail fast
    ctrl.note_success("t")
    ctrl.note_success("t")  # 2 successes * 0.5 = one retry earned
    assert ctrl.allow_retry("t")
    assert not ctrl.allow_retry("t")
    denied = clock.metrics.get("sched.overload.retry_denied")
    assert denied.count == 2
    # Replenishment caps at the burst.
    for _ in range(50):
        ctrl.note_success("t")
    assert ctrl.allow_retry("t") and ctrl.allow_retry("t")
    assert not ctrl.allow_retry("t")
    # Without a budget every retry is allowed.
    _, unbudgeted = _controller()
    assert all(unbudgeted.allow_retry("t") for _ in range(5))


# -- brownout FSM ------------------------------------------------------------------


def test_brownout_fsm_watermarks_and_hysteresis():
    clock, ctrl = _controller(brownout_high=0.9, brownout_low=0.5,
                              brownout_hold=2.0, brownout_park_tenants=1)
    weights = {"gold": 3.0, "bronze": 1.0}
    ctrl.observe(8, 10, 0.0, weights)
    assert ctrl.state == NORMAL  # 0.8 < high watermark
    ctrl.observe(9, 10, 0.0, weights)
    assert ctrl.state == BROWNOUT
    # Lowest weight first.
    assert ctrl.tenant_parked("bronze") and not ctrl.tenant_parked("gold")
    assert ctrl.door_session_cap(4) == 2  # shrunk, never below one
    # Between the watermarks: still browned out (hysteresis).
    ctrl.observe(7, 10, 0.0, weights)
    assert ctrl.state == BROWNOUT
    # Below low: start the recovery dwell.
    clock.now = 1.0
    ctrl.observe(4, 10, 0.0, weights)
    assert ctrl.state == RECOVERING
    assert ctrl.door_session_cap(4) == 4  # cap only shrinks in BROWNOUT
    # Hot again before the dwell elapses: straight back to BROWNOUT.
    clock.now = 2.0
    ctrl.observe(10, 10, 0.0, weights)
    assert ctrl.state == BROWNOUT
    clock.now = 3.0
    ctrl.observe(2, 10, 0.0, weights)
    assert ctrl.state == RECOVERING
    # A sample between the watermarks restarts the dwell.
    clock.now = 4.5
    ctrl.observe(7, 10, 0.0, weights)
    clock.now = 6.0
    ctrl.observe(2, 10, 0.0, weights)
    assert ctrl.state == RECOVERING  # only 1.5s of calm since restart
    clock.now = 6.7
    ctrl.observe(2, 10, 0.0, weights)
    assert ctrl.state == NORMAL
    assert not ctrl.tenant_parked("bronze")
    entries = clock.metrics.get("sched.overload.brownout_entries")
    exits = clock.metrics.get("sched.overload.brownout_exits")
    # Relapse from RECOVERING is not a fresh entry — one episode.
    assert entries.count == 1 and exits.count == 1


def test_brownout_pool_watermark_and_parked_tenant_shed():
    clock, ctrl = _controller(pool_high=0.9, pool_low=0.3,
                              brownout_park_tenants=1)
    weights = {"gold": 3.0, "bronze": 1.0}
    ctrl.observe(0, 10, 0.95, weights)
    assert ctrl.state == BROWNOUT
    shed = ctrl.admit("b1", "bronze", 5, 0, 0, priority=0, deadline=None)
    assert shed is not None and "parked" in shed.reason
    # Ride-along suspension: duplicates shed while browned out.
    shed = ctrl.admit("g1", "gold", 5, 2, 0, priority=0, deadline=None)
    assert shed is not None and "ride-along" in shed.reason
    assert ctrl.admit("g2", "gold", 5, 0, 0, priority=0, deadline=None) is None
    # Never parks every tenant.
    clock2, ctrl2 = _controller(pool_high=0.9, brownout_park_tenants=5)
    ctrl2.observe(0, 10, 0.95, weights)
    assert [t for t in weights if ctrl2.tenant_parked(t)] == ["bronze"]


def test_brownout_broker_degrades_and_recovers():
    """End to end on a real broker: aggressive watermarks enter brownout
    at first dispatch, the low-weight tenant's submission sheds, and the
    recheck timer re-promotes to NORMAL after the dwell (a fully-parked
    broker must not deadlock in RECOVERING)."""
    tb = roce_lan()
    server, client = wire(tb)
    overload = OverloadConfig(brownout_high=0.2, brownout_low=0.1,
                              brownout_hold=0.5, brownout_park_tenants=1)
    out = {}

    def driver(env):
        broker = yield open_broker(
            client, overload=overload,
            tenants={"gold": TenantPolicy(weight=3.0),
                     "bronze": TenantPolicy(weight=1.0)},
        )
        gold = broker.submit(
            "gold", [TransferSpec(f"/data/g{i}", 8 * MiB) for i in range(8)]
        )
        # Poll until dispatch drives the FSM into BROWNOUT (the FSM is
        # event-driven, sampled at dispatch/completion points).
        while broker.overload.state != BROWNOUT:
            yield env.timeout(0.001)
        out["cap_during"] = broker.overload.door_session_cap(4)
        bronze = broker.submit("bronze", [TransferSpec("/data/b0", MiB)])
        yield gold.done
        out.update(broker=broker, gold=gold, bronze=bronze)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    broker = out["broker"]
    assert out["cap_during"] == 2
    assert out["gold"].state is JobState.FINISHED
    bronze = out["bronze"]
    assert bronze.shed and bronze.state is JobState.CANCELED
    assert "parked" in bronze.shed_reason
    assert bronze.retry_after > 0
    # The recheck timer drove RECOVERING -> NORMAL after the dwell.
    assert broker.overload.state == NORMAL
    assert not broker.overload.tenant_parked("bronze")
    metrics = tb.engine.metrics
    assert metrics.get("sched.overload.brownout_entries").count >= 1
    assert metrics.get("sched.overload.brownout_exits").count >= 1


# -- broker integration: shedding, budgets, reports --------------------------------


def test_broker_sheds_whole_job_with_journaled_retry_after():
    tb = roce_lan()
    server, client = wire(tb)
    overload = OverloadConfig(global_rate=1.0, global_burst=4.0,
                              retry_after_jitter=0.5)
    out = {}

    def driver(env):
        broker = yield open_broker(client, overload=overload)
        admitted = broker.submit(
            "t", [TransferSpec(f"/data/a{i}", MiB) for i in range(4)]
        )
        shed = broker.submit(
            "t", [TransferSpec(f"/data/b{i}", MiB) for i in range(4)]
        )
        assert shed.done.triggered  # shed is immediate and whole
        yield admitted.done
        out.update(broker=broker, admitted=admitted, shed=shed)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    shed, admitted = out["shed"], out["admitted"]
    assert admitted.state is JobState.FINISHED
    assert shed.state is JobState.CANCELED and shed.shed
    assert shed.shed_reason == "global rate limit"
    assert shed.retry_after is not None and shed.retry_after > 0
    assert all(t.state is FileState.CANCELED for t in shed.files)
    assert all(t.error == "shed: global rate limit" for t in shed.files)
    recs = [r for r in out["broker"].journal.records if r["kind"] == "shed"]
    assert len(recs) == 1
    assert recs[0]["job_id"] == shed.job_id
    assert recs[0]["reason"] == "global rate limit"
    assert recs[0]["retry_after"] == pytest.approx(shed.retry_after)
    metrics = tb.engine.metrics
    assert metrics.get("sched.overload.shed_jobs").count == 1
    assert metrics.get("sched.overload.shed_files").total == 4


def test_retry_budget_exhaustion_fails_fast_with_reason():
    """Attempt faults beyond the budget go terminal immediately — the
    retry-storm amplifier is cut instead of parking ever more timers."""
    tb = roce_lan()
    server, client = wire(tb)
    overload = OverloadConfig(retry_budget_ratio=0.25,
                              retry_budget_burst=1.0)
    out = {}

    def driver(env):
        broker = yield open_broker(client, overload=overload)
        broker.attempt_fault_hook = lambda now: True  # every attempt dies
        job = broker.submit("t", [TransferSpec("/data/a", MiB)])
        yield job.done
        out.update(broker=broker, job=job)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    job = out["job"]
    task = job.files[0]
    assert job.state is JobState.FAILED
    assert task.state is FileState.FAILED
    # One retry allowed by the burst, then the budget denies: 2 attempts,
    # not max_attempts (4).
    assert task.attempts == 2
    assert "InjectedAttemptFault" in task.error
    assert task.error.endswith("(retry budget exhausted)")
    assert tb.engine.metrics.get("sched.overload.retry_denied").count == 1


def test_spec_attempt_faults_fail_attempts_only_inside_their_window():
    """A spec's ``attempt_fault_rate`` reaches the broker through the
    fault injector; outside ``attempt_fault_window`` it is dormant."""
    jobs = [{"tenant": "t", "files": [{"path": "/data/a", "size": MiB}]}]
    storm = run_sched({"testbed": "roce-lan", "jobs": jobs,
                       "faults": {"attempt_fault_rate": 1.0}})
    task = storm.jobs[0].files[0]
    assert storm.jobs[0].state is JobState.FAILED
    assert task.attempts == 4  # every attempt dies, up to max_attempts
    assert task.error.startswith("InjectedAttemptFault")
    late = run_sched({"testbed": "roce-lan", "jobs": jobs,
                      "faults": {"attempt_fault_rate": 1.0,
                                 "attempt_fault_window": [100.0, 200.0]}})
    task = late.jobs[0].files[0]
    assert late.jobs[0].state is JobState.FINISHED
    assert task.attempts == 1 and task.error is None


def test_resubmit_same_job_id_dedupes_in_flight_and_after_recovery():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        job = broker.submit("t", [TransferSpec("/data/a", MiB)],
                            job_id="dup-1")
        again = broker.submit("t", [TransferSpec("/data/a", MiB)],
                              job_id="dup-1")
        assert again is job  # same incarnation, no second admission
        yield job.done
        out.update(broker=broker, job=job)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    broker = out["broker"]
    assert len(broker.jobs) == 1
    admits = [r for r in broker.journal.records if r["kind"] == "admit"]
    assert len(admits) == 1


def test_resubmission_dedupes_against_journaled_incarnation(tmp_path):
    """After crash recovery, a resubmitted job id that already reached
    the journal returns the replayed job instead of double-admitting."""
    spec = synthetic_spec(seed=0, total_files=8, doors=1)
    path = str(tmp_path / "dedupe.journal")
    first = run_sched(spec, journal_path=path)
    assert first.all_finished
    recovered = run_sched(None, recover=path)
    broker = recovered.broker
    job = broker.jobs[0]
    assert job.recovered
    resubmitted = broker.submit(
        "bronze",
        [TransferSpec(t.path, t.size) for t in job.files],
        job_id=job.job_id,
    )
    assert resubmitted is job
    admits = [r for r in broker.journal.records if r["kind"] == "admit"]
    assert len([a for a in admits if a["job_id"] == job.job_id]) == 1

    # A submit without an id is a new job in every incarnation: the next
    # auto id is drawn past every id the replayed table holds, so it
    # neither dedupes onto a replayed job nor leaves its files unqueued.
    for n in range(2):
        incarnation = recovered if n == 0 else run_sched(None, recover=path)
        broker = incarnation.broker
        known = {j.job_id for j in broker.jobs}
        fresh = broker.submit("bronze", [TransferSpec(f"/fresh/{n}", 1 << 20)])
        assert fresh.job_id not in known and not fresh.recovered
        incarnation.testbed.engine.run()
        assert fresh.state is JobState.FINISHED


# -- the open-loop overload scenario ----------------------------------------------


def _tight_spec(total=200, resubmit=0, crash=None):
    spec = overload_spec(seed=0, total_files=total, resubmit_limit=resubmit,
                         overload=dict(TIGHT))
    if crash is not None:
        spec["faults"] = {"broker_crashes": [crash]}
    return spec


def test_overload_spike_sheds_reports_and_stays_leak_free():
    """The shed-heavy campaign: sheds happen, every one lands in the
    JSONL report with a reason and RETRY_AFTER hint, admitted work is
    byte-exact, and no broker/sink state leaks afterwards."""
    result = run_sched(_tight_spec(resubmit=2), audit=True)
    assert result.shed_jobs > 0
    assert result.all_resolved
    assert result.audit_ok, result.audit_problems[:3]
    assert result.leaks == []
    records = [
        json.loads(line)
        for line in report_lines(result.jobs, result.testbed.engine, {})
    ]
    shed_lines = [
        r for r in records if r["kind"] == "job" and r.get("shed")
    ]
    assert len(shed_lines) == result.shed_jobs
    for line in shed_lines:
        assert line["shed_reason"]
        assert line["retry_after"] is not None and line["retry_after"] > 0
    rollup = summarize(result.jobs, result.testbed.engine)
    assert sum(
        t["shed_jobs"] for t in rollup["tenants"].values()
    ) == result.shed_jobs
    # Sink-side transients are back at baseline (no live session, session
    # history bounded, nothing parked in reassembly).
    for eng in result.server.middleware.sink_engines.values():
        assert eng.audit() == []


def test_overload_run_is_deterministic():
    a = run_sched(_tight_spec(resubmit=2), audit=True)
    b = run_sched(_tight_spec(resubmit=2), audit=True)
    assert stable_report_lines(a.jobs) == stable_report_lines(b.jobs)
    hints_a = [j.retry_after for j in a.jobs if j.shed]
    hints_b = [j.retry_after for j in b.jobs if j.shed]
    assert hints_a == hints_b and len(hints_a) == a.shed_jobs


def test_resubmission_honors_retry_after_and_converges():
    """Shed jobs come back as ``<base>~rN`` incarnations after their
    hint; every job ends FINISHED or shed — nothing lingers."""
    result = run_sched(_tight_spec(resubmit=2), audit=True)
    resubs = [j for j in result.jobs if "~r" in j.job_id]
    assert resubs, "expected resubmission incarnations"
    for job in resubs:
        base_id = job.job_id.split("~r", 1)[0]
        base = next(j for j in result.jobs if j.job_id == base_id)
        assert base.shed
        # The incarnation was submitted after the base's hint elapsed.
        assert job.submitted_at >= base.finished_at + base.retry_after - 1e-9
    assert any(j.state is JobState.FINISHED for j in resubs)
    assert result.all_resolved


def test_shed_jobs_stay_shed_across_standalone_recover(tmp_path):
    path = str(tmp_path / "shed.journal")
    first = run_sched(_tight_spec(resubmit=1), journal_path=path, audit=True)
    assert first.shed_jobs > 0
    recovered = run_sched(None, recover=path)
    by_id = {j.job_id: j for j in recovered.jobs}
    for job in first.jobs:
        twin = by_id[job.job_id]
        assert twin.shed == job.shed
        if job.shed:
            assert twin.state is JobState.CANCELED
            assert twin.shed_reason == job.shed_reason
            assert twin.retry_after == pytest.approx(job.retry_after)
            assert all(
                t.error == f"shed: {job.shed_reason}" for t in twin.files
            )
    assert stable_report_lines(recovered.jobs) == stable_report_lines(
        first.jobs
    )


def test_crashed_shed_run_matches_uncrashed_byte_for_byte(tmp_path):
    """Crash the broker mid-transfer after the admission wave: shed
    jobs stay shed through recovery and the stable report lines are
    byte-identical to the run that never crashed."""
    base = run_sched(_tight_spec(), audit=True)
    assert base.shed_jobs > 0
    crashed = run_sched(
        _tight_spec(crash=5.2), audit=True,
        recover=str(tmp_path / "crash.journal"),
    )
    assert crashed.recoveries == 1
    assert crashed.audit_ok, crashed.audit_problems[:3]
    assert crashed.shed_jobs == base.shed_jobs
    assert crashed.leaks == []
    assert stable_report_lines(crashed.jobs) == stable_report_lines(
        base.jobs
    )


def test_resubmit_across_crash_goes_terminal_with_reasons(tmp_path):
    """Crash while resubmission incarnations are still arriving: the
    journal replays shed records (RETRY_AFTER counts survive), pending
    incarnations dedupe, and every job lands in a *terminal, reported*
    state.  The crash kills a wave of in-flight sessions at once, so
    some jobs legitimately exhaust the retry budget and FAIL — the
    contract is honesty (terminal + reason), not universal success."""
    result = run_sched(
        _tight_spec(resubmit=2, crash=3.0), audit=True,
        recover=str(tmp_path / "resub.journal"),
    )
    assert result.recoveries == 1
    assert result.shed_jobs > 0
    assert result.audit_ok, result.audit_problems[:3]
    assert result.leaks == []
    for job in result.jobs:
        assert job.state in (
            JobState.FINISHED, JobState.FAILED, JobState.CANCELED
        )
        if job.state is JobState.CANCELED:
            assert job.shed
    budget_failed = [j for j in result.jobs if j.state is JobState.FAILED]
    assert budget_failed  # the crash wave drained the budget
    for job in budget_failed:
        failed = [t for t in job.files if t.state is FileState.FAILED]
        assert failed
        assert all(
            t.error.endswith("(retry budget exhausted)") for t in failed
        )
    ids = [j.job_id for j in result.jobs]
    assert len(ids) == len(set(ids))  # no double-admitted incarnation


# -- journal compaction (bounded record list) --------------------------------------


def test_checkpoint_snapshot_compacts_and_recovers_identically(tmp_path):
    """Satellite: the journal's in-memory list is bounded by compaction
    at a snapshot checkpoint — replaying the compacted journal restores
    the same state as replaying the full log, and a standalone recover
    continues identically from either file."""
    spec = synthetic_spec(seed=0, total_files=24, doors=1)
    spec["drain_at"] = 0.9
    full_path = str(tmp_path / "full.journal")
    result = run_sched(spec, journal_path=full_path)
    assert result.drained and not result.all_finished
    checkpoints = [
        r for r in result.journal.records if r["kind"] == "checkpoint"
    ]
    assert checkpoints and checkpoints[-1]["snapshot"]

    compact_path = str(tmp_path / "compact.journal")
    with open(full_path) as src, open(compact_path, "w") as dst:
        dst.write(src.read())
    journal = Journal.load(compact_path, mirror=True)
    before = len(journal.records)
    dropped = journal.compact()
    assert dropped > 0
    assert len(journal.records) == before - dropped
    assert journal.spec() is not None  # spec records survive compaction
    journal.close()
    # On-disk mirror was rewritten to match the compacted list.
    reloaded = Journal.load(compact_path)
    assert len(reloaded.records) == len(journal.records)

    full_state = replay(Journal.load(full_path).records)
    compact_state = replay(reloaded.records)
    assert stable_report_lines(compact_state.jobs) == stable_report_lines(
        full_state.jobs
    )
    assert compact_state.clean == full_state.clean

    from_full = run_sched(None, recover=full_path)
    from_compact = run_sched(None, recover=compact_path)
    assert from_compact.all_finished
    assert stable_report_lines(from_compact.jobs) == stable_report_lines(
        from_full.jobs
    )


def test_checkpoint_compact_spec_flag_bounds_live_journal(tmp_path):
    spec = synthetic_spec(seed=0, total_files=24, doors=1)
    spec["drain_at"] = 0.9
    spec["checkpoint_compact"] = True
    path = str(tmp_path / "auto.journal")
    result = run_sched(spec, journal_path=path)
    assert result.drained
    kinds = [r["kind"] for r in result.journal.records]
    # The replayed prefix is gone: spec, then the snapshot checkpoint.
    assert kinds[0] == "spec" and kinds[1] == "checkpoint"
    recovered = run_sched(None, recover=path)
    assert recovered.all_finished


# -- inertness ---------------------------------------------------------------------


def test_unarmed_overload_builds_no_controller():
    """No OverloadConfig (or an all-default one) must leave the broker
    byte-identical to the pre-overload code path: no controller, no new
    journal records, no new metric families."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield open_broker(client)
        inert = yield open_broker(client, overload=OverloadConfig())
        out.update(broker=broker, inert=inert)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["broker"].overload is None
    assert out["inert"].overload is None
    assert tb.engine.metrics.get("sched.overload.shed_jobs") is None
