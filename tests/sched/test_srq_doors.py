"""Scheduler over the shared per-host channel pool (``use_srq``).

The broker-facing half of connection scaling: every door to one
(host, port) shares a single host pool, the door session caps derive
from the pool's real lease capacity, admission never oversubscribes the
shared leases, and teardown paths — including deadline cancellation —
return every lease (audited by ``quiescence_leaks``).
"""

from repro.apps.io import CollectingSink
from repro.core.messages import BlockHeader
from repro.sched import FileState, audit_delivery, quiescence_leaks, run_sched, synthetic_spec


def srq_spec(**over):
    kwargs = dict(seed=0, total_files=40, doors=2, max_active=16,
                  files_per_job=10)
    kwargs.update(over)
    spec = synthetic_spec(**kwargs)
    spec["use_srq"] = True
    return spec


def test_doors_share_one_pool_and_derive_caps():
    result = run_sched(srq_spec(), audit=True)
    assert result.all_finished
    assert result.audit_ok, result.audit_problems[:3]
    # Audited against an empty log, every file names its missing session.
    ok, problems, _, _ = audit_delivery(
        result.jobs, CollectingSink(result.testbed.dst), result.source, result.block_size
    )
    assert not ok and problems == [
        f"{job.job_id}:{task.path}: no deliveries for session {task.last_session}"
        for job in result.jobs for task in job.files
    ]
    assert not result.leaks, result.leaks[:3]
    doors = list(result.broker.doors.values())
    pools = {id(d.link._host_pool) for d in doors}
    assert len(pools) == 1, "same (host, port) must share one pool"
    hp = doors[0].link._host_pool
    # The cap is the pool's real capacity, not the spec's constant (4).
    assert all(d.max_sessions == hp.sessions.capacity for d in doors)
    assert hp.sessions.balanced


def test_admission_never_oversubscribes_the_shared_pool():
    """With the broker's worker pool far larger than the lease capacity,
    dispatch must park the excess instead of tripping the synchronous
    lease-capacity error (the per-door caps alone cannot see each
    other's in-flight dispatches on the shared pool)."""
    spec = srq_spec(total_files=120, max_active=64)
    result = run_sched(spec)
    assert result.all_finished
    assert not result.leaks, result.leaks[:3]
    hp = next(iter(result.broker.doors.values())).link._host_pool
    assert result.broker.peak_active <= hp.sessions.capacity
    rejected = sum(
        row["value"] for row in result.testbed.engine.metrics.snapshot()
        if row["metric"] == "qp_pool.lease_rejected"
    )
    assert rejected == 0, "admission let a dispatch hit a full pool"


def test_deadline_cancel_returns_leases():
    """Deadline cancellation aborts ACTIVE sessions mid-flight; the
    abort path must return their channel leases like completion does
    (the quiescence audit now covers pool lease balance)."""
    spec = srq_spec(total_files=60, files_per_job=30)
    for job in spec["jobs"]:
        job["deadline"] = 0.5  # enough to go ACTIVE, not enough to finish
    result = run_sched(spec)
    canceled = sum(
        1 for job in result.broker.jobs for task in job.files
        if task.state.value == "CANCELED"
    )
    assert canceled > 0, "deadline never fired — test is vacuous"
    assert not result.leaks, result.leaks[:3]
    hp = next(iter(result.broker.doors.values())).link._host_pool
    assert hp.sessions.balanced, f"leaked {(hp.sessions.capacity - hp.sessions.available)} leases"


def test_quiescence_audit_flags_unreturned_lease():
    result = run_sched(srq_spec())
    assert not result.leaks
    link = next(iter(result.broker.doors.values())).link
    hp = link._host_pool
    hp.sessions.lease(("stuck", 1))
    leaks = quiescence_leaks(result)
    assert any("lease" in leak for leak in leaks), leaks
    hp.sessions.release(("stuck", 1))
    assert not quiescence_leaks(result)
    # A source block out of FREE and a sink block left READY: both named.
    src_blk = link.pool.try_get_free_blk().reserve()
    sink_engine = next(iter(result.server.middleware.sink_engines.values()))
    # Every sink block rests WAITING (advertised): land data in one.
    sink_blk = next(iter(sink_engine.pool.blocks.values()))
    sink_blk.finish(BlockHeader(1, 0, 0, 1))
    leaks = quiescence_leaks(result)
    assert any(f"source block {src_blk.block_id} stuck loading" in leak
               for leak in leaks), leaks
    assert any(f"sink block {sink_blk.block_id} stuck data_ready" in leak
               for leak in leaks), leaks
    src_blk.scrap()
    link.pool.put_free_blk(src_blk)
    sink_blk.consume()
    sink_blk.advertise()
    assert not quiescence_leaks(result)
    # Each broker-side check names its planted leak.
    broker = result.broker
    broker._parked[0] = (None, None)
    assert quiescence_leaks(result) == ["1 files still parked"]
    del broker._parked[0]
    broker._active += 1
    assert quiescence_leaks(result) == ["1 broker worker slots still active"]
    broker._active -= 1
    broker.table.outstanding += 1
    assert quiescence_leaks(result) == ["1 primary files still outstanding"]
    broker.table.outstanding -= 1
    name, tenant = sorted(broker._tenants.items())[0]
    tenant.parked += 1
    assert quiescence_leaks(result) == [
        f"tenant {name!r} not at baseline: queued=0 inflight=0 parked=1"]
    tenant.parked -= 1
    path, task = sorted(broker.table.dest_owner.items())[0]
    state, task.state = task.state, FileState.SUBMITTED
    assert quiescence_leaks(result) == [f"dest owner for {path!r} non-terminal (SUBMITTED)"]
    task.state = state
    assert not quiescence_leaks(result)
