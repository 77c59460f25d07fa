"""Integrity, selective block repair, and session resume, end to end.

The robustness matrix: every scenario must either complete byte-exact
(with the repair/resume machinery visibly exercised) or abort with a
typed error, and the middleware must leak nothing — including the new
restart-marker state, which must never outlive its session.

All scenarios run under the chaos harness with fixed seeds; crash and
flap instants are scheduled (not drawn), so the same plan replays the
same failure at the same simulated time.
"""

import pytest

from repro.core import ProtocolConfig
from repro.faults import FaultPlan, run_chaos

SEEDS = [0, 1]


def cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
    )
    base.update(over)
    return ProtocolConfig(**base)


def chaos(plan, total=16 << 20, **kw):
    over = {
        k: kw.pop(k)
        for k in list(kw)
        if k in ("num_channels", "block_repair")
    }
    return run_chaos(
        "roce-lan", total_bytes=total, plan=plan, config=cfg(**over), **kw
    )


# -- plan validation for the new fault classes --------------------------------------
def test_plan_validates_new_fault_fields():
    with pytest.raises(ValueError):
        FaultPlan(payload_corrupt_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(payload_corrupt_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(sink_crashes=(-1.0,))
    with pytest.raises(ValueError):
        FaultPlan(source_crashes=(-0.5,))
    with pytest.raises(ValueError):
        FaultPlan(qp_kills=((1.0, -1),))


# -- 1: corrupted blocks are detected and selectively re-sent -----------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_blocks_nacked_and_repaired_byte_exact(seed):
    r = chaos(FaultPlan(seed=seed, payload_corrupt_rate=0.05))
    assert r.completed and r.byte_exact
    assert r.checksum_mismatches > 0
    # Every detected mismatch was repaired by exactly one NACK re-send.
    assert r.repairs == r.checksum_mismatches
    assert r.markers_sent > 0
    assert r.resume_attempts_used == 0
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_repair_disabled_makes_corruption_a_typed_abort(seed):
    """Without BLOCK_NACK repair the same corruption must be fatal and
    typed — never silently delivered garbage."""
    r = chaos(
        FaultPlan(seed=seed, payload_corrupt_rate=0.08),
        block_repair=False,
    )
    assert not r.completed
    assert r.error is not None
    assert r.checksum_mismatches > 0
    assert r.repairs == 0
    assert r.leaks == ()
    assert r.clean


# -- 2: a link flap longer than the retry budget, survived by SESSION_RESUME --------
@pytest.mark.parametrize("seed", SEEDS)
def test_resume_after_flap_exceeding_retry_budget(seed):
    """A 30 s outage dwarfs the ~16 s control retry budget: the first
    incarnation must die with a typed error, and the resumed one must
    re-send only the suffix past the sink's restart marker."""
    total = 16 << 20
    r = chaos(
        FaultPlan(seed=seed, link_flaps=((0.002, 30.0),)),
        total=total,
        resume_attempts=3,
        resume_backoff=35.0,
        horizon=600.0,
    )
    assert r.completed and r.byte_exact
    assert r.resume_attempts_used >= 1
    assert r.resumed_from > 0
    # Strictly fewer bytes on the wire than a full restart would push.
    restart_floor = total + r.resumed_from * (256 * 1024)
    assert r.data_bytes_sent < restart_floor
    assert r.leaks == ()
    assert r.clean


# -- 3: sink crash with parked out-of-order blocks, then resume ---------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_resume_after_sink_crash_byte_exact(seed):
    """The sink dies mid-transfer with out-of-order blocks parked past
    the written prefix; the resumed session re-sends from the restart
    marker and the final file is still byte-exact (overlap allowed, but
    every duplicate must be identical)."""
    r = chaos(
        FaultPlan(seed=seed, sink_crashes=(0.0015,)),
        resume_attempts=3,
        resume_backoff=0.5,
        horizon=120.0,
    )
    assert r.sink_crashes_fired == 1
    assert r.completed and r.byte_exact
    assert r.resume_attempts_used >= 1
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_sink_crash_without_resume_is_a_typed_abort(seed):
    """No resume budget: the marker watchdog (or crash notification)
    must turn the wedged repair-hold into a typed abort, bounded by the
    retry budget — never a silent deadlock to the horizon."""
    r = chaos(
        FaultPlan(seed=seed, sink_crashes=(0.0015,)),
        horizon=120.0,
    )
    assert not r.completed
    assert r.error is not None
    assert r.sim_time < 60.0
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_resume_after_source_crash_byte_exact(seed):
    r = chaos(
        FaultPlan(seed=seed, source_crashes=(0.0015,)),
        resume_attempts=3,
        resume_backoff=0.5,
        horizon=120.0,
    )
    assert r.source_crashes_fired == 1
    assert r.completed and r.byte_exact
    assert r.resume_attempts_used >= 1
    assert r.leaks == ()
    assert r.clean


# -- 4: data-channel failover -------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_qp_kill_fails_over_to_surviving_channel(seed):
    """One of two data QPs dies mid-transfer: in-flight blocks are
    redistributed onto the survivor and the transfer completes without
    needing a session resume."""
    r = chaos(FaultPlan(seed=seed, qp_kills=((0.0015, 0),)))
    assert r.qp_kills_fired == 1
    assert r.completed and r.byte_exact
    assert r.resume_attempts_used == 0
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_combined_corruption_crash_and_resume(seed):
    """The kitchen sink: bit-rot plus a sink crash, survived by NACK
    repair plus SESSION_RESUME, still byte-exact and leak-free."""
    r = chaos(
        FaultPlan(seed=seed, payload_corrupt_rate=0.03, sink_crashes=(0.0015,)),
        resume_attempts=3,
        resume_backoff=0.5,
        horizon=120.0,
    )
    assert r.sink_crashes_fired == 1
    assert r.completed and r.byte_exact
    assert r.resume_attempts_used >= 1
    assert r.leaks == ()
    assert r.clean


def test_same_seed_replays_resume_run_identically():
    plan = FaultPlan(seed=7, payload_corrupt_rate=0.04, sink_crashes=(0.0015,))
    kw = dict(resume_attempts=3, resume_backoff=0.5, horizon=120.0)
    a, b = chaos(plan, **kw), chaos(plan, **kw)
    assert (
        a.checksum_mismatches,
        a.repairs,
        a.resumed_from,
        a.data_bytes_sent,
        a.sim_time,
    ) == (
        b.checksum_mismatches,
        b.repairs,
        b.resumed_from,
        b.data_bytes_sent,
        b.sim_time,
    )
