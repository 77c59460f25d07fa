"""Chaos suite: deterministic fault injection, end to end.

Every scenario must end in one of exactly two states:

- the transfer completes byte-exact with the recovery machinery visibly
  exercised (re-sends, control retries), or
- it aborts within the retry budgets with a *typed* error,

and in both cases the middleware must leak nothing — ``ChaosResult``
audits pool blocks, in-flight WRs, credit waiters, session tables, and
parked reassembly entries.  Runs are parametrized over fixed seeds; the
same seed must replay the exact same fault sequence.
"""

import pytest

from repro.core import ProtocolConfig
from repro.core.messages import CtrlType
from repro.faults import DEFAULT_DROPPABLE, FaultInjector, FaultPlan, run_chaos

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


def chaos(plan, total=16 << 20, **over):
    return run_chaos("roce-lan", total_bytes=total, plan=plan, config=cfg(**over))


# -- the plan itself ---------------------------------------------------------------
def test_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan(write_fault_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(ctrl_drop_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(link_flaps=((1.0, 0.0),))
    with pytest.raises(ValueError):
        FaultPlan(ctrl_delay_seconds=-1.0)


def test_injector_seams_draw_independent_streams():
    """Enabling the control seam must not perturb the data seam's draws."""
    data_only = FaultInjector(FaultPlan(seed=5, write_fault_rate=0.3))
    both = FaultInjector(
        FaultPlan(seed=5, write_fault_rate=0.3, ctrl_drop_rate=0.5)
    )
    decisions_a, decisions_b = [], []
    for i in range(50):
        decisions_a.append(data_only.data_qp_hook(None))
        # Interleave control draws on the second injector: the data
        # stream's sequence must be unaffected.
        both.ctrl_hook(
            type("M", (), {"type": CtrlType.SESSION_REQ, "session_id": 1})()
        )
        decisions_b.append(both.data_qp_hook(None))
    assert decisions_a == decisions_b
    assert any(decisions_a)


# -- completion under faults ---------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_write_faults_recovered_byte_exact(seed):
    r = chaos(FaultPlan(seed=seed, write_fault_rate=0.08))
    assert r.completed and r.byte_exact
    assert r.write_faults > 0
    assert r.resends == r.write_faults
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_ctrl_drops_recovered_byte_exact(seed):
    r = chaos(FaultPlan(seed=seed, ctrl_drop_rate=0.5))
    assert r.completed and r.byte_exact
    assert r.ctrl_drops > 0
    assert r.ctrl_retries > 0  # every drop costs a timed-out retry
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_link_flap_mid_transfer_recovered(seed):
    r = chaos(FaultPlan(seed=seed, link_flaps=((0.002, 0.005),)))
    assert r.completed and r.byte_exact
    assert r.flaps_fired == 1
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_combined_fault_classes_recovered(seed):
    r = chaos(
        FaultPlan(
            seed=seed,
            write_fault_rate=0.05,
            ctrl_drop_rate=0.2,
            ctrl_delay_rate=0.2,
            latency_spike_rate=0.02,
        )
    )
    assert r.completed and r.byte_exact
    assert r.leaks == ()
    assert r.clean


def test_same_seed_replays_identically():
    plan = FaultPlan(seed=3, write_fault_rate=0.08, ctrl_drop_rate=0.3)
    a, b = chaos(plan), chaos(plan)
    assert (a.resends, a.write_faults, a.ctrl_drops, a.ctrl_retries, a.sim_time) == (
        b.resends, b.write_faults, b.ctrl_drops, b.ctrl_retries, b.sim_time
    )


# -- typed aborts -------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_losing_every_dataset_done_aborts_with_ack_timeout(seed):
    """No DATASET_DONE ever arrives: the watchdog must abort with
    AckTimeout and the sink GC must reclaim the orphaned session."""
    r = chaos(
        FaultPlan(
            seed=seed, ctrl_drop_rate=1.0, ctrl_droppable=(CtrlType.DATASET_DONE,)
        ),
        total=4 << 20,
    )
    assert not r.completed
    assert r.error == "AckTimeout"
    assert r.sessions_reclaimed >= 1
    assert r.leaks == ()
    assert r.sim_time < 60.0  # bounded by the retry budget, not the horizon
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_losing_every_block_size_req_aborts_negotiation(seed):
    r = chaos(
        FaultPlan(
            seed=seed, ctrl_drop_rate=1.0, ctrl_droppable=(CtrlType.BLOCK_SIZE_REQ,)
        ),
        total=4 << 20,
    )
    assert not r.completed
    assert r.error == "NegotiationTimeout"
    assert r.leaks == ()
    assert r.sim_time < 60.0
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_losing_every_mr_info_req_aborts_with_starvation(seed):
    """On-demand credits + a black hole for MR_INFO_REQ: the sender must
    give up with CreditStarvation instead of waiting forever."""
    r = chaos(
        FaultPlan(
            seed=seed, ctrl_drop_rate=1.0, ctrl_droppable=(CtrlType.MR_INFO_REQ,)
        ),
        total=4 << 20,
        proactive_credits=False,
    )
    assert not r.completed
    assert r.error == "CreditStarvation"
    assert r.leaks == ()
    assert r.sim_time < 60.0
    assert r.clean


def test_default_droppable_excludes_unretransmitted_messages():
    """BLOCK_DONE and the sink's replies are sent exactly once — dropping
    them tests nothing the protocol claims to survive.  DATASET_DONE_ACK
    *is* droppable: the sink re-answers a retransmitted DATASET_DONE
    idempotently from its ack ledger."""
    assert CtrlType.BLOCK_DONE not in DEFAULT_DROPPABLE
    assert CtrlType.DATASET_DONE_ACK in DEFAULT_DROPPABLE
    assert CtrlType.MR_INFO_REP not in DEFAULT_DROPPABLE
    assert CtrlType.SESSION_REP not in DEFAULT_DROPPABLE
