"""Adaptive failure detection: RTT estimation, heartbeats, breakers.

The acceptance bar for the health layer is path-independence: the SAME
``ProtocolConfig`` must converge to order-microsecond control timeouts
on the InfiniBand LAN and order-100-ms timeouts on the 49 ms ANI WAN
(Table I of the paper), because a constant that suits one path is wrong
by three orders of magnitude on the other.
"""

import pytest

from repro.apps.io import NullSink, ZeroSource
from repro.core import (
    BreakerState,
    ChannelBreaker,
    ProtocolConfig,
    RdmaMiddleware,
    RttEstimator,
)
from repro.core.health import (
    BACKOFF_FACTOR,
    CTRL_TIMEOUT,
    CTRL_TIMEOUT_MAX,
    CTRL_TIMEOUT_MIN,
    HealthMonitor,
)
from repro.core.messages import CtrlType
from repro.faults import FaultInjector, FaultPlan, run_chaos
from repro.testbeds import TESTBEDS

SEEDS = [0, 1]


# -- the estimator ------------------------------------------------------------------
def test_estimator_first_sample_seeds_srtt_and_rttvar():
    est = RttEstimator(initial=0.25, floor=1e-6, ceiling=8.0)
    assert est.rto == 0.25  # pre-sample: exactly the static behaviour
    est.observe(0.010)
    assert est.srtt == pytest.approx(0.010)
    assert est.rttvar == pytest.approx(0.005)
    assert est.rto == pytest.approx(0.010 + 4 * 0.005)


def test_estimator_converges_toward_steady_samples():
    est = RttEstimator(initial=0.25, floor=1e-6, ceiling=8.0)
    for _ in range(64):
        est.observe(0.001)
    # RTTVAR decays geometrically on constant samples: RTO -> SRTT.
    assert est.rto == pytest.approx(0.001, rel=0.05)


def test_estimator_clamps_to_floor_and_ceiling():
    est = RttEstimator(initial=0.001, floor=100e-6, ceiling=0.5)
    for _ in range(64):
        est.observe(1e-6)  # far below the floor
    assert est.rto == 100e-6
    for _ in range(64):
        est.observe(10.0)  # far above the ceiling
    assert est.rto == 0.5


def test_estimator_ignores_negative_samples():
    est = RttEstimator(initial=0.25, floor=1e-6, ceiling=8.0)
    est.observe(-1.0)
    assert est.samples == 0 and est.srtt is None


def test_estimator_rejects_inconsistent_bounds():
    with pytest.raises(ValueError):
        RttEstimator(initial=0.1, floor=0.2, ceiling=8.0)
    with pytest.raises(ValueError):
        RttEstimator(initial=10.0, floor=0.1, ceiling=8.0)


# -- derived timeouts ---------------------------------------------------------------
class _FakeEngine:
    def __init__(self):
        self.now = 0.0


def test_request_timeout_backoff_is_capped():
    """The retry ladder must flatten at CTRL_TIMEOUT_MAX instead of
    doubling without bound."""
    cfg = ProtocolConfig()
    mon = HealthMonitor(_FakeEngine(), cfg)
    ladder = [mon.request_timeout(a) for a in range(12)]
    assert all(t <= CTRL_TIMEOUT_MAX for t in ladder)
    assert ladder[-1] == CTRL_TIMEOUT_MAX  # saturates, stays finite
    assert all(b >= a for a, b in zip(ladder, ladder[1:]))


def test_sharp_estimate_cannot_shrink_total_retry_patience():
    """Karn-fed microsecond RTO must not gut the static ladder: a reply
    delayed by a queueing spike still has the configured budget to land."""
    cfg = ProtocolConfig()
    mon = HealthMonitor(_FakeEngine(), cfg)
    for _ in range(64):
        mon.rtt.observe(CTRL_TIMEOUT_MIN)
    assert mon.request_timeout(0) < CTRL_TIMEOUT  # fast first retry
    for attempt in range(1, 6):
        floor = CTRL_TIMEOUT * BACKOFF_FACTOR ** (attempt - 1)
        assert mon.request_timeout(attempt) >= min(floor, CTRL_TIMEOUT_MAX)


def test_patience_timeout_only_adapts_upwards():
    cfg = ProtocolConfig()
    mon = HealthMonitor(_FakeEngine(), cfg)
    for _ in range(64):
        mon.rtt.observe(CTRL_TIMEOUT_MIN)
    assert mon.patience_timeout(0) == CTRL_TIMEOUT
    for _ in range(64):
        mon.rtt.observe(2.0)  # a slow path makes patience grow
    assert mon.patience_timeout(0) > CTRL_TIMEOUT


def test_heartbeat_interval_clamped_to_band():
    cfg = ProtocolConfig()
    mon = HealthMonitor(_FakeEngine(), cfg)
    for _ in range(64):
        mon.rtt.observe(CTRL_TIMEOUT_MIN)
    assert mon.heartbeat_interval() == cfg.heartbeat_interval_min
    for _ in range(64):
        mon.rtt.observe(5.0)
    assert mon.heartbeat_interval() == cfg.heartbeat_interval_max


def _converged_monitor(sample=0.049):
    eng = _FakeEngine()
    mon = HealthMonitor(eng, ProtocolConfig())
    for _ in range(64):
        mon.rtt.observe(sample)
    return eng, mon


def test_without_an_expiry_the_first_attempt_is_the_rto_exactly():
    _, mon = _converged_monitor()
    assert mon.rtt.backoff == 1.0
    assert mon.request_timeout(0) == mon.rtt.rto


def test_a_first_attempt_expiry_doubles_the_next_first_timeout():
    """Karn's algorithm, second half: the timeout that expired is kept
    (backed off) for the next request instead of the un-backed-off RTO."""
    _, mon = _converged_monitor()
    rto = mon.rtt.rto
    mon.rtt.expired(mon.rtt.level, BACKOFF_FACTOR)
    assert mon.request_timeout(0) == pytest.approx(rto * BACKOFF_FACTOR)
    mon.rtt.expired(mon.rtt.level, BACKOFF_FACTOR)
    assert mon.request_timeout(0) == pytest.approx(rto * BACKOFF_FACTOR ** 2)
    assert mon.rtt.rto == rto  # the estimate (and its gauge) is untouched
    # The retry ladder for attempts >= 1 and the patience paths do not
    # take the factor.
    _, fresh = _converged_monitor()
    for attempt in range(1, 6):
        assert mon.request_timeout(attempt) == fresh.request_timeout(attempt)
        assert mon.patience_timeout(attempt) == fresh.patience_timeout(attempt)


def test_concurrent_expiries_from_one_level_back_off_once():
    _, mon = _converged_monitor()
    rto, level = mon.rtt.rto, mon.rtt.level
    for _ in range(32):  # 32 requests sent at one level, all expiring
        mon.rtt.expired(level, BACKOFF_FACTOR)
    assert mon.request_timeout(0) == pytest.approx(rto * BACKOFF_FACTOR)


def test_backoff_is_capped_at_ctrl_timeout_max():
    _, mon = _converged_monitor()
    for _ in range(40):
        mon.rtt.expired(mon.rtt.level, BACKOFF_FACTOR)
    assert mon.request_timeout(0) == CTRL_TIMEOUT_MAX
    # It stopped growing at the cap instead of escalating 40 times.
    assert mon.rtt.backoff < BACKOFF_FACTOR * CTRL_TIMEOUT_MAX / mon.rtt.rto
    assert mon.rtt.level < 40


def test_a_reply_sample_and_a_pong_each_reset_the_backoff():
    eng, mon = _converged_monitor()
    mon.rtt.expired(mon.rtt.level, BACKOFF_FACTOR)
    mon.rtt.observe(0.049)  # a first-attempt reply
    assert mon.rtt.backoff == 1.0 and mon.rtt.level == 0
    assert mon.request_timeout(0) == mon.rtt.rto

    mon.rtt.expired(mon.rtt.level, BACKOFF_FACTOR)
    nonce = mon.next_ping()
    eng.now += 0.049
    mon.on_pong(nonce)
    assert mon.rtt.backoff == 1.0 and mon.rtt.level == 0
    assert mon.request_timeout(0) == mon.rtt.rto


def test_pooled_small_files_rarely_retransmit_session_requests():
    """Regression: the 400-file pooled mix of ``sessions_per_host`` on the
    WAN.  Loaded SESSION_REPs (up to ~85 ms against a 49.04 ms RTO) used
    to expire the first attempt of 282 requests; with the backed-off RTO
    kept across requests about 49 do."""
    from repro.sched import run_sched, synthetic_spec

    files = 400
    result = run_sched(
        synthetic_spec(seed=0, total_files=files, doors=2, max_active=64),
        config=ProtocolConfig(use_srq=True, eager_threshold=4 << 20,
                              srq_depth=24),
    )
    assert result.all_finished and not result.leaks
    metrics = result.testbed.engine.metrics
    retries = sum(m.count for m in metrics.family("source.ctrl_retries"))
    assert retries <= 0.2 * files


def test_pong_rtt_sampling_follows_karns_rule():
    eng = _FakeEngine()
    mon = HealthMonitor(eng, ProtocolConfig())
    nonce = mon.next_ping()
    eng.now = 0.020
    mon.on_pong(nonce - 1)  # stale nonce: ignored
    assert mon.rtt.samples == 0
    nonce = mon.next_ping()
    eng.now = 0.040
    mon.on_pong(nonce)
    assert mon.rtt.samples == 1
    assert mon.rtt.srtt == pytest.approx(0.020)


# -- config validation --------------------------------------------------------------
def test_config_rejects_inconsistent_health_knobs():
    with pytest.raises(ValueError):
        ProtocolConfig(heartbeat_interval_min=5.0, heartbeat_interval_max=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(heartbeat_misses=0)
    with pytest.raises(ValueError):
        ProtocolConfig(breaker_failures=0)


# -- the circuit breaker ------------------------------------------------------------
def test_breaker_trips_after_consecutive_failures_only():
    br = ChannelBreaker(qp_num=7, failures=3, cooldown_fn=lambda: 1.0)
    assert not br.record_failure(now=0.0)
    br.record_success()  # success resets the consecutive count
    assert not br.record_failure(now=0.0)
    assert not br.record_failure(now=0.0)
    assert br.record_failure(now=0.0)  # third consecutive: trips
    assert br.state is BreakerState.OPEN
    assert br.trips == 1
    assert not br.peek_admit(now=0.5)  # quarantined during cooldown
    assert br.peek_admit(now=1.5)  # cooldown elapsed: probe-able


def test_breaker_half_open_admits_single_probe():
    br = ChannelBreaker(qp_num=7, failures=1, cooldown_fn=lambda: 1.0)
    br.record_failure(now=0.0)
    br.note_post(now=2.0)  # OPEN -> HALF_OPEN, probe in flight
    assert br.state is BreakerState.HALF_OPEN
    assert br.probes == 1
    assert not br.peek_admit(now=2.0)  # one probe at a time
    br.record_success()
    assert br.state is BreakerState.CLOSED
    assert br.peek_admit(now=2.0)


def test_breaker_failed_probe_reopens_for_another_cooldown():
    br = ChannelBreaker(qp_num=7, failures=1, cooldown_fn=lambda: 1.0)
    br.record_failure(now=0.0)
    br.note_post(now=2.0)
    assert br.record_failure(now=2.0)  # probe lost: re-trip
    assert br.state is BreakerState.OPEN
    assert br.open_until == pytest.approx(3.0)
    assert br.trips == 2


# -- acceptance: one config, two paths ---------------------------------------------
def _converged_health(testbed_name, total_bytes):
    tb = TESTBEDS[testbed_name]()
    cfg = ProtocolConfig()  # identical config on both paths
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, NullSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    holder = {}

    def _run():
        link = yield client.open_link(tb.dst_dev, 4000)
        holder["health"] = link.health
        yield client.transfer(
            tb.dst_dev, 4000, ZeroSource(tb.src), total_bytes, link=link
        )

    done = tb.engine.process(_run())
    tb.engine.run()
    assert done.triggered and done.ok
    return holder["health"]


def test_rto_converges_per_path_from_one_config():
    """Same config: order-µs timeouts on the IB LAN, order-100 ms on the
    49 ms WAN — the acceptance criterion for the estimator."""
    lan = _converged_health("infiniband-lan", 16 << 20)
    wan = _converged_health("ani-wan", 64 << 20)
    assert lan.rtt.samples > 0 and wan.rtt.samples > 0
    assert lan.rtt.rto < 1e-3  # sub-millisecond on a 13 µs path
    assert 0.045 < wan.rtt.rto < 1.0  # dominated by the 49 ms RTT
    assert wan.rtt.rto / lan.rtt.rto > 50.0
    # Synchronous first-attempt timeouts inherit the split; patience
    # paths never dip below the configured base on either path.
    assert lan.request_timeout(0) < 1e-3
    assert wan.request_timeout(0) > 0.045
    assert lan.patience_timeout(0) >= CTRL_TIMEOUT


# -- heartbeats end to end ----------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_long_outage_detected_as_peer_dead(seed):
    """A 10 s blackout: the heartbeat thread must declare PeerDead long
    before the ~16 s control-retry budget would.  The first heartbeat
    check lands at the pre-convergence 2 s clamp (no RTT samples when
    the thread starts); after it, the converged LAN cadence (50 ms)
    burns the miss budget in ~0.2 s."""
    r = run_chaos(
        "roce-lan",
        total_bytes=16 << 20,
        plan=FaultPlan(seed=seed, link_flaps=((0.002, 10.0),)),
        config=ProtocolConfig(
            block_size=256 * 1024, num_channels=2,
            source_blocks=8, sink_blocks=8,
        ),
        horizon=120.0,
    )
    assert not r.completed
    assert r.error == "PeerDead"
    assert r.sim_time < 5.0  # far inside the static retry budget
    assert r.leaks == ()
    assert r.clean


@pytest.mark.parametrize("seed", SEEDS)
def test_heartbeat_drop_seam_counts_and_kills(seed):
    """With every PING/PONG eaten by the injector during the outage the
    abort decision is unchanged, and the drops are visible in the
    result."""
    r = run_chaos(
        "roce-lan",
        total_bytes=16 << 20,
        plan=FaultPlan(
            seed=seed, link_flaps=((0.002, 10.0),), heartbeat_drop_rate=1.0
        ),
        config=ProtocolConfig(
            block_size=256 * 1024, num_channels=2,
            source_blocks=8, sink_blocks=8,
        ),
        horizon=120.0,
    )
    assert not r.completed
    assert r.error == "PeerDead"
    assert r.heartbeat_drops > 0
    assert r.leaks == ()
    assert r.clean


def test_heartbeat_seam_is_independent_of_data_seam():
    """Enabling heartbeat drops must not perturb the data seam's draws —
    same per-seam stream discipline as the other fault classes."""
    data_only = FaultInjector(FaultPlan(seed=5, write_fault_rate=0.3))
    both = FaultInjector(
        FaultPlan(seed=5, write_fault_rate=0.3, heartbeat_drop_rate=0.9)
    )
    decisions_a, decisions_b = [], []
    for _ in range(50):
        decisions_a.append(data_only.data_qp_hook(None))
        both.ctrl_hook(
            type("M", (), {"type": CtrlType.PING, "session_id": 0, "data": 1})()
        )
        decisions_b.append(both.data_qp_hook(None))
    assert decisions_a == decisions_b
    assert any(decisions_a)


def test_plan_validates_heartbeat_drop_rate():
    with pytest.raises(ValueError):
        FaultPlan(heartbeat_drop_rate=1.5)
