"""Congestion-control algorithms: unit behaviour + hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import Bic, Cubic, HTcp, Reno, make_congestion_control
from repro.tcp.congestion import INITIAL_CWND_SEGMENTS

MSS = 8948
RTT = 0.05


def drive_rounds(cc, rounds, now=0.0, rtt=RTT, lose_at=()):
    """Advance a CC through full-window acked rounds; returns cwnd trace."""
    trace = []
    for i in range(rounds):
        now += rtt
        if i in lose_at:
            cc.on_loss(now)
        else:
            cc.on_round_acked(cc.cwnd_bytes, now, rtt)
        trace.append(cc.cwnd_seg)
    return trace


# -- factory -----------------------------------------------------------------
def test_factory_known_algorithms():
    for name, cls in (("reno", Reno), ("cubic", Cubic), ("bic", Bic), ("htcp", HTcp)):
        cc = make_congestion_control(name, mss=MSS)
        assert isinstance(cc, cls)
        assert cc.mss == MSS


def test_factory_unknown_rejected():
    with pytest.raises(ValueError):
        make_congestion_control("vegas")
    with pytest.raises(ValueError, match="MSS must be positive"):
        make_congestion_control("reno", mss=0)
    with pytest.raises(ValueError, match="acked bytes must be non-negative"):
        make_congestion_control("reno", mss=MSS).on_round_acked(-1, now=0.0, rtt=0.01)


def test_initial_window():
    assert Reno().cwnd_seg == INITIAL_CWND_SEGMENTS


# -- slow start -------------------------------------------------------------------
@pytest.mark.parametrize("cls", [Reno, Cubic, Bic, HTcp])
def test_slow_start_doubles_per_round(cls):
    cc = cls(mss=MSS)
    w0 = cc.cwnd_seg
    cc.on_round_acked(cc.cwnd_bytes, 0.05, RTT)
    assert cc.cwnd_seg == pytest.approx(2 * w0)


@pytest.mark.parametrize("cls", [Reno, Cubic, Bic, HTcp])
def test_loss_ends_slow_start(cls):
    cc = cls(mss=MSS)
    drive_rounds(cc, 5)
    cc.on_loss(1.0)
    assert not cc.in_slow_start
    assert cc.ssthresh_seg < float("inf")


# -- Reno --------------------------------------------------------------------------
def test_reno_additive_increase():
    cc = Reno(mss=MSS)
    cc.ssthresh_seg = 10.0
    cc.cwnd_seg = 10.0
    cc.on_round_acked(cc.cwnd_bytes, 1.0, RTT)
    assert cc.cwnd_seg == pytest.approx(11.0)


def test_reno_halves_on_loss():
    cc = Reno(mss=MSS)
    cc.cwnd_seg = 100.0
    cc.ssthresh_seg = 50.0
    cc.on_loss(1.0)
    assert cc.cwnd_seg == pytest.approx(50.0)


# -- CUBIC ------------------------------------------------------------------------
def test_cubic_backoff_factor():
    cc = Cubic(mss=MSS)
    cc.cwnd_seg = 1000.0
    cc.ssthresh_seg = 500.0
    cc.on_loss(10.0)
    assert cc.cwnd_seg == pytest.approx(700.0)
    assert cc.w_max == pytest.approx(1000.0)
    # A window above the epoch's cubic target (700 at its start) only
    # creeps: 1 % of a segment per window acked.
    cc.cwnd_seg = 800.0
    cc.on_round_acked(800.0 * MSS, now=10.0, rtt=0.0)
    assert cc.cwnd_seg == pytest.approx(800.01)


def test_cubic_plateaus_near_wmax_then_probes():
    """The defining cubic shape: slow near W_max, fast far from it."""
    cc = Cubic(mss=MSS)
    cc.ssthresh_seg = 0.0  # force congestion avoidance
    cc.cwnd_seg = 1000.0
    cc.on_loss(0.0)
    trace = drive_rounds(cc, 400, now=0.0)
    w = cc.w_max
    # Growth rate near w_max is smaller than far beyond it.
    near = [b - a for a, b in zip(trace, trace[1:]) if 0.95 * w < b < 1.05 * w]
    far = [b - a for a, b in zip(trace, trace[1:]) if b > 1.3 * w]
    assert near and far
    assert max(near) < max(far)


def test_cubic_recovers_to_wmax():
    cc = Cubic(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 1000.0
    cc.on_loss(0.0)
    drive_rounds(cc, 1000)
    assert cc.cwnd_seg > 1000.0


# -- BIC ----------------------------------------------------------------------------
def test_bic_binary_search_converges_to_wmax():
    cc = Bic(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 1000.0
    cc.on_loss(0.0)  # w_max = 1000, cwnd = 800
    assert cc.cwnd_seg == pytest.approx(800.0)
    trace = drive_rounds(cc, 50)
    assert trace[-1] >= 999.0


def test_bic_increment_capped_by_smax():
    cc = Bic(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 100.0
    cc.w_max = 10_000.0
    before = cc.cwnd_seg
    cc.on_round_acked(cc.cwnd_bytes, 1.0, RTT)
    assert cc.cwnd_seg - before <= Bic.S_MAX + 1e-9


def test_bic_fast_convergence_lowers_wmax():
    cc = Bic(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 500.0
    cc.w_max = 1000.0  # still climbing back when hit again
    cc.on_loss(1.0)
    assert cc.w_max < 500.0 * (2 - Bic.BETA) / 2 + 1e-9


# -- H-TCP ------------------------------------------------------------------------
def test_htcp_alpha_grows_with_time_since_loss():
    cc = HTcp(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 100.0
    cc.on_loss(0.0)
    w = cc.cwnd_seg
    early = drive_rounds(cc, 10, now=0.0)  # within Delta_L
    early_growth = early[-1] - w
    late = drive_rounds(cc, 10, now=10.0)
    late_growth = late[-1] - early[-1]
    assert late_growth > early_growth * 2


def test_htcp_beta_adapts_to_rtt_ratio():
    cc = HTcp(mss=MSS)
    cc.ssthresh_seg = 0.0
    cc.cwnd_seg = 100.0
    cc._observe_rtt(0.04)
    cc._observe_rtt(0.08)
    cc.on_loss(1.0)
    assert cc.beta == pytest.approx(0.5)
    assert cc.cwnd_seg == pytest.approx(50.0)


# -- hypothesis invariants ------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["reno", "cubic", "bic", "htcp"]),
    events=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_cwnd_stays_positive_and_losses_shrink(name, events):
    cc = make_congestion_control(name, mss=MSS)
    now = 0.0
    for is_loss in events:
        now += RTT
        before = cc.cwnd_seg
        if is_loss:
            cc.on_loss(now)
            assert cc.cwnd_seg <= max(before, 2.0) + 1e-9
        else:
            cc.on_round_acked(cc.cwnd_bytes, now, RTT)
        assert cc.cwnd_seg >= 1.0  # never collapses to nothing
        assert cc.cwnd_bytes > 0


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["reno", "cubic", "bic", "htcp"]))
def test_acked_rounds_never_shrink_window(name):
    cc = make_congestion_control(name, mss=MSS)
    now = 0.0
    for _ in range(100):
        now += RTT
        before = cc.cwnd_seg
        cc.on_round_acked(cc.cwnd_bytes, now, RTT)
        assert cc.cwnd_seg >= before - 1e-9
