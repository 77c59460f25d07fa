"""Concurrent sessions, the credit ramp, and end-to-end property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.sim.trace import Tracer
from repro.testbeds import ani_wan, roce_lan


def traced_ani_wan():
    """``ani_wan`` with a tracer keeping the credit ledger's rows."""
    tb = ani_wan()
    tb.engine.tracer = Tracer(categories={"credits"})
    return tb


def received_history(tb):
    """(time, cumulative credits received) per deposit, off the
    ``credits/deposit`` trace rows."""
    return [(r.time, r.fields["total"]) for r in tb.engine.tracer.query("credits")
            if r.message == "deposit"]


def cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
    )
    base.update(over)
    return ProtocolConfig(**base)


# -- concurrent clients --------------------------------------------------------------
def test_two_concurrent_clients_one_server():
    tb = roce_lan()
    c = cfg()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)

    clients = [RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c) for _ in range(2)]
    total = 16 << 20
    dones = [
        cl.transfer(tb.dst_dev, 4000, PatternSource(tb.src), total)
        for cl in clients
    ]
    tb.engine.run()
    outcomes = [d.value for d in dones]
    session_ids = {o.session_id for o in outcomes}
    assert len(session_ids) == 2
    assert all(o.bytes == total for o in outcomes)
    assert sink.bytes_written == 2 * total
    # Per-session in-order delivery despite interleaved arrivals.
    for sid in session_ids:
        seqs = [h.seq for h, _ in sink.rows() if h.session_id == sid]
        assert seqs == sorted(seqs) == list(range(len(seqs)))


def test_concurrent_transfers_share_bandwidth_fairly():
    tb = roce_lan()
    c = cfg(block_size=1 << 20, source_blocks=16, sink_blocks=16)
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    server.serve(4000, CollectingSink(tb.dst))
    total = 128 << 20
    dones = []
    for _ in range(2):
        client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
        dones.append(client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), total))
    tb.engine.run()
    rates = [d.value.gbps for d in dones]
    # Both complete; combined they cannot exceed the wire.
    assert all(r > 5.0 for r in rates)
    assert sum(rates) < 41.0 * 2  # each's average includes overlap


# -- credit ramp -----------------------------------------------------------------------
def test_credit_ramp_is_exponential_on_wan():
    """§IV-C: 'an exponential increase in the number of available remote
    MR in the data source at the beginning of a data transfer session...
    similar to the slow start of TCP'."""
    tb = traced_ani_wan()
    c = ProtocolConfig(
        block_size=4 << 20,
        num_channels=2,
        source_blocks=32,
        sink_blocks=32,
        initial_credits=2,
        credit_grant_ratio=2,
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 2 << 30)
    tb.engine.run()
    assert done.ok
    history = received_history(tb)
    t0 = history[0][0]
    rtt = tb.rtt

    def received_by(t):
        vals = [total for ts, total in history if ts <= t]
        return vals[-1] if vals else 0

    # Within ~6 RTTs the cumulative credits must have grown far beyond a
    # linear 1-per-RTT dribble (exponential ramp fills the BDP fast).
    after_6_rtt = received_by(t0 + 6.2 * rtt)
    assert after_6_rtt >= 16, f"ramp too slow: {after_6_rtt} credits in 6 RTT"
    # And the ramp accelerates: later RTT windows deliver more than the
    # first ones.
    first_window = received_by(t0 + 2.2 * rtt)
    assert after_6_rtt > 2 * first_window


def test_x2_ramp_accumulates_credits_faster_than_x1():
    """The grant ratio shapes the *startup* ramp: compare cumulative
    credits received in the first few RTTs (steady state converges to
    block-recycling for both policies)."""

    def credits_after(ratio, rtts=5.2):
        tb = traced_ani_wan()
        c = ProtocolConfig(
            block_size=4 << 20,
            num_channels=2,
            source_blocks=32,
            sink_blocks=32,
            credit_grant_ratio=ratio,
        )
        server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
        server.serve(4000, CollectingSink(tb.dst))
        client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
        client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 2 << 30)
        tb.engine.run()
        history = received_history(tb)
        t0 = history[0][0]
        cutoff = t0 + rtts * tb.rtt
        received = [total for ts, total in history if ts <= cutoff]
        return received[-1] if received else 0

    assert credits_after(2) > 1.4 * credits_after(1)


# -- hypothesis: protocol correctness across configurations ------------------------------
@settings(max_examples=12, deadline=None)
@given(
    block_kib=st.sampled_from([64, 256, 1024]),
    channels=st.integers(min_value=1, max_value=4),
    pool=st.integers(min_value=2, max_value=12),
    extra_bytes=st.integers(min_value=0, max_value=4095),
)
def test_transfer_correct_for_any_configuration(block_kib, channels, pool, extra_bytes):
    """For any (block size, channel count, pool size, ragged tail): every
    byte arrives, in order, exactly once, with zero RNR NAKs."""
    tb = roce_lan()
    c = ProtocolConfig(
        block_size=block_kib << 10,
        num_channels=channels,
        source_blocks=pool,
        sink_blocks=pool,
        initial_credits=min(2, pool),
        reader_threads=1,
        writer_threads=1,
    )
    total = (block_kib << 10) * 5 + extra_bytes
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), total)
    tb.engine.run()
    assert done.triggered and done.ok
    outcome = done.value
    assert sink.bytes_written == total
    assert [h.seq for h, _ in sink.rows()] == list(range(outcome.blocks))
    assert outcome.rnr_naks == 0
