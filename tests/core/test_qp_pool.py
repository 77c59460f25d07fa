"""Connection scaling: the per-host QP pool, SRQ receive path, and the
eager/rendezvous transport switch.

Covers the srq-mode seams end to end — eager SEND/RECV delivery,
rendezvous under the shared pool, concurrent sessions multiplexed over
one channel set — plus the lease accounting the scheduler's door caps
derive from: capacity rejection, abort-path lease return, and the
lease count under concurrent lease/release interleavings.
"""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.core.errors import TransferError
from repro.core.pool import ResourcePool
from repro.obs.registry import HistogramMetric
from repro.sim.engine import Engine
from repro.testbeds import TESTBEDS, roce_lan

BS = 256 * 1024


def cfg(**over):
    base = dict(
        block_size=BS,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
        reader_threads=1,
        writer_threads=1,
        use_srq=True,
        srq_depth=32,
        qp_pool_size=2,
        pool_sessions=8,
        eager_threshold=BS,  # block-sized payloads ride eager
    )
    base.update(over)
    return ProtocolConfig(**base)


def wire(tb, c):
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    return server, sink, client


def run_transfer(c, total):
    tb = roce_lan()
    server, sink, client = wire(tb, c)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), total)
    tb.engine.run()
    assert done.triggered and done.ok, getattr(done, "value", "deadlock")
    return tb, server, sink, client, done.value


def assert_delivery(sink, c, total):
    blocks = (total + c.block_size - 1) // c.block_size
    assert len(list(sink.rows())) == blocks
    assert [h.seq for h, _ in sink.rows()] == list(range(blocks))
    for h, payload in sink.rows():
        assert payload == ("blk", h.seq, h.length)
    assert sink.bytes_written == total


# -- ResourcePool accounting --------------------------------------------------

def test_resource_pool_lease_accounting():
    pool = ResourcePool(Engine(), capacity=2)
    a, b, c = object(), object(), object()
    assert pool.lease(a) and pool.lease(b)
    assert not pool.lease(a), "double lease by one owner must be refused"
    assert not pool.lease(c), "capacity exceeded"
    assert (pool.capacity - pool.available) == 2 and pool.available == 0
    assert not pool.release(c), "a refused owner holds no lease"
    assert pool.release(a)
    assert not pool.release(a), "release must be idempotent"
    assert pool.lease(c)
    with pytest.raises(ValueError, match="ResourcePool capacity must be >= 1"):
        ResourcePool(Engine(), capacity=0)
    assert pool.release(b) and pool.release(c)
    assert pool.balanced and (pool.capacity - pool.available) == 0


def test_pinned_fraction_under_concurrent_interleavings():
    """Many processes leasing and releasing concurrently, with
    deterministic but staggered hold times.  The lease count must stay
    within [0, capacity] at every sample, reach capacity under peak
    contention, and return to 0 (balanced) once the churn drains — with
    the counters agreeing on every transition."""
    engine = Engine()
    pool = ResourcePool(engine, capacity=4)
    samples = []
    granted = rejected = 0

    def session(i):
        nonlocal granted, rejected
        yield engine.timeout(i * 1e-4)
        owner = ("session", i)
        while not pool.lease(owner):
            rejected += 1
            samples.append(pool.capacity - pool.available)
            yield engine.timeout(3e-4)
        granted += 1
        samples.append(pool.capacity - pool.available)
        # Staggered hold times force lease/release interleavings that
        # overlap every phase of the other sessions' lifecycles.
        yield engine.timeout((1 + i % 5) * 2e-4)
        assert pool.release(owner)
        assert not pool.release(owner), "idempotence under interleaving"
        samples.append(pool.capacity - pool.available)

    for i in range(16):
        engine.process(session(i))
    engine.run()

    assert granted == 16, "every session must eventually get a lease"
    assert rejected > 0, "capacity 4 under 16 sessions must refuse some"
    assert all(0 <= n <= pool.capacity for n in samples)
    assert max(samples) == pool.capacity, "peak contention must fill the pool"
    assert pool.balanced and (pool.capacity - pool.available) == 0
    assert int(pool._m_leases.total) == 16
    assert int(pool._m_releases.total) == 16
    assert int(pool._m_rejected.total) == rejected


# -- transport paths over the shared pool -------------------------------------

def test_eager_transfer_end_to_end():
    c = cfg()
    tb = roce_lan()
    server, sink, client = wire(tb, c)
    ring = list(server._srq._queue)  # the pre-posted shared ring
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 16 * BS)
    tb.engine.run()
    assert done.triggered and done.ok, getattr(done, "value", "deadlock")
    assert_delivery(sink, c, 16 * BS)
    # Eager blocks ride SEND/RECV: no per-block BLOCK_DONE round trips,
    # and the sink's SRQ consumed one shared WQE per block.
    consumed = sum(
        row["value"] for row in tb.engine.metrics.snapshot()
        if row["metric"] == "srq.consumed"
    )
    assert consumed >= 16
    # Each consumed WQE was re-posted as the ring's own WR, by wr_id:
    # the dispatcher builds no RecvWR per block.
    reposted = sorted(server._srq._queue, key=lambda wr: wr.wr_id)
    assert len(ring) == len(reposted) == c.srq_depth
    assert all(a is b for a, b in zip(reposted, ring))
    hpool = next(iter(client._host_pools.values()))
    assert hpool.sessions.balanced


def test_rendezvous_under_pool_end_to_end():
    c = cfg(eager_threshold=0)  # pool on, eager off
    tb, server, sink, client, out = run_transfer(c, 16 * BS)
    assert_delivery(sink, c, 16 * BS)
    hpool = next(iter(client._host_pools.values()))
    assert hpool.sessions.balanced


def test_eager_partial_final_block():
    c = cfg()
    total = 3 * BS + 12345
    tb, server, sink, client, out = run_transfer(c, total)
    assert_delivery(sink, c, total)


def test_disabled_pool_leaves_dedicated_path(monkeypatch):
    c = cfg(use_srq=False)
    tb, server, sink, client, out = run_transfer(c, 8 * BS)
    assert_delivery(sink, c, 8 * BS)
    assert not client._host_pools, "no host pool without use_srq"
    assert server._srq is None
    # The one connection path's oracle: a dedicated link rides a private
    # set, so a shared set with one lease and eager off must time every
    # block exactly as it does (same elapsed time, final clock and
    # per-block latencies, observation by observation).
    latencies = []
    observe = HistogramMetric.observe

    def recording(metric, value):
        if metric.name == "source.block_latency_seconds":
            latencies.append(value)
        observe(metric, value)

    monkeypatch.setattr(HistogramMetric, "observe", recording)

    def timeline(testbed, fluid, c):
        latencies.clear()
        tb = TESTBEDS[testbed](seed=3)
        tb.engine.use_fluid = fluid
        server, sink, client = wire(tb, c)
        done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 64 * BS + 12345)
        tb.engine.run()
        assert done.ok and sink.bytes_written == 64 * BS + 12345
        return done.value.elapsed, tb.engine.now, list(latencies)

    for testbed in TESTBEDS:
        for fluid in (True, False):
            dedicated = timeline(testbed, fluid, c)
            assert len(dedicated[2]) == 65
            shared = timeline(testbed, fluid, cfg(pool_sessions=1, eager_threshold=0))
            assert shared == dedicated, (testbed, fluid)


def test_concurrent_sessions_share_one_pool():
    """Six sessions multiplexed over one 2-QP host pool: every byte
    delivered, wr_id routing never crosses sessions, leases balanced."""
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)

    def driver(env):
        link = yield link_ev
        evs = [
            client.transfer(
                tb.dst_dev, 4000, PatternSource(tb.src), 8 * BS, link=link
            )
            for _ in range(6)
        ]
        outs = []
        for ev in evs:
            outs.append((yield ev))
        return outs

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")
    assert sink.bytes_written == 6 * 8 * BS
    hpool = next(iter(client._host_pools.values()))
    assert len(client._host_pools) == 1
    assert hpool.sessions.balanced, f"leaked: {(hpool.sessions.capacity - hpool.sessions.available)}"


def test_reopened_channel_joins_every_rider():
    """A channel reopened through one link joins its set: on a shared set
    every rider's rotation carries blocks over it; a private set keeps it
    to its own link."""
    for use_srq in (True, False):
        tb = roce_lan()
        c = cfg(use_srq=use_srq, eager_threshold=0)
        server, sink, client = wire(tb, c)
        links = [client.open_link(tb.dst_dev, 4000) for _ in range(2)]

        def driver(env):
            a = yield links[0]
            b = yield links[1]
            qp = yield client.reopen_channel(a, tb.dst_dev, 4000)
            yield client.transfer(
                tb.dst_dev, 4000, PatternSource(tb.src), 12 * BS, link=b
            )
            return a, b, qp

        p = tb.engine.process(driver(tb.engine))
        tb.engine.run()
        assert p.triggered and p.ok, getattr(p, "value", "deadlock")
        a, b, qp = p.value
        assert_delivery(sink, c, 12 * BS)
        assert a._host_pool.qps[-1] is qp and a._host_pool.data.qps[-1] is qp
        assert (a._host_pool is b._host_pool) == use_srq
        assert (qp in b._host_pool.qps) == use_srq
        assert len(b._host_pool.data) == (
            c.qp_pool_size + 1 if use_srq else c.num_channels
        )
        assert (qp.bytes_sent.total > 0) == use_srq, use_srq


# -- lease lifecycle: capacity and abort paths --------------------------------

def test_lease_capacity_rejection_is_synchronous():
    tb = roce_lan()
    c = cfg(pool_sessions=2)
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)

    def driver(env):
        link = yield link_ev
        a = link.transfer(PatternSource(tb.src), 8 * BS, session_id=500)
        b = link.transfer(PatternSource(tb.src), 8 * BS, session_id=501)
        with pytest.raises(ValueError, match="lease capacity"):
            link.transfer(PatternSource(tb.src), 8 * BS, session_id=502)
        yield a
        yield b
        # Both leases returned: a third session now fits.
        assert link._host_pool.sessions.balanced
        yield link.transfer(PatternSource(tb.src), 8 * BS, session_id=502)

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")
    assert sink.bytes_written == 3 * 8 * BS


def test_rejected_session_leaves_no_metric_series():
    """A duplicate id or a full host pool is refused before the job is
    built, so the refusal registers none of a session's labelled series
    (and the full pool still counts its rejected lease)."""
    tb = roce_lan()
    c = cfg(pool_sessions=2)
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)

    def rejected(env):
        return sum(
            row["value"] for row in env.metrics.snapshot()
            if row["metric"] == "qp_pool.lease_rejected"
        )

    def driver(env):
        link = yield link_ev
        a = link.transfer(PatternSource(tb.src), 8 * BS, session_id=500)
        b = link.transfer(PatternSource(tb.src), 8 * BS, session_id=501)
        series = len(env.metrics)
        with pytest.raises(ValueError, match="lease capacity"):
            link.transfer(PatternSource(tb.src), 8 * BS, session_id=502)
        with pytest.raises(ValueError, match="already active"):
            link.transfer(PatternSource(tb.src), 8 * BS, session_id=500)
        assert len(env.metrics) == series
        assert rejected(env) == 1
        yield a
        yield b

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")


def test_abort_returns_lease():
    """Surgical teardown (the scheduler's cancel/deadline/watchdog path)
    must return the channel lease like normal completion does."""
    tb = roce_lan()
    c = cfg(eager_threshold=0, heartbeats=False)
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)

    def driver(env):
        link = yield link_ev
        ev = link.transfer(PatternSource(tb.src), 64 * BS, session_id=600)
        assert (link._host_pool.sessions.capacity - link._host_pool.sessions.available) == 1
        yield env.timeout(1e-3)
        assert link.abort_session(
            600, TransferError(600, "canceled by test")
        )
        assert link._host_pool.sessions.balanced, "abort leaked the lease"
        try:
            yield ev
        except TransferError:
            pass
        else:  # pragma: no cover - abort must fail the session
            raise AssertionError("aborted session resolved cleanly")

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")


def test_source_crash_returns_every_lease():
    tb = roce_lan()
    c = cfg(eager_threshold=0, heartbeats=False)
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)

    def driver(env):
        link = yield link_ev
        evs = [
            link.transfer(PatternSource(tb.src), 32 * BS, session_id=700 + i)
            for i in range(3)
        ]
        assert (link._host_pool.sessions.capacity - link._host_pool.sessions.available) == 3
        yield env.timeout(1e-3)
        link.crash()
        assert link._host_pool.sessions.balanced, "crash leaked leases"
        for ev in evs:
            try:
                yield ev
            except TransferError:
                pass

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")


def test_sink_crash_clears_the_eager_flag():
    """A pooled eager session live at a sink crash and never resumed must
    not stay flagged eager for ever (``crash()`` used to skip the flag):
    a later *rendezvous* SESSION_REQ reusing the id gets its credits."""
    from repro.core.messages import ControlMessage, CtrlType
    from repro.core.sink_engine import SessionState

    tb = roce_lan()
    c = cfg(session_idle_timeout=0.5, idle_rto_multiplier=4.0)
    server, sink, client = wire(tb, c)
    link_ev = client.open_link(tb.dst_dev, 4000)
    sid = 900

    def driver(env):
        link = yield link_ev
        se = server.sink_engines[link._client_id]
        ev = link.transfer(PatternSource(tb.src), 64 * BS, session_id=sid)
        yield env.timeout(4e-4)
        assert se.has_session(sid) and se._sessions.get(sid).eager  # mid-transfer
        se.crash()
        try:
            yield ev
        except TransferError:
            pass
        else:  # pragma: no cover - nothing acks the dataset any more
            raise AssertionError("session survived the sink crash")

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.triggered and p.ok, getattr(p, "value", "deadlock")
    se = next(iter(server.sink_engines.values()))
    assert se._sessions.get(sid).state is SessionState.CRASHED
    assert not se._sessions.get(sid).eager
    assert se.audit() == []

    sent = []
    se.ctrl.send = lambda th, msg: sent.append(msg) or iter(())
    tb.engine.process(
        se._dispatch(
            tb.dst.thread("test-peer", "app"),
            ControlMessage(CtrlType.SESSION_REQ, sid, (4 * BS, 2, False)),
        )
    )
    tb.engine.run()  # ... until the idle GC reclaims the hand-made session
    (rep,) = [m for m in sent if m.type is CtrlType.SESSION_REP]
    accepted, grant = rep.data
    assert accepted and len(grant) == c.initial_credits
    assert se.audit() == []
