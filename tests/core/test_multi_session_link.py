"""Multi-session links: many transfer jobs over one connection set
(§IV-C's global session identifiers)."""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.testbeds import roce_lan


def cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=12,
        sink_blocks=12,
    )
    base.update(over)
    return ProtocolConfig(**base)


def wire(tb, c):
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    return server, sink, client


def test_concurrent_sessions_share_one_link():
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    total = 8 << 20
    results = {}

    def driver(env):
        link = client.open_link(tb.dst_dev, 4000)
        link = yield link
        qps_after_link = len(tb.src_dev.qps)
        jobs = [
            link.transfer(PatternSource(tb.src), total, session_id=100 + i)
            for i in range(3)
        ]
        for ev in jobs:
            job = yield ev
            results[job.session_id] = job
        # No extra QPs were created for the 2nd and 3rd sessions.
        assert len(tb.src_dev.qps) == qps_after_link
        return link

    driver_proc = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert driver_proc.ok
    assert set(results) == {100, 101, 102}
    # Every session delivered fully and in order.
    blocks = total // c.block_size
    for sid in results:
        seqs = [h.seq for h, _ in sink.rows() if h.session_id == sid]
        assert seqs == list(range(blocks))
    assert sink.bytes_written == 3 * total
    # Sessions truly interleaved on the shared link (not serialised).
    order = [h.session_id for h, _ in sink.rows()]
    first_of = {sid: order.index(sid) for sid in results}
    last_of = {sid: len(order) - 1 - order[::-1].index(sid) for sid in results}
    overlaps = sum(
        1
        for a in results
        for b in results
        if a < b and first_of[b] < last_of[a]
    )
    assert overlaps >= 1


def test_sequential_sessions_reuse_link():
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    reg = tb.engine.metrics
    jobs, series = [], []

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        for sid in range(20):
            job = yield link.transfer(PatternSource(tb.src), 1 << 20, session_id=sid)
            assert job.completed_blocks == job.total_blocks == 4
            jobs.append(job)
            if sid in (0, 19):
                series.append(len(reg))
        return len(tb.src_dev.qps)

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok
    # ctrl + num_channels QPs, once.
    assert p.value == 1 + c.num_channels
    assert sink.bytes_written == 20 << 20
    # The registry does not grow with the sessions: one set of source
    # series per link, summing every session's own counts.
    assert series[0] == series[1]
    for name, attr in (("source.blocks_completed", "completed_blocks"),
                       ("source.block_resends", "resends"),
                       ("source.block_repairs", "repairs"),
                       ("source.ctrl_retries", "ctrl_retries"),
                       ("source.fallback_blocks", "fallback_blocks")):
        (metric,) = reg.family(name)
        assert metric.total == sum(getattr(job, attr) for job in jobs)
    (latency,) = reg.family("source.block_latency_seconds")
    assert latency.count == 20 * 4


def test_duplicate_session_id_rejected():
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        link.transfer(PatternSource(tb.src), 4 << 20, session_id=5)
        with pytest.raises(ValueError):
            link.transfer(PatternSource(tb.src), 4 << 20, session_id=5)
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value


def test_block_size_mismatch_rejected_within_one_channel():
    """A sink engine's pool is registered for one block size; a later
    session on the *same control channel* negotiating a different size
    must be refused (a fresh link gets a fresh engine and may differ)."""
    from repro.core.messages import ControlMessage, CtrlType

    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    first = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 4 << 20)
    tb.engine.run()
    assert first.ok

    engine = next(iter(server.sink_engines.values()))
    thread = tb.dst.thread("test-driver")

    session_id = first.value.session_id  # known to the client's link

    def drive(env):
        # Same size: accepted.  Different size: refused.
        for size in (c.block_size, 512 * 1024):
            msg = ControlMessage(CtrlType.BLOCK_SIZE_REQ, session_id, size)
            yield env.process(engine._dispatch(thread, msg))

    # Capture what the sink sends back.
    sent = []
    original = engine.ctrl.send

    def capture(th, msg):
        sent.append(msg)
        yield from original(th, msg)

    engine.ctrl.send = capture
    tb.engine.process(drive(tb.engine))
    tb.engine.run()
    verdicts = [m.data for m in sent if m.type is CtrlType.BLOCK_SIZE_REP]
    assert verdicts == [(True,), (False,)]


def test_shared_ledger_and_pool_across_sessions():
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    captured = {}

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        captured["link"] = link
        jobs = [
            link.transfer(PatternSource(tb.src), 8 << 20, session_id=200 + i)
            for i in range(2)
        ]
        for ev in jobs:
            yield ev

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok
    link = captured["link"]
    # One ledger served both sessions; the pool fully recycled.
    assert link.ledger.total_received.total > 0
    assert link.audit() == []


def test_reply_stores_are_built_on_first_use():
    """A session holds only its ``_loaded`` store until a reply type is
    first used — by the requester, or by the control thread when the
    reply gets there first (it must still be delivered)."""
    from repro.core.messages import ControlMessage, CtrlType
    from repro.core.source_link import TransferJob
    from repro.sim.resources import Store

    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)
    out = {}

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        job = TransferJob(link, 77, 1 << 20, PatternSource(tb.src))
        stores = [v for v in vars(job).values() if isinstance(v, Store)]
        assert stores == [job._loaded] and not job._replies
        link.jobs[77] = job
        link._start_shared_threads()  # what transfer() does at this point

        sink_eng = next(iter(server.sink_engines.values()))
        peer = sink_eng.host.thread("test-peer", "app")
        yield from sink_eng.ctrl.send(
            peer, ControlMessage(CtrlType.CHANNELS_REP, 77, "early")
        )
        yield env.timeout(1e-3)
        assert list(job._replies) == [CtrlType.CHANNELS_REP]

        # A type nobody waits for is still stray, and builds nothing.
        stray = link.stray_messages.total
        yield from sink_eng.ctrl.send(
            peer, ControlMessage(CtrlType.CHANNELS_REQ, 77, 2)
        )
        yield env.timeout(1e-3)
        assert link.stray_messages.total == stray + 1
        assert list(job._replies) == [CtrlType.CHANNELS_REP]

        asker = link.host.thread("test-asker", "app")
        reply = yield from link._request_reply(asker, job, CtrlType.CHANNELS_REQ, 2)
        out["reply"] = reply.data

    proc = tb.engine.process(driver(tb.engine))
    tb.engine.run(until=0.1)  # the hand-made job never ends: bound the run
    assert proc.ok
    assert out["reply"] == "early"
