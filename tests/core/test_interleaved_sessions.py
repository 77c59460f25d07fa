"""Broker-adjacent seams: several interleaved sessions per peer.

Covers the cross-session accounting audited for the scheduler work: a
resume next to a lingering dead sibling must revoke *every* stale
WAITING block (not just when it is the only session), and the sink's
per-session bookkeeping must stay bounded on long-lived links that
carry thousands of short sessions.
"""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.testbeds import roce_lan

BS = 256 * 1024


def cfg(**over):
    base = dict(
        block_size=BS,
        num_channels=2,
        source_blocks=12,
        sink_blocks=12,
        heartbeats=False,
        session_idle_timeout=0.5,
        idle_rto_multiplier=4.0,
    )
    base.update(over)
    return ProtocolConfig(**base)


def wire(tb, c):
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    return server, sink, client


def test_resume_next_to_lingering_dead_sibling_leaks_nothing():
    """Two sessions die together when the source crashes; one resumes
    while the other still sits in the sink's session table awaiting GC.
    The resume flushes the shared credit ledger, so every WAITING block
    at the sink is stale — including the sibling's.  Pre-fix, blocks were
    only revoked when the resuming session was *alone*, leaking the
    sibling's parked blocks until the pool starved."""
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        se = server.sink_engines[link._client_id]
        evs = [
            link.transfer(PatternSource(tb.src), 8 * BS, session_id=100),
            link.transfer(PatternSource(tb.src), 8 * BS, session_id=101),
        ]
        yield env.timeout(5e-4)
        link.crash()
        for ev in evs:
            ev.defuse()
        yield env.timeout(0.01)
        # Precondition: the sibling is still on the sink's books.
        assert se.has_session(101)
        res = yield link.resume(PatternSource(tb.src), 8 * BS, 100)
        assert res.start_seq < 8  # re-attached, suffix re-sent
        seqs = sorted({h.seq for h, _ in sink.rows()
                       if h.session_id == 100})
        assert seqs == list(range(8))
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value
    se = next(iter(server.sink_engines.values()))
    # The dead sibling was GC-reclaimed and nothing pins the pool.
    assert se._live == 0
    assert se.sessions_reclaimed.total >= 1
    assert len(se.pool.free) == len(se.pool.blocks)


def _assert_history_bounded(ending):
    tb = roce_lan()
    c = cfg(sink_session_history=2)
    server, sink, client = wire(tb, c)
    sessions = 6

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        se = server.sink_engines[link._client_id]
        for i in range(sessions):
            if ending == "finish":
                yield client.transfer(
                    tb.dst_dev, 4000, PatternSource(tb.src), 4 * BS, link=link
                )
                continue
            ev = link.transfer(PatternSource(tb.src), 8 * BS, session_id=500 + i)
            yield env.timeout(4e-4)
            assert se.has_session(500 + i)  # dies mid-transfer, not after
            link.crash()  # abort at the source
            ev.defuse()
            if ending == "sink_crash":
                se.crash()
            yield env.timeout(3.0)  # past session_idle_timeout
            assert not se.has_session(500 + i)
            # WRITEs in flight at the abort refunded their credits, and the
            # sink has since revoked those regions; a successor spending
            # them is ROADMAP's parked crash x fault bug (see
            # test_session_sequences.py), not what this test is about.
            link.ledger.flush()
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value
    se = next(iter(server.sink_engines.values()))
    if ending == "finish":
        assert sink.bytes_written == sessions * 4 * BS
    elif ending == "gc_reclaim":
        assert se.sessions_reclaimed.total == sessions
    else:
        assert se.crashes.total == sessions
    # One count covers everything held per session id: the idempotent-ack
    # ledger, consumed bytes, done events, restart markers, epochs.
    assert len(se._sessions) <= 2
    assert se.audit() == []


def test_sink_session_history_is_bounded():
    """A long-lived link carrying many short sessions must not grow the
    sink's per-session state without bound: retired sessions past the
    configured cap are evicted oldest-first."""
    _assert_history_bounded("finish")


@pytest.mark.parametrize("ending", ["gc_reclaim", "sink_crash"])
def test_sink_session_history_is_bounded_however_sessions_end(ending):
    """... also when they end by GC reclaim (aborted at the source
    mid-transfer, idle past the timeout) or by a sink crash: both used to
    leave one ``_marker_interval`` entry per session behind for good."""
    _assert_history_bounded(ending)


def test_sink_session_history_validates():
    with pytest.raises(ValueError):
        ProtocolConfig(sink_session_history=0)
