"""Session-id reuse across link incarnations: the marker-epoch guard.

A sink keeps a reclaimed session's restart marker around so a later
SESSION_RESUME can re-attach.  But a session id may also be *legitimately
reused* by a fresh incarnation (back-to-back transfers to the same
destination path on one link).  The fresh SESSION_REQ must wipe the
predecessor's marker state: a stale marker ``upto`` overstates the new
incarnation's durable prefix, and a resume anchored on it silently skips
blocks the new incarnation never delivered.
"""

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


def test_fresh_incarnation_does_not_inherit_stale_restart_marker():
    """Incarnation 1 (8 blocks, sid 7) dies mid-flight and is GC-reclaimed,
    leaving its restart marker behind (that is the resume anchor, by
    design).  Incarnation 2 reuses sid 7 for a *smaller* 4-block file,
    dies right after negotiation, and resumes.  Pre-guard, the resume
    re-attached at the stale marker and skipped blocks incarnation 2
    never sent; the delivered sequence set must be complete."""
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        se = server.sink_engines[link._client_id]

        # Incarnation 1: killed with a durable prefix behind the marker.
        ev1 = link.transfer(PatternSource(tb.src), 8 * BS, session_id=7)
        yield env.timeout(4e-4)
        link.crash()
        ev1.defuse()

        # Idle GC reclaims sid 7 but keeps the marker as a resume anchor.
        yield env.timeout(3.0)
        assert not se.has_session(7)
        stale = se.session(7).upto
        assert stale >= 1, "precondition: incarnation 1 left a stale marker"

        # Incarnation 2 reuses sid 7 and dies before any block lands.
        before = len(list(sink.rows()))
        ev2 = link.transfer(PatternSource(tb.src), 4 * BS, session_id=7)
        yield env.timeout(1.2e-4)
        link.crash()
        ev2.defuse()
        delivered = len(list(sink.rows())) - before
        assert delivered < stale, (
            "precondition: incarnation 2 delivered less than the stale marker"
        )

        yield env.timeout(0.05)
        res = yield link.resume(PatternSource(tb.src), 4 * BS, 7)
        # The resume point reflects THIS incarnation's progress, not the
        # dead predecessor's.
        assert res.start_seq <= delivered
        seqs = sorted({h.seq for h, _ in list(sink.rows())[before:]
                       if h.session_id == 7})
        assert seqs == [0, 1, 2, 3]  # nothing silently skipped
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value


def test_reused_sid_after_clean_finish_is_a_fresh_session():
    """A sid whose previous incarnation finished cleanly starts over from
    scratch: full delivery, no inherited acks or markers."""
    tb = roce_lan()
    c = cfg()
    server, sink, client = wire(tb, c)

    def driver(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        yield link.transfer(PatternSource(tb.src), 4 * BS, session_id=9)
        before = len(list(sink.rows()))
        yield link.transfer(PatternSource(tb.src), 4 * BS, session_id=9)
        seqs = sorted(h.seq for h, _ in list(sink.rows())[before:]
                      if h.session_id == 9)
        assert seqs == [0, 1, 2, 3]
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value
    assert sink.bytes_written == 8 * BS
