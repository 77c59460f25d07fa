"""End-to-end middleware transfers: correctness, ordering, and the
protocol invariants of §IV."""


from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.testbeds import ani_wan, roce_lan


def small_cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
        reader_threads=1,
        writer_threads=1,
    )
    base.update(over)
    return ProtocolConfig(**base)


def run_transfer(tb, cfg, total_bytes, port=4000):
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    sink = CollectingSink(tb.dst)
    server.serve(port, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    source = PatternSource(tb.src)
    done = client.transfer(tb.dst_dev, port, source, total_bytes)
    tb.engine.run()
    assert done.triggered and done.ok, "transfer deadlocked"
    return done.value, sink, source, server


def test_all_bytes_delivered_in_order():
    tb = roce_lan()
    cfg = small_cfg()
    total = 16 << 20
    outcome, sink, source, _ = run_transfer(tb, cfg, total)
    blocks = total // cfg.block_size
    assert outcome.blocks == blocks
    assert len(list(sink.rows())) == blocks
    # Strictly in-order delivery of the full sequence.
    assert [h.seq for h, _ in sink.rows()] == list(range(blocks))
    # Payload integrity end to end.
    for h, payload in sink.rows():
        assert payload == ("blk", h.seq, h.length)
    assert sink.bytes_written == total
    assert source.bytes_read == total


def test_partial_final_block():
    tb = roce_lan()
    cfg = small_cfg()
    total = cfg.block_size * 3 + 12345
    outcome, sink, _, _ = run_transfer(tb, cfg, total)
    assert outcome.blocks == 4
    assert list(sink.rows())[-1][0].length == 12345
    assert sink.bytes_written == total


def test_offsets_cover_dataset_exactly():
    tb = roce_lan()
    cfg = small_cfg()
    total = 8 << 20
    _, sink, _, _ = run_transfer(tb, cfg, total)
    covered = 0
    for h, _ in sink.rows():
        assert h.offset == covered
        covered += h.length
    assert covered == total


def test_no_rnr_in_healthy_run():
    """Credit flow control must prevent Receiver-Not-Ready entirely."""
    tb = roce_lan()
    outcome, _, _, _ = run_transfer(tb, small_cfg(), 16 << 20)
    assert outcome.rnr_naks == 0


def test_no_resends_on_clean_fabric():
    tb = roce_lan()
    outcome, _, _, _ = run_transfer(tb, small_cfg(), 16 << 20)
    assert outcome.resends == 0


def test_pools_fully_recycled_after_transfer():
    tb = roce_lan()
    cfg = small_cfg()
    _, _, _, server = run_transfer(tb, cfg, 16 << 20)
    engine = next(iter(server.sink_engines.values()))
    from repro.core.blocks import SinkBlockState

    # After teardown every block is either back in the free list or
    # re-advertised as a credit for a future session — never stuck READY,
    # never leaked.
    states = [b.state for b in engine.pool.blocks.values()]
    assert all(
        s in (SinkBlockState.FREE, SinkBlockState.WAITING) for s in states
    )
    advertised = sum(1 for s in states if s is SinkBlockState.WAITING)
    assert len(engine.pool.free) + advertised == cfg.sink_blocks
    assert not any(s.parked for s in engine._sessions.values())
    assert engine.reassembly.parked == 0


def test_multiple_channels_preserve_order():
    tb = roce_lan()
    cfg = small_cfg(num_channels=4)
    total = 32 << 20
    outcome, sink, _, _ = run_transfer(tb, cfg, total)
    assert [h.seq for h, _ in sink.rows()] == list(range(outcome.blocks))


def test_single_channel_works():
    tb = roce_lan()
    outcome, sink, _, _ = run_transfer(tb, small_cfg(num_channels=1), 8 << 20)
    assert len(list(sink.rows())) == outcome.blocks


def test_on_demand_credits_still_correct_but_chattier():
    """The Tian-style ablation must stay functionally correct."""
    tb = roce_lan()
    cfg = small_cfg(proactive_credits=False)
    total = 16 << 20
    outcome, sink, _, _ = run_transfer(tb, cfg, total)
    assert len(list(sink.rows())) == outcome.blocks
    assert [h.seq for h, _ in sink.rows()] == list(range(outcome.blocks))
    assert outcome.mr_requests >= outcome.blocks / 2  # begging constantly


def test_proactive_beats_on_demand_on_wan():
    """§IV-A: saving the credit-request RTT matters when RTT is large."""

    def run(proactive):
        tb = ani_wan()
        cfg = ProtocolConfig(
            block_size=4 << 20,
            num_channels=2,
            source_blocks=48,
            sink_blocks=48,
            proactive_credits=proactive,
        )
        outcome, _, _, _ = run_transfer(tb, cfg, 2 << 30)
        return outcome.gbps

    assert run(True) > run(False) * 1.05


def test_sequential_transfers_same_client():
    tb = roce_lan()
    cfg = small_cfg()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)

    def driver(env):
        for _ in range(2):
            outcome = yield client.transfer(
                tb.dst_dev, 4000, PatternSource(tb.src), 4 << 20
            )
            assert outcome.bytes == 4 << 20
        return True

    p = tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert p.ok and p.value
    assert sink.bytes_written == 8 << 20


def test_control_traffic_scales_with_blocks():
    tb = roce_lan()
    cfg = small_cfg()
    total = 16 << 20
    outcome, _, _, _ = run_transfer(tb, cfg, total)
    # Per block: one BLOCK_DONE; plus negotiation, teardown, MR requests.
    assert outcome.ctrl_sent >= outcome.blocks
    assert outcome.ctrl_sent < outcome.blocks * 3 + 16
    # The counts are per session, not per link: two back-to-back sessions
    # on one link each report their own share, and the shares add up to
    # the link's totals.
    tb = roce_lan()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)

    def two_sessions(env):
        link = yield client.open_link(tb.dst_dev, 4000)
        outs = []
        for _ in range(2):
            outs.append((yield client.transfer(
                tb.dst_dev, 4000, PatternSource(tb.src), total, link=link
            )))
        return link, outs

    p = tb.engine.process(two_sessions(tb.engine))
    tb.engine.run()
    link, (first, second) = p.value
    assert first.blocks <= second.ctrl_sent <= first.ctrl_sent
    assert 0 < second.ctrl_received <= first.ctrl_received
    assert first.ctrl_sent + second.ctrl_sent == link.ctrl._m_sent.total
    assert first.ctrl_received + second.ctrl_received == link.ctrl._m_received.total
    assert first.mr_requests + second.mr_requests == link.mr_requests_sent.total
    # The control receive ring is re-posted, never rebuilt: after every
    # message, the QP holds exactly the ring's own recv_depth WRs.
    ring, posted = link.ctrl._ring, link.ctrl.qp._recv_queue
    assert link.ctrl._m_received.total > len(ring) == link.ctrl.recv_depth
    assert len(posted) == len(ring)
    assert {id(wr) for wr in posted} == {id(wr) for wr in ring}


def test_bigger_blocks_less_control_traffic():
    tb1 = roce_lan()
    o1, _, _, _ = run_transfer(tb1, small_cfg(block_size=256 * 1024), 16 << 20)
    tb2 = roce_lan()
    o2, _, _, _ = run_transfer(tb2, small_cfg(block_size=1 << 20), 16 << 20)
    assert o2.ctrl_sent < o1.ctrl_sent


def test_sink_cpu_negligible_vs_source():
    """One-sided RDMA WRITE: the sink does not touch the data path."""
    tb = roce_lan()
    _, _, _, _ = run_transfer(tb, small_cfg(), 64 << 20)
    assert tb.dst.cpu.busy_seconds() < tb.src.cpu.busy_seconds() * 0.5
