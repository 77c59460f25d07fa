"""GridFTP baseline and RFTP application behaviour."""

import pytest

from repro.apps.gridftp import GridFtpPair, run_gridftp
from repro.apps.io import CollectingSink, DiskSink, PatternSource
from repro.apps.rftp import RftpClient, RftpServer, run_rftp
from repro.core import ProtocolConfig
from repro.testbeds import ani_wan, roce_lan


def cfg(**over):
    base = dict(
        block_size=1 << 20,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
    )
    base.update(over)
    return ProtocolConfig(**base)


# -- GridFTP -------------------------------------------------------------------------
def test_gridftp_lan_is_cpu_capped():
    """The strace finding: one app thread pins one core; goodput well
    below the 40G wire."""
    g = run_gridftp(roce_lan(), 1 << 30, streams=4, block_size=1 << 20)
    assert g.gbps < 20.0
    assert g.client_app_cpu_pct > 90.0  # the single thread is pinned
    assert g.client_app_cpu_pct <= 100.5
    assert g.client_cpu_pct > 100.0  # plus kernel work on other cores


def test_gridftp_lan_streams_do_not_help():
    """More TCP streams cannot fix a single-threaded CPU bottleneck."""
    one = run_gridftp(roce_lan(), 512 << 20, streams=1)
    eight = run_gridftp(roce_lan(), 512 << 20, streams=8)
    assert eight.gbps < one.gbps * 1.2


def test_gridftp_wan_single_stream_underutilises():
    g = run_gridftp(ani_wan(), 8 << 30, streams=1, block_size=4 << 20)
    assert g.gbps < 8.0


def test_gridftp_wan_parallel_streams_recover():
    """Averaged over seeds: the parallel aggregate rides out losses that
    a single cubic flow pays for in full."""
    ones, eights = [], []
    for seed in range(3):
        one = run_gridftp(ani_wan(seed=seed), 8 << 30, streams=1, block_size=4 << 20)
        eight = run_gridftp(
            ani_wan(seed=seed + 10), 8 << 30, streams=8, block_size=4 << 20
        )
        ones.append(one.gbps)
        eights.append(eight.gbps)
        assert eight.losses >= 1
    assert sum(eights) / 3 > (sum(ones) / 3) * 1.05


def test_gridftp_validation():
    with pytest.raises(ValueError):
        GridFtpPair(roce_lan(), streams=0)
    with pytest.raises(ValueError):
        GridFtpPair(roce_lan(), block_size=100)
    pair = GridFtpPair(roce_lan(), streams=1)
    with pytest.raises(ValueError):
        pair.start(0)


# -- RFTP ----------------------------------------------------------------------------
def test_rftp_saturates_roce_lan():
    r = run_rftp(roce_lan(), 512 << 20, cfg())
    assert r.gbps > 0.9 * 40.0


def test_rftp_beats_gridftp_everywhere():
    """The headline comparison of Figures 8-10."""
    rftp = run_rftp(roce_lan(), 512 << 20, cfg())
    grid = run_gridftp(roce_lan(), 512 << 20, streams=8)
    assert rftp.gbps > 2 * grid.gbps
    assert rftp.client_cpu_pct < grid.client_cpu_pct


def test_rftp_wan_near_line_rate():
    c = cfg(block_size=4 << 20, source_blocks=48, sink_blocks=48, num_channels=4)
    r = run_rftp(ani_wan(), 8 << 30, c)
    assert r.gbps > 9.0


def test_rftp_delivers_correct_data():
    tb = roce_lan()
    sink = CollectingSink(tb.dst)
    source = PatternSource(tb.src)
    r = run_rftp(tb, 64 << 20, cfg(), source=source, sink=sink)
    assert sink.bytes_written == 64 << 20
    assert [h.seq for h, _ in sink.rows()] == list(range(r.outcome.blocks))


def test_rftp_memory_to_disk_matches_memory_to_memory():
    """Figure 11: direct-I/O disk writes keep up with /dev/null."""
    wan_cfg = cfg(
        block_size=4 << 20,
        source_blocks=48,
        sink_blocks=48,
        writer_threads=4,  # RFTP overlaps RAID lanes with several writers
    )
    mem = run_rftp(ani_wan(), 2 << 30, wan_cfg)
    tb = ani_wan()
    disk = run_rftp(
        tb,
        2 << 30,
        wan_cfg,
        sink=DiskSink(tb.dst, direct=True),
    )
    assert disk.gbps == pytest.approx(mem.gbps, rel=0.1)
    assert disk.server_cpu_pct >= mem.server_cpu_pct


def test_rftp_client_server_objects():
    tb = roce_lan()
    server = RftpServer(tb, cfg())
    server.start(2811)
    client = RftpClient(tb, cfg())
    done = client.put(8 << 20, 2811)
    tb.engine.run()
    assert done.ok
    assert done.value.bytes == 8 << 20


def test_rftp_larger_blocks_lower_cpu():
    small = run_rftp(roce_lan(), 256 << 20, cfg(block_size=256 * 1024))
    large = run_rftp(roce_lan(), 256 << 20, cfg(block_size=4 << 20))
    assert large.client_cpu_pct < small.client_cpu_pct


def test_rftp_put_many_sequential():
    tb = roce_lan()
    client_cfg = cfg()
    server = RftpServer(tb, client_cfg)
    server.start(2811)
    client = RftpClient(tb, client_cfg)
    done = client.put_many([4 << 20, 8 << 20, 2 << 20])
    tb.engine.run()
    assert done.ok
    outcomes = done.value
    assert [o.bytes for o in outcomes] == [4 << 20, 8 << 20, 2 << 20]
    assert len({o.session_id for o in outcomes}) == 3


def test_rftp_put_many_concurrent():
    tb = roce_lan()
    client_cfg = cfg()
    sink = CollectingSink(tb.dst)
    server = RftpServer(tb, client_cfg, sink=sink)
    server.start(2811)
    client = RftpClient(tb, client_cfg)
    done = client.put_many([8 << 20] * 3, concurrent=True)
    tb.engine.run()
    assert done.ok
    assert sink.bytes_written == 24 << 20
    # Each session delivered in order.
    for o in done.value:
        seqs = [h.seq for h, _ in sink.rows() if h.session_id == o.session_id]
        assert seqs == list(range(o.blocks))


def test_rftp_put_many_validation():
    client = RftpClient(roce_lan(), cfg())
    import pytest as _pytest

    with _pytest.raises(ValueError):
        client.put_many([])
