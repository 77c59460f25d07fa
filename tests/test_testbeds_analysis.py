"""Testbed encodings (Table I) and the analysis helpers."""

import pytest

from repro.analysis import Table
from repro.tcp import TcpMode
from repro.testbeds import TESTBEDS, ani_wan, infiniband_lan, roce_lan
from repro.verbs import RdmaArch


# -- Table I encodings ------------------------------------------------------------
def test_roce_lan_matches_table1():
    tb = roce_lan()
    assert tb.arch is RdmaArch.ROCE
    assert tb.nic_gbps == 40.0
    assert tb.src.spec.cores == 12
    assert tb.src.spec.mem_bytes == 24 << 30
    assert tb.rtt == pytest.approx(0.025e-3)
    assert tb.mtu == 9000
    assert tb.tcp_cc == "bic"
    assert tb.tcp_mode is TcpMode.PIPE
    assert tb.bare_metal_gbps == 40.0


def test_infiniband_lan_matches_table1():
    tb = infiniband_lan()
    assert tb.arch is RdmaArch.INFINIBAND
    assert tb.src.spec.cores == 8
    assert tb.src.spec.mem_bytes == 48 << 30
    assert tb.rtt == pytest.approx(0.013e-3)
    assert tb.mtu == 65520
    assert tb.tcp_cc == "cubic"
    # PCIe 2.0 x8 is the bare-metal ceiling, not the 40G link.
    assert tb.bare_metal_gbps == pytest.approx(25.6)


def test_ani_wan_matches_table1():
    tb = ani_wan()
    assert tb.nic_gbps == 10.0
    assert tb.rtt == pytest.approx(49e-3)
    assert tb.src.spec.cores == 16  # ANL Opteron
    assert tb.dst.spec.cores == 8  # NERSC Xeon
    assert tb.src.spec.mem_bytes == 64 << 30
    assert tb.dst.spec.mem_bytes == 24 << 30
    assert tb.tcp_mode is TcpMode.FLUID
    assert (tb.duplex.forward.latency + tb.duplex.backward.latency) == pytest.approx(49e-3, rel=1e-3)


def test_iwarp_lan_extension_testbed():
    from repro.testbeds import iwarp_lan

    tb = iwarp_lan()
    assert tb.arch is RdmaArch.IWARP
    assert tb.nic_gbps == 10.0
    assert tb.tcp_mode is TcpMode.PIPE
    # iWARP has the heaviest verbs software path of the three.
    from repro.verbs import ArchProfile

    iw = ArchProfile.for_arch(RdmaArch.IWARP)
    ib = ArchProfile.for_arch(RdmaArch.INFINIBAND)
    ro = ArchProfile.for_arch(RdmaArch.ROCE)
    assert iw.post_send_seconds > ro.post_send_seconds > ib.post_send_seconds
    with pytest.raises(ValueError, match="unknown architecture: 'opa'"):
        ArchProfile.for_arch("opa")


def test_wan_bdp():
    tb = ani_wan()
    assert tb.bdp_bytes == pytest.approx(10e9 / 8 * 49e-3)


def test_testbed_registry():
    assert set(TESTBEDS) == {"roce-lan", "infiniband-lan", "ani-wan", "iwarp-lan"}
    for factory in TESTBEDS.values():
        tb = factory()
        assert tb.engine.now == 0.0


def test_bottleneck_created_once():
    tb = ani_wan()
    assert tb.tcp_bottleneck() is tb.tcp_bottleneck()


def test_lan_tcp_connection_is_pipe():
    tb = roce_lan()
    conn = tb.tcp_connection()
    assert conn.mode is TcpMode.PIPE
    assert conn.cc.name == "bic"


def test_wan_tcp_connection_bdp_buffers():
    tb = ani_wan()
    conn = tb.tcp_connection()
    assert conn.mode is TcpMode.FLUID
    assert conn._sndbuf.capacity == pytest.approx(tb.bdp_bytes)


# -- analysis ---------------------------------------------------------------------
def test_table_renders():
    t = Table("demo", ["a", "b"])
    t.add_row(1, "x")
    text = t.render()
    assert "demo" in text and "a" in text and "x" in text
    with pytest.raises(ValueError):
        t.add_row(1)
