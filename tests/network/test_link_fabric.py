"""Links and multi-hop paths: serialisation, propagation, pipelining."""

import pytest

from repro.network import Link, Path, back_to_back, lan_switched, wan_path
from repro.network.fabric import DuplexPath


# -- Link --------------------------------------------------------------------
def test_link_serialisation_time(engine):
    link = Link(engine, gbps=8.0)  # 1 GB/s

    def proc(env):
        yield from link.serialize(1_000_000)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(1e-3)
    assert link.bytes_sent.total == 1_000_000


def test_link_fifo(engine):
    link = Link(engine, gbps=8.0)
    order = []

    def proc(env, tag):
        yield from link.serialize(1_000_000)
        order.append((env.now, tag))

    engine.process(proc(engine, "a"))
    engine.process(proc(engine, "b"))
    engine.run()
    assert order[0] == (pytest.approx(1e-3), "a")
    assert order[1] == (pytest.approx(2e-3), "b")


def test_link_validation(engine):
    with pytest.raises(ValueError):
        Link(engine, gbps=0)
    with pytest.raises(ValueError):
        Link(engine, gbps=1, delay=-1)


# -- Path ---------------------------------------------------------------------
def test_path_transmit_includes_propagation(engine):
    link = Link(engine, gbps=8.0, delay=0.010)
    path = Path(engine, [link])

    def proc(env):
        yield from path.transmit(1_000_000)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(1e-3 + 0.010)


def test_path_bottleneck_is_min_rate(engine):
    links = [Link(engine, 100.0), Link(engine, 10.0), Link(engine, 40.0)]
    path = Path(engine, links)
    assert path.bottleneck_gbps == 10.0


def test_path_pipelines_across_hops(engine):
    """Steady-state throughput through 2 hops equals one hop's rate."""
    links = [Link(engine, 8.0), Link(engine, 8.0)]
    path = Path(engine, links)
    N = 20
    done = []

    def proc(env, i):
        yield from path.transmit(1_000_000)
        done.append(env.now)

    for i in range(N):
        engine.process(proc(engine, i))
    engine.run()
    # First block: 2 serialisations; subsequent: one per ms (pipelined).
    assert done[0] == pytest.approx(2e-3)
    assert done[-1] == pytest.approx((N + 1) * 1e-3)


def test_path_latency_sums_hops(engine):
    links = [Link(engine, 10, delay=0.01), Link(engine, 10, delay=0.02)]
    assert Path(engine, links).latency == pytest.approx(0.03)


def test_path_deliver_latency(engine):
    link = Link(engine, gbps=8.0, delay=0.005)
    path = Path(engine, [link])

    def proc(env):
        yield from path.deliver_latency(64)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(0.005 + 64 / 1e9)


def test_empty_path_rejected(engine):
    with pytest.raises(ValueError):
        Path(engine, [])


# -- topologies --------------------------------------------------------------------
def test_back_to_back_rtt(engine):
    duplex = back_to_back(engine, 40.0, rtt=25e-6)
    assert duplex.rtt == pytest.approx(25e-6)
    assert duplex.forward.bottleneck_gbps == 40.0


def test_lan_switched_rtt_and_hops(engine):
    duplex = lan_switched(engine, 40.0, rtt=13e-6)
    assert duplex.rtt == pytest.approx(13e-6)
    assert len(duplex.forward.links) == 2


def test_wan_path_topology(engine):
    duplex = wan_path(engine, 10.0, rtt=49e-3)
    assert duplex.rtt == pytest.approx(49e-3, rel=1e-3)
    assert duplex.forward.bottleneck_gbps == 10.0
    # Core link carries the delay; edges are local.
    core = duplex.forward.links[1]
    assert core.gbps == 100.0
    assert core.delay > 0.02


def test_duplex_reversed(engine):
    duplex = back_to_back(engine, 10.0, rtt=1e-3)
    rev = duplex.reversed()
    assert rev.forward is duplex.backward
    assert rev.backward is duplex.forward
    assert isinstance(rev, DuplexPath)
