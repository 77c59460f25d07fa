"""The shared bottleneck and TCP connections (pipe + fluid modes)."""

import pytest

from repro.network import back_to_back
from repro.sim import Engine
from repro.tcp import Bottleneck, TcpConnection, TcpMode
from tests.conftest import make_host


def _hosts(engine):
    return make_host(engine, "src", nic_gbps=10), make_host(engine, "dst", nic_gbps=10)


def _fluid_conn(engine, src, dst, bn, **kw):
    kw.setdefault("sndbuf", 64 << 20)
    kw.setdefault("rcvbuf", 64 << 20)
    return TcpConnection(
        engine, src, dst, TcpMode.FLUID, bottleneck=bn, **kw
    )


# -- Bottleneck ---------------------------------------------------------------
def test_single_flow_reaches_capacity(engine):
    src, dst = _hosts(engine)
    bn = Bottleneck(engine, 1.25e9, rtt=0.05)
    conn = _fluid_conn(engine, src, dst, bn)
    total = 2 << 30

    def sender(env):
        thread = src.thread("s")
        yield from conn.send(thread, total)

    def receiver(env):
        thread = dst.thread("r")
        yield from conn.recv(thread, total)
        return env.now

    engine.process(sender(engine))
    p = engine.process(receiver(engine))
    engine.run()
    assert p.ok
    gbps = total * 8 / p.value / 1e9
    assert gbps > 7.0  # most of the 10G pipe after slow start


def test_round_loop_parks_when_idle(engine):
    src, dst = _hosts(engine)
    bn = Bottleneck(engine, 1.25e9, rtt=0.05)
    conn = _fluid_conn(engine, src, dst, bn)

    def sender(env):
        thread = src.thread("s")
        yield from conn.send(thread, 1 << 20)

    def receiver(env):
        thread = dst.thread("r")
        yield from conn.recv(thread, 1 << 20)

    engine.process(sender(engine))
    engine.process(receiver(engine))
    engine.run()  # must terminate — the loop parks itself
    assert not bn._running
    assert engine.now < 10.0


def test_overflow_triggers_marked_losses(engine):
    src, dst = _hosts(engine)
    # Tiny buffer: slow-start overshoot must overflow it.
    bn = Bottleneck(engine, 1.25e9, rtt=0.05, buffer_bytes=1 << 20)
    conn = _fluid_conn(engine, src, dst, bn, sndbuf=512 << 20, rcvbuf=512 << 20)
    total = 1 << 30

    def sender(env):
        thread = src.thread("s")
        yield from conn.send(thread, total)

    def receiver(env):
        thread = dst.thread("r")
        yield from conn.recv(thread, total)

    engine.process(sender(engine))
    engine.process(receiver(engine))
    engine.run()
    assert conn.cc.losses >= 1
    assert bn.bytes_dropped.total > 0


def test_two_flows_share_capacity(engine):
    src, dst = _hosts(engine)
    bn = Bottleneck(engine, 1.25e9, rtt=0.05)
    total = 2 << 30  # long enough that slow start amortises
    conns = [_fluid_conn(engine, src, dst, bn) for _ in range(2)]
    finish = []

    def sender(env, conn):
        thread = src.thread("s")
        yield from conn.send(thread, total)

    def receiver(env, conn):
        thread = dst.thread("r")
        yield from conn.recv(thread, total)
        finish.append(env.now)

    for conn in conns:
        engine.process(sender(engine, conn))
        engine.process(receiver(engine, conn))
    engine.run()
    agg_gbps = 2 * total * 8 / max(finish) / 1e9
    assert agg_gbps > 7.0
    assert agg_gbps <= 10.01


def test_random_loss_reduces_single_flow_goodput(engine):
    src, dst = _hosts(engine)
    total = 4 << 30

    def run(loss):
        eng = Engine()
        s, d = _hosts(eng)
        bn = Bottleneck(eng, 1.25e9, rtt=0.05, random_loss_per_byte=loss)
        conn = _fluid_conn(eng, s, d, bn)

        def sender(env):
            yield from conn.send(s.thread("s"), total)

        def receiver(env):
            yield from conn.recv(d.thread("r"), total)
            return env.now

        eng.process(sender(eng))
        p = eng.process(receiver(eng))
        eng.run()
        return total * 8 / p.value / 1e9

    assert run(2e-9) < run(0.0) - 0.5


def test_bottleneck_validation(engine):
    with pytest.raises(ValueError):
        Bottleneck(engine, 0, rtt=0.05)
    with pytest.raises(ValueError):
        Bottleneck(engine, 1e9, rtt=0)
    with pytest.raises(ValueError):
        Bottleneck(engine, 1e9, rtt=0.05, random_loss_per_byte=-1)


# -- pipe mode ---------------------------------------------------------------------
def test_pipe_mode_throughput_and_cpu(engine):
    src, dst = _hosts(engine)
    duplex = back_to_back(engine, 10.0, rtt=50e-6)
    conn = TcpConnection(
        engine, src, dst, TcpMode.PIPE, path=duplex, sndbuf=8 << 20, rcvbuf=8 << 20
    )
    total = 256 << 20

    def sender(env):
        thread = src.thread("s")
        remaining = total
        while remaining:
            chunk = min(1 << 20, remaining)
            yield from conn.send(thread, chunk)
            remaining -= chunk

    def receiver(env):
        thread = dst.thread("r")
        remaining = total
        while remaining:
            chunk = min(1 << 20, remaining)
            yield from conn.recv(thread, chunk)
            remaining -= chunk
        return env.now

    engine.process(sender(engine))
    p = engine.process(receiver(engine))
    engine.run()
    gbps = total * 8 / p.value / 1e9
    assert 8.0 < gbps <= 10.01
    # Copies charged to app threads, kernel charged in background.
    assert src.cpu.busy_seconds("app") > 0
    assert src.cpu.busy_seconds("kernel") > 0
    assert dst.cpu.busy_seconds("kernel") > 0


def test_pipe_mode_backpressure(engine):
    """A tiny send buffer blocks the sender until the pipe drains."""
    src, dst = _hosts(engine)
    duplex = back_to_back(engine, 10.0, rtt=50e-6)
    conn = TcpConnection(
        engine, src, dst, TcpMode.PIPE, path=duplex, sndbuf=1 << 20, rcvbuf=1 << 20
    )
    sent_times = []

    def sender(env):
        thread = src.thread("s")
        for _ in range(8):
            yield from conn.send(thread, 1 << 20)
            sent_times.append(env.now)

    def receiver(env):
        thread = dst.thread("r")
        yield from conn.recv(thread, 8 << 20)

    engine.process(sender(engine))
    engine.process(receiver(engine))
    engine.run()
    # With a 1 MB buffer each subsequent send must wait ~one serialisation.
    serialisation = (1 << 20) / (10e9 / 8)
    assert sent_times[-1] >= 5 * serialisation


def test_mode_requirements(engine):
    src, dst = _hosts(engine)
    with pytest.raises(ValueError):
        TcpConnection(engine, src, dst, TcpMode.PIPE)  # no path
    with pytest.raises(ValueError):
        TcpConnection(engine, src, dst, TcpMode.FLUID)  # no bottleneck
    with pytest.raises(ValueError, match="unknown mode 'udp'"):
        TcpConnection(engine, src, dst, "udp")


def test_send_after_close_rejected(engine):
    src, dst = _hosts(engine)
    bn = Bottleneck(engine, 1.25e9, rtt=0.05)
    conn = _fluid_conn(engine, src, dst, bn)
    conn.close()
    with pytest.raises(RuntimeError):
        list(conn.send(src.thread("s"), 10))
    assert conn not in bn._flows


@pytest.mark.parametrize("cc_name", ["reno", "cubic", "bic", "htcp"])
def test_fluid_conserves_bytes_under_loss(engine, cc_name):
    """Conservation invariant: every byte written is eventually read,
    exactly once, regardless of congestion algorithm and loss pattern."""
    src, dst = _hosts(engine)
    bn = Bottleneck(
        engine, 1.25e9, rtt=0.05,
        buffer_bytes=8 << 20,  # small buffer: force overflow losses
        random_loss_per_byte=2e-9,
    )
    conn = _fluid_conn(engine, src, dst, bn, cc=cc_name,
                       sndbuf=128 << 20, rcvbuf=128 << 20)
    total = 1 << 30

    def sender(env):
        yield from conn.send(src.thread("s"), total)

    def receiver(env):
        yield from conn.recv(dst.thread("r"), total)
        return env.now

    engine.process(sender(engine))
    p = engine.process(receiver(engine))
    engine.run()
    assert p.ok, f"{cc_name}: transfer stalled"
    assert conn.cc.losses > 0  # the run actually saw congestion
    # Nothing left in flight, nothing double-delivered.
    assert conn._sndbuf.level == pytest.approx(0.0, abs=1.0)
    assert conn._rcvbuf.level == pytest.approx(0.0, abs=1.0)
    assert conn.bytes_delivered.total == pytest.approx(total, abs=1.0)


def test_many_flows_conserve_and_share(engine):
    """Eight flows under overflow losses: all complete, total served
    equals total offered, aggregate stays within capacity."""
    src, dst = _hosts(engine)
    bn = Bottleneck(engine, 1.25e9, rtt=0.05, buffer_bytes=16 << 20)
    per_flow = 256 << 20
    conns = [_fluid_conn(engine, src, dst, bn) for _ in range(8)]
    finish = []

    def sender(env, c):
        yield from c.send(src.thread("s"), per_flow)

    def receiver(env, c):
        yield from c.recv(dst.thread("r"), per_flow)
        finish.append(env.now)

    for c in conns:
        engine.process(sender(engine, c))
        engine.process(receiver(engine, c))
    engine.run()
    assert len(finish) == 8
    agg_gbps = 8 * per_flow * 8 / max(finish) / 1e9
    assert agg_gbps <= 10.01
    assert sum(c.bytes_delivered.total for c in conns) == pytest.approx(
        8 * per_flow, abs=8.0
    )
