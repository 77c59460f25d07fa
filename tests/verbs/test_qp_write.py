"""RDMA WRITE: timing, bandwidth, rkey enforcement, completion order."""

import pytest

from repro.verbs import Opcode, QpState, RecvWR, SendWR, WcStatus
from repro.verbs.errors import QpStateError, QueueFullError
from tests.conftest import make_fabric


def _write_wr(mr, buf, i=0, length=4096, payload=None):
    return SendWR(
        opcode=Opcode.RDMA_WRITE,
        length=length,
        wr_id=i,
        remote_addr=buf.addr,
        rkey=mr.rkey,
        payload=payload,
    )


def test_write_places_payload_and_completes():
    f = make_fabric()
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr()

    def proc(env):
        qa.post_send(_write_wr(mr, buf, 7, payload="hello"))
        yield env.timeout(1)

    f.engine.process(proc(f.engine))
    f.engine.run()
    wcs = qa.send_cq._reap(16)
    assert len(wcs) == 1
    assert wcs[0].wr_id == 7 and wcs[0].ok
    assert mr.fetch(buf.addr) == "hello"
    # One-sided: no receive-side completion.
    assert len(qb.recv_cq._reap(16)) == 0


def test_write_completion_includes_rtt():
    rtt = 1e-3
    f = make_fabric(rtt=rtt)
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr()

    qa.post_send(_write_wr(mr, buf, length=4096))
    f.engine.run()
    wcs = qa.send_cq._reap(16)
    # Completion requires the ACK: at least one full RTT.
    assert wcs[0].timestamp >= rtt


def test_write_bandwidth_near_line_rate():
    f = make_fabric(gbps=40.0)
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=1 << 21)
    n, block = 64, 256 * 1024

    def pump(env):
        sent = 0
        while sent < n:
            if qa.send_outstanding < 16:
                qa.post_send(_write_wr(mr, buf, sent, block))
                sent += 1
            else:
                yield env.timeout(1e-6)
        while qa.send_outstanding:
            yield env.timeout(1e-6)

    f.engine.process(pump(f.engine))
    f.engine.run()
    gbps = n * block * 8 / f.engine.now / 1e9
    assert gbps > 0.9 * 40.0


def test_write_bad_rkey_errors_qp():
    f = make_fabric()
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr()
    qa.post_send(
        SendWR(
            opcode=Opcode.RDMA_WRITE,
            length=64,
            wr_id=1,
            remote_addr=buf.addr,
            rkey=0xBAD,
        )
    )
    f.engine.run()
    wcs = qa.send_cq._reap(16)
    assert wcs[0].status is WcStatus.REM_ACCESS_ERR
    from repro.verbs import QpState

    assert qa.state is QpState.ERROR
    with pytest.raises(QpStateError):
        qa.post_send(_write_wr(mr, buf))


def test_qp_killed_while_the_write_is_on_the_wire_flushes_it():
    """``post_send`` rejects a non-RTS QP up front and the WQE starts
    inside the call, so the only way a WR meets a dead QP is in flight."""
    rtt = 1e-3
    f = make_fabric(rtt=rtt)
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr()
    qa.post_send(_write_wr(mr, buf, 3, payload="lost"))
    f.engine.run(until=rtt / 4)  # past the NIC, not yet at the peer
    qa.kill()
    f.engine.run()
    (wc,) = qa.send_cq._reap(16)
    assert wc.wr_id == 3 and wc.status is WcStatus.WR_FLUSH_ERR
    assert mr.fetch(buf.addr) is None  # the write never landed
    assert qa.send_outstanding == 0
    with pytest.raises(QpStateError):
        qa.post_send(_write_wr(mr, buf, 4))


def test_write_out_of_bounds_errors():
    f = make_fabric()
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr(size=4096)
    qa.post_send(_write_wr(mr, buf, length=8192))
    f.engine.run()
    assert qa.send_cq._reap(16)[0].status is WcStatus.REM_ACCESS_ERR


def test_completions_in_post_order():
    """RC delivers completions strictly in post order per QP."""
    f = make_fabric()
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr(size=1 << 22)
    # Mix of sizes: later small writes would finish earlier physically.
    sizes = [1 << 20, 4096, 1 << 19, 4096, 1 << 18]
    for i, size in enumerate(sizes):
        qa.post_send(_write_wr(mr, buf, i, size))
    f.engine.run()
    wcs = qa.send_cq._reap(100)
    assert [wc.wr_id for wc in wcs] == list(range(len(sizes)))


def test_unsignaled_write_skips_cqe():
    f = make_fabric()
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr()
    wr = _write_wr(mr, buf, 5)
    wr.signaled = False
    qa.post_send(wr)
    f.engine.run()
    assert qa.send_cq._reap(16) == []
    assert qa.send_outstanding == 0  # slot reclaimed anyway


def test_send_queue_depth_enforced():
    f = make_fabric()
    qa, _ = f.qp_pair(max_send_wr=4)
    _, buf, mr = f.remote_mr()
    for i in range(4):
        qa.post_send(_write_wr(mr, buf, i))
    with pytest.raises(QueueFullError):
        qa.post_send(_write_wr(mr, buf, 99))
    # The receive queue is bounded the same way, and both bounds exist.
    qb, _ = f.qp_pair(max_recv_wr=1)
    qb.post_recv(RecvWR(length=64))
    with pytest.raises(QueueFullError, match="receive queue full"):
        qb.post_recv(RecvWR(length=64))
    with pytest.raises(ValueError, match="queue depths must be >= 1"):
        f.qp_pair(max_send_wr=0)


def test_pcie_cap_limits_write_bandwidth():
    """The InfiniBand-testbed effect: PCIe below line rate caps goodput."""
    f = make_fabric(gbps=40.0, pcie_gbps=25.6)
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr(size=1 << 21)
    n, block = 64, 256 * 1024

    def pump(env):
        sent = 0
        while sent < n:
            if qa.send_outstanding < 16:
                qa.post_send(_write_wr(mr, buf, sent, block))
                sent += 1
            else:
                yield env.timeout(1e-6)
        while qa.send_outstanding:
            yield env.timeout(1e-6)

    f.engine.process(pump(f.engine))
    f.engine.run()
    gbps = n * block * 8 / f.engine.now / 1e9
    assert gbps < 25.6
    assert gbps > 0.85 * 25.6


def _mixed_traffic(fluid):
    """SEND / WRITE / READ of mixed sizes, zero-length included, posted
    back to back; returns every completion and the hardware counters."""
    from repro.verbs import RecvWR

    f = make_fabric()
    f.engine.use_fluid = fluid  # before any traffic: one mode per wire
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=1 << 20)
    sizes = [0, 4096, 1 << 20, 0, 65536]
    for i, n in enumerate(sizes):
        qb.post_recv(RecvWR(length=1 << 20, wr_id=100 + i))
        qa.post_send(SendWR(opcode=Opcode.SEND, length=n, wr_id=3 * i, payload=i))
        qa.post_send(_write_wr(mr, buf, 3 * i + 1, length=n, payload=f"w{i}"))
        qa.post_send(
            SendWR(opcode=Opcode.RDMA_READ, length=n, wr_id=3 * i + 2,
                   remote_addr=buf.addr, rkey=mr.rkey)
        )
    f.engine.run()
    sent = [(wc.wr_id, wc.status, wc.timestamp) for wc in qa.send_cq._reap(64)]
    got = [(wc.wr_id, wc.byte_len, wc.timestamp) for wc in qb.recv_cq._reap(64)]
    counters = (
        f.a.nic.wqes_processed, f.a.pcie.bytes_moved,
        f.b.pcie.bytes_moved, f.b.nic.read_requests_served,
        [link.bytes_sent.total for link in f.duplex.forward.links],
        [link.bytes_sent.total for link in f.duplex.backward.links],
        f.duplex.backward._m_ctrl.count,
    )
    return sent, got, counters, f.engine.events_processed


def test_booked_wqes_complete_exactly_when_staged_ones_do():
    # A WR's record books its stages under the fluid engine and runs the
    # stages' generator forms under the discrete one (and for zero-length
    # WRs under both): same completions, same counters.
    booked, staged = _mixed_traffic(True), _mixed_traffic(False)
    assert booked[:3] == staged[:3]
    assert len(booked[0]) == 15 and all(s is WcStatus.SUCCESS for _, s, _ in booked[0])
    assert booked[3] < staged[3]  # fewer kernel events, nothing else
