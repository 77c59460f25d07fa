"""SEND/RECV with RNR, RDMA READ with ORD, and RC's delivery guarantees."""

import pytest

from repro.sim import Engine
from repro.verbs import Opcode, QpState, RecvWR, SendWR, WcStatus
from tests.conftest import make_fabric


# -- SEND/RECV -----------------------------------------------------------------
def test_send_delivers_payload_to_recv():
    f = make_fabric()
    qa, qb = f.qp_pair()
    qb.post_recv(RecvWR(length=8192, wr_id=3))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="msg"))
    f.engine.run()
    rwc = qb.recv_cq._reap(16)[0]
    assert rwc.ok and rwc.payload == "msg" and rwc.wr_id == 3
    swc = qa.send_cq._reap(16)[0]
    assert swc.ok and swc.wr_id == 1


def test_send_without_recv_rnr_retries_until_posted():
    f = make_fabric()
    qa, qb = f.qp_pair()
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="late"))

    def poster(env):
        yield env.timeout(1e-3)
        qb.post_recv(RecvWR(length=8192, wr_id=9))

    f.engine.process(poster(f.engine))
    f.engine.run()
    assert qa.rnr_naks.count >= 1
    assert qb.recv_cq._reap(16)[0].payload == "late"
    assert qa.send_cq._reap(16)[0].ok


def test_rnr_retry_exhaustion_errors_qp():
    f = make_fabric()
    qa, qb = f.qp_pair(rnr_retry=2)
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1))
    f.engine.run()
    wc = qa.send_cq._reap(16)[0]
    assert wc.status is WcStatus.RNR_RETRY_EXC_ERR
    assert qa.state is QpState.ERROR


def test_send_longer_than_recv_buffer_errors():
    f = make_fabric()
    qa, qb = f.qp_pair()
    qb.post_recv(RecvWR(length=1024, wr_id=2))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1))
    f.engine.run()
    assert qa.send_cq._reap(16)[0].status is WcStatus.LOC_LEN_ERR


def test_qp_error_flushes_posted_recvs():
    f = make_fabric()
    qa, qb = f.qp_pair(rnr_retry=0)
    qb_own_recv = RecvWR(length=64, wr_id=77)
    qa.post_recv(qb_own_recv)
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1))
    f.engine.run()
    flushed = qa.recv_cq._reap(16)
    assert any(wc.status is WcStatus.WR_FLUSH_ERR for wc in flushed)
    # A QP in ERROR takes no receive and cannot be re-attached.
    from repro.verbs.errors import QpStateError

    assert qa.state is QpState.ERROR
    with pytest.raises(QpStateError, match="post_recv in state error"):
        qa.post_recv(RecvWR(length=64))
    with pytest.raises(QpStateError, match="cannot attach a QP in ERROR state"):
        qa.attach(qb, f.duplex)


def test_send_cpu_free_data_path():
    """The QP itself charges no CPU (kernel bypass)."""
    f = make_fabric()
    qa, qb = f.qp_pair()
    qb.post_recv(RecvWR(length=1 << 20, wr_id=0))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=1 << 20, wr_id=0))
    f.engine.run()
    assert f.a.cpu.busy_seconds() == 0.0
    assert f.b.cpu.busy_seconds() == 0.0


# -- RDMA READ -------------------------------------------------------------------
def test_read_fetches_remote_payload():
    f = make_fabric()
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr()
    mr.place(buf.addr, "remote-data")
    wr = SendWR(
        opcode=Opcode.RDMA_READ,
        length=4096,
        wr_id=1,
        remote_addr=buf.addr,
        rkey=mr.rkey,
    )
    qa.post_send(wr)
    f.engine.run()
    assert qa.send_cq._reap(16)[0].ok
    assert wr.payload == "remote-data"


def test_read_requires_remote_read_permission():
    # A write-only region NAKs a READ and a read-only one a WRITE, on
    # both engines.
    for use_fluid in (True, False):
        for opcode, write, read in (
            (Opcode.RDMA_READ, True, False), (Opcode.RDMA_WRITE, False, True)
        ):
            f = make_fabric(engine=Engine(use_fluid=use_fluid))
            qa, _ = f.qp_pair()
            _, buf, mr = f.remote_mr(write=write, read=read)
            qa.post_send(
                SendWR(
                    opcode=opcode,
                    length=64,
                    wr_id=1,
                    remote_addr=buf.addr,
                    rkey=mr.rkey,
                )
            )
            f.engine.run()
            status = qa.send_cq._reap(16)[0].status
            assert status is WcStatus.REM_ACCESS_ERR, (use_fluid, opcode)


def test_read_latency_includes_request_round_trip():
    rtt = 10e-3
    f = make_fabric(rtt=rtt)
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr()
    qa.post_send(
        SendWR(
            opcode=Opcode.RDMA_READ,
            length=4096,
            wr_id=1,
            remote_addr=buf.addr,
            rkey=mr.rkey,
        )
    )
    f.engine.run()
    assert qa.send_cq._reap(16)[0].timestamp >= rtt


def test_read_ord_caps_wan_throughput():
    """ORD * block / RTT bounds READ goodput on a long path — the
    documented WAN collapse that motivates the WRITE-based protocol."""
    rtt = 40e-3
    f = make_fabric(gbps=10.0, rtt=rtt)
    qa, _ = f.qp_pair(max_ord=4)
    _, buf, mr = f.remote_mr(size=1 << 21)
    n, block = 32, 1 << 20

    def pump(env):
        for i in range(n):
            while qa.send_room == 0:
                yield env.timeout(1e-5)
            qa.post_send(
                SendWR(
                    opcode=Opcode.RDMA_READ,
                    length=block,
                    wr_id=i,
                    remote_addr=buf.addr,
                    rkey=mr.rkey,
                )
            )
        while qa.send_outstanding:
            yield env.timeout(1e-4)

    f.engine.process(pump(f.engine))
    f.engine.run()
    gbps = n * block * 8 / f.engine.now / 1e9
    ord_bound = 4 * block * 8 / rtt / 1e9  # ≈ 0.84 Gbps
    assert gbps <= ord_bound * 1.1
    assert gbps < 2.0  # far below the 10G line rate


def test_write_beats_read_at_small_blocks_high_depth():
    """Figure 3/4's high-depth ordering: WRITE > READ for small blocks."""

    def run(opcode):
        f = make_fabric(gbps=40.0)
        qa, _ = f.qp_pair()
        _, buf, mr = f.remote_mr(size=1 << 20)
        n, block = 256, 16 * 1024

        def pump(env):
            sent = 0
            while sent < n:
                if qa.send_outstanding < 16:
                    qa.post_send(
                        SendWR(
                            opcode=opcode,
                            length=block,
                            wr_id=sent,
                            remote_addr=buf.addr,
                            rkey=mr.rkey,
                        )
                    )
                    sent += 1
                else:
                    yield env.timeout(1e-6)
            while qa.send_outstanding:
                yield env.timeout(1e-6)

        f.engine.process(pump(f.engine))
        f.engine.run()
        return n * block * 8 / f.engine.now / 1e9

    write_gbps = run(Opcode.RDMA_WRITE)
    read_gbps = run(Opcode.RDMA_READ)
    assert write_gbps > read_gbps * 1.3


# -- what RC guarantees that a datagram service would not --------------------
def test_ud_respects_mtu():
    """RC has no datagram bound: a SEND many times the path MTU lands
    whole (the hardware segments below the simulated granularity)."""
    f = make_fabric()
    qa, qb = f.qp_pair()
    assert qa.path.mtu < 100_000
    qb.post_recv(RecvWR(length=100_000, wr_id=5))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=100_000, wr_id=1, payload="big"))
    f.engine.run()
    rwc = qb.recv_cq._reap(16)[0]
    assert rwc.ok and rwc.byte_len == 100_000 and rwc.payload == "big"


def test_ud_delivery_and_silent_drop():
    """RC never drops a SEND silently: one with no receive posted waits
    in RNR retry, and neither it nor the sender's CQE is lost."""
    f = make_fabric()
    qa, qb = f.qp_pair()
    qb.post_recv(RecvWR(length=9000, wr_id=5))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="d1"))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=2, payload="d2"))
    f.engine.run(until=1e-3)
    assert [wc.payload for wc in qb.recv_cq._reap(16)] == ["d1"]
    assert [wc.wr_id for wc in qa.send_cq._reap(16)] == [1]
    assert qa.rnr_naks.count >= 1
    qb.post_recv(RecvWR(length=9000, wr_id=6))
    f.engine.run()
    assert [wc.payload for wc in qb.recv_cq._reap(16)] == ["d2"]
    assert [wc.wr_id for wc in qa.send_cq._reap(16)] == [2]


def test_ud_rejects_rdma_opcodes():
    f = make_fabric()
    from repro.verbs.errors import QpStateError

    # An RC QP takes no receive opcode on its send queue.
    rc, _ = f.qp_pair()
    with pytest.raises(QpStateError):
        rc.post_send(SendWR(opcode=Opcode.RECV, length=64, wr_id=2))
    assert rc.send_outstanding == 0
    # A WR is checked when it is built.
    with pytest.raises(ValueError, match="length must be non-negative"):
        SendWR(opcode=Opcode.SEND, length=-1)
    with pytest.raises(ValueError, match=f"{Opcode.RDMA_WRITE.value} requires an rkey"):
        SendWR(opcode=Opcode.RDMA_WRITE, length=64)
    with pytest.raises(ValueError, match="length must be non-negative"):
        RecvWR(length=-1)
