"""SEND/RECV with RNR, RDMA READ with ORD, and UD datagrams."""

import pytest

from repro.verbs import Opcode, QpState, QpType, RecvWR, SendWR, WcStatus
from repro.verbs.errors import MtuExceededError
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
    f = make_fabric()
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr(read=False)
    qa.post_send(
        SendWR(
            opcode=Opcode.RDMA_READ,
            length=64,
            wr_id=1,
            remote_addr=buf.addr,
            rkey=mr.rkey,
        )
    )
    f.engine.run()
    assert qa.send_cq._reap(16)[0].status is WcStatus.REM_ACCESS_ERR


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


# -- UD ------------------------------------------------------------------------
def _ud_pair(f):
    return f.qp_pair(qp_type=QpType.UD)


def test_ud_respects_mtu():
    f = make_fabric()
    qa, qb = _ud_pair(f)
    with pytest.raises(MtuExceededError):
        qa.post_send(SendWR(opcode=Opcode.SEND, length=100_000, wr_id=1))


def test_ud_delivery_and_silent_drop():
    f = make_fabric()
    qa, qb = _ud_pair(f)
    qb.post_recv(RecvWR(length=9000, wr_id=5))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="d1"))
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=2, payload="d2"))
    f.engine.run()
    delivered = qb.recv_cq._reap(16)
    assert len(delivered) == 1 and delivered[0].payload == "d1"
    assert qb.ud_drops.count == 1
    # Sender still gets local completions for both (unreliable service).
    assert len(qa.send_cq._reap(16)) == 2


def test_ud_rejects_rdma_opcodes():
    f = make_fabric()
    qa, _ = _ud_pair(f)
    from repro.verbs.errors import QpStateError

    with pytest.raises((QpStateError, ValueError)):
        qa.post_send(
            SendWR(opcode=Opcode.RDMA_WRITE, length=64, wr_id=1, rkey=1)
        )
    # Nor does an RC QP take a receive opcode on its send queue.
    rc, _ = f.qp_pair()
    with pytest.raises(QpStateError):
        rc.post_send(SendWR(opcode=Opcode.RECV, length=64, wr_id=2))
    assert rc.send_outstanding == 0
