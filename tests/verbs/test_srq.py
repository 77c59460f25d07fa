"""Shared receive queues: WQE accounting, RNR semantics, error isolation."""

import pytest

from repro.verbs import Opcode, RecvWR, SendWR
from repro.verbs.errors import QpStateError, QueueFullError
from tests.conftest import make_fabric


def _srq_fabric(depth=8, n_pairs=2, **qp_kwargs):
    """``n_pairs`` connected QP pairs whose b-side QPs share one SRQ."""
    f = make_fabric()
    f.pd_a = f.dev_a.alloc_pd()
    f.pd_b = f.dev_b.alloc_pd()
    srq = f.pd_b.create_srq(depth=depth)
    pairs = []
    from repro.verbs import connect_pair

    for _ in range(n_pairs):
        qa = f.dev_a.create_qp(
            f.pd_a, f.dev_a.create_cq(), f.dev_a.create_cq(), **qp_kwargs
        )
        qb = f.dev_b.create_qp(
            f.pd_b, f.dev_b.create_cq(), f.dev_b.create_cq(),
            srq=srq, **qp_kwargs
        )
        connect_pair(qa, qb, f.duplex)
        pairs.append((qa, qb))
    return f, srq, pairs


def test_sends_on_many_qps_draw_from_one_srq():
    f, srq, pairs = _srq_fabric()
    for i in range(4):
        srq.post_recv(RecvWR(length=8192, wr_id=100 + i))
    (qa0, qb0), (qa1, qb1) = pairs
    qa0.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="p0"))
    qa1.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=2, payload="p1"))
    f.engine.run()
    # Each completion lands on the consuming QP's own recv CQ.
    wc0 = qb0.recv_cq._reap(16)[0]
    wc1 = qb1.recv_cq._reap(16)[0]
    assert wc0.ok and wc0.payload == "p0" and wc0.qp_num == qb0.qp_num
    assert wc1.ok and wc1.payload == "p1" and wc1.qp_num == qb1.qp_num
    assert srq._m_posted.count == 4
    assert srq._m_consumed.count == 2
    assert srq.recv_posted == 2


def test_empty_srq_rnr_retries_until_posted():
    f, srq, pairs = _srq_fabric()
    qa, qb = pairs[0]
    qa.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=1, payload="late"))

    def poster(env):
        yield env.timeout(1e-3)
        srq.post_recv(RecvWR(length=8192, wr_id=9))

    f.engine.process(poster(f.engine))
    f.engine.run()
    assert qa.rnr_naks.count >= 1
    assert srq._m_empty.count >= 1
    assert qb.recv_cq._reap(16)[0].payload == "late"


def test_post_recv_on_srq_qp_is_rejected():
    _, _, pairs = _srq_fabric()
    _, qb = pairs[0]
    with pytest.raises(QpStateError):
        qb.post_recv(RecvWR(length=64, wr_id=1))


def test_srq_depth_bounds_posted_wqes():
    _, srq, _ = _srq_fabric(depth=2)
    srq.post_recv(RecvWR(length=64, wr_id=0))
    srq.post_recv(RecvWR(length=64, wr_id=1))
    with pytest.raises(QueueFullError):
        srq.post_recv(RecvWR(length=64, wr_id=2))
    assert srq.recv_posted == 2


def test_qp_error_does_not_flush_shared_wqes():
    f, srq, pairs = _srq_fabric()
    for i in range(2):
        srq.post_recv(RecvWR(length=8192, wr_id=i))
    (qa0, qb0), (qa1, qb1) = pairs
    qb0.kill()
    qa1.post_send(SendWR(opcode=Opcode.SEND, length=4096, wr_id=7, payload="ok"))
    f.engine.run()
    # The dead QP flushed nothing from the shared queue; the survivor
    # consumed exactly one WQE.
    assert qb0.recv_cq._reap(16) == []
    assert qb1.recv_cq._reap(16)[0].payload == "ok"
    assert srq.recv_posted == 1


def test_srq_requires_matching_pd():
    f = make_fabric()
    pd_a = f.dev_b.alloc_pd()
    pd_other = f.dev_b.alloc_pd()
    srq = pd_other.create_srq()
    with pytest.raises(QpStateError):
        f.dev_b.create_qp(
            pd_a, f.dev_b.create_cq(), f.dev_b.create_cq(), srq=srq
        )


def test_srq_metrics_absent_without_srq():
    f = make_fabric()
    f.qp_pair()
    assert f.engine.metrics.family("srq.posted") == []


def test_srq_close_drains():
    f, srq, pairs = _srq_fabric()
    srq.post_recv(RecvWR(length=64, wr_id=0))
    drained = srq.close()
    assert [wr.wr_id for wr in drained] == [0]
    assert srq.recv_posted == 0
    with pytest.raises(QpStateError):
        srq.post_recv(RecvWR(length=64, wr_id=1))
