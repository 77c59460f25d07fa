"""The fio-style RDMA I/O engine: the §III-B findings as assertions."""

import pytest

from repro.apps.fio import FioJob, FioResult, run_fio
from repro.testbeds import infiniband_lan, roce_lan


def job(**kw):
    base = dict(block_size=128 * 1024, iodepth=16, total_blocks=400)
    base.update(kw)
    return FioJob(**base)


def test_job_validation():
    with pytest.raises(ValueError):
        FioJob(semantics="atomic")
    with pytest.raises(ValueError):
        FioJob(iodepth=0)
    with pytest.raises(ValueError):
        FioJob(block_size=0)
    with pytest.raises(ValueError):
        FioJob(total_blocks=0)


def test_write_saturates_at_high_depth():
    r = run_fio(roce_lan(), job(semantics="write"))
    assert r.gbps > 0.9 * 40.0
    assert r.dst_cpu_pct == pytest.approx(0.0)  # one-sided


def test_low_iodepth_underutilises():
    """§III-B: 'I/O depth should be set to a relatively large number'."""
    deep = run_fio(roce_lan(), job(semantics="write", iodepth=16))
    shallow = run_fio(roce_lan(), job(semantics="write", iodepth=1, total_blocks=100))
    assert shallow.gbps < 0.5 * deep.gbps


def test_send_recv_costs_both_ends():
    """Figs 3/4: SEND/RECV CPU ≫ WRITE CPU; bandwidth comparable."""
    wr = run_fio(roce_lan(), job(semantics="write"))
    sr = run_fio(roce_lan(), job(semantics="send"))
    assert sr.gbps == pytest.approx(wr.gbps, rel=0.05)
    assert sr.dst_cpu_pct > 5 * max(wr.dst_cpu_pct, 0.1)
    assert sr.total_cpu_pct > 1.5 * wr.total_cpu_pct


def test_read_trails_write_at_small_blocks():
    wr = run_fio(roce_lan(), job(semantics="write", block_size=16 * 1024))
    rd = run_fio(roce_lan(), job(semantics="read", block_size=16 * 1024))
    assert wr.gbps > 1.5 * rd.gbps


def test_read_catches_up_at_large_blocks():
    wr = run_fio(roce_lan(), job(semantics="write", block_size=4 << 20, total_blocks=120))
    rd = run_fio(roce_lan(), job(semantics="read", block_size=4 << 20, total_blocks=120))
    assert rd.gbps > 0.9 * wr.gbps


def test_cpu_falls_as_block_size_rises():
    small = run_fio(roce_lan(), job(semantics="write", block_size=16 * 1024))
    large = run_fio(roce_lan(), job(semantics="write", block_size=1 << 20, total_blocks=150))
    assert large.src_cpu_pct < small.src_cpu_pct


def test_ib_cheaper_cpu_than_roce():
    """§V-C2: libibverbs overhead is lower on InfiniBand."""
    roce = run_fio(roce_lan(), job(semantics="write"))
    ib = run_fio(infiniband_lan(), job(semantics="write"))
    assert ib.src_cpu_pct < roce.src_cpu_pct


def test_ib_bandwidth_pcie_capped():
    r = run_fio(infiniband_lan(), job(semantics="write", block_size=1 << 20, total_blocks=200))
    assert 0.85 * 25.6 < r.gbps <= 25.6


def test_latency_percentiles_ordered():
    r = run_fio(roce_lan(), job(semantics="write"))
    assert r.lat_p50_us <= r.lat_p99_us
    assert r.lat_mean_us > 0
    assert isinstance(r, FioResult)
    assert r.bytes == r.job.total_blocks * r.job.block_size


def test_busy_poll_burns_cpu_for_latency():
    """Busy polling trades CPU for completion latency (§III-B trade-off)."""
    event_mode = run_fio(roce_lan(), job(semantics="write", iodepth=4, total_blocks=300))
    poll_mode = run_fio(
        roce_lan(),
        job(semantics="write", iodepth=4, total_blocks=300, busy_poll=True),
    )
    assert poll_mode.gbps == pytest.approx(event_mode.gbps, rel=0.1)
    assert poll_mode.src_cpu_pct > 2 * event_mode.src_cpu_pct
    assert poll_mode.lat_mean_us <= event_mode.lat_mean_us * 1.1


# -- the event-driven submitter ------------------------------------------------
#: Per WRITE: the post's CPU chunk, NIC WQE, DMA fetch, wire, DMA place,
#: hardware ACK, the reaper's wake chunk (the reaper resumes in its
#: dispatch), the poll chunk and the submitter's slot-retired event — 9,
#: less the wakes that reap two completions at once, plus the three
#: process starts.
EVENTS_PER_256_WRITES = 2290


@pytest.mark.parametrize("iodepth", [1, 16, 64])
@pytest.mark.parametrize("semantics", ["write", "read", "send"])
def test_submitter_keeps_exactly_iodepth_in_flight(semantics, iodepth, monkeypatch):
    from repro.verbs import QueuePair

    depth_at_post = []
    post_send = QueuePair.post_send

    def recording(qp, wr):
        post_send(qp, wr)
        depth_at_post.append(qp.send_outstanding)

    monkeypatch.setattr(QueuePair, "post_send", recording)
    total = 4 * iodepth + 3
    r = run_fio(roce_lan(), job(semantics=semantics, iodepth=iodepth,
                                total_blocks=total))
    assert len(r._latencies) == len(depth_at_post) == total
    assert max(depth_at_post) == iodepth
    # Closed loop: once the window is full every post refills one slot.
    assert all(d == iodepth for d in depth_at_post[iodepth - 1:])


def test_iodepth_one_write_latency_is_the_stage_sum():
    """Nothing queues at iodepth 1, so post→reap is the sum of the
    stages a WRITE crosses — no submitter poll interval hides in it."""
    tb = roce_lan()
    size = 128 * 1024
    r = run_fio(tb, job(semantics="write", iodepth=1, total_blocks=20))
    fwd, back = tb.duplex.forward, tb.duplex.backward
    profile = tb.src_dev.arch_profile
    expected = (
        tb.src.nic.profile.wqe_seconds
        + size / tb.src.pcie.bytes_per_second            # DMA fetch
        + sum(size / link.bytes_per_second for link in fwd.links)
        + fwd.latency
        + size / tb.dst.pcie.bytes_per_second            # DMA place
        + back.latency + 64 / back.bottleneck_bytes_per_second  # hardware ACK
        + tb.src.spec.interrupt_seconds + profile.cq_event_seconds
        + profile.poll_cqe_seconds
    )
    assert r._latencies == pytest.approx([expected] * 20, rel=1e-9)


def test_write_run_spends_no_event_on_bookkeeping(monkeypatch):
    """The hop budget as a structural ratchet: every popped event either
    advances time or wakes a party, none is the old 1 µs submitter poll,
    and the per-I/O event count is pinned — a reintroduced hop fails
    here, not in a benchmark.  A posted WR is a record that re-queues
    itself stage by stage, so the fluid engine starts no ``Process`` per
    WR."""
    from repro.sim import Engine, Event, Process, Timeout
    from tests.oracles import step

    popped = []
    started = []
    start_process = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        start_process(self, *args, **kwargs)

    def stepping_run(engine, until=None):
        while engine._heap:
            event = engine._heap[0][2]
            waiters = [getattr(getattr(cb, "__self__", None), "name", None)
                       for cb in event.callbacks]
            popped.append((type(event), getattr(event, "delay", None),
                           len(event.callbacks), waiters))
            step(engine)

    monkeypatch.setattr(Engine, "run", stepping_run)
    monkeypatch.setattr(Process, "__init__", counting_init)
    ios = 256
    r = run_fio(roce_lan(), job(semantics="write", iodepth=16, total_blocks=ios))
    assert len(r._latencies) == ios
    assert len(started) < 8  # the job's own processes, none per WR
    assert not [p for p in popped if p[2] == 0]
    assert not [p for p in popped if issubclass(p[0], Timeout) and p[1] == 1e-6]
    # A CQ wake resumes the reaper from its chunk, with no relay event.
    assert not [p for p in popped if p[0] is Event and "reaper" in p[3]]
    assert len(popped) == EVENTS_PER_256_WRITES

