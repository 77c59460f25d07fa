"""An fio-style RDMA I/O engine (§III-B's measurement tool).

The engine opens one RC QP pair, keeps ``iodepth`` operations in flight,
and measures bandwidth, per-operation latency percentiles, and CPU on
both hosts — for all three semantics the paper compares:

- ``write``: requester RDMA-WRITEs into a remote region (one-sided),
- ``read``: requester RDMA-READs from a remote region (one-sided; feels
  the responder read-engine gap and the ORD outstanding-read limit),
- ``send``: SEND/RECV (two-sided; the responder burns CPU posting
  receives and reaping completions — the high-CPU finding of Figs 3/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.obs.stats import exact_percentile, mean
from repro.testbeds import Testbed
from repro.verbs import (
    AccessFlags,
    CompletionChannel,
    Opcode,
    RecvWR,
    SendWR,
    connect_pair,
)

__all__ = ["FioJob", "FioResult", "run_fio"]

_SEMANTICS = ("write", "read", "send")


@dataclass(frozen=True)
class FioJob:
    """One fio job specification."""

    semantics: str = "write"
    block_size: int = 128 * 1024
    iodepth: int = 16
    total_blocks: int = 4096
    #: Busy-poll the CQ instead of sleeping on the completion channel:
    #: lower completion latency, strictly more CPU (the classic trade-off
    #: behind the paper's interrupt-count observations).
    busy_poll: bool = False

    def __post_init__(self) -> None:
        if self.semantics not in _SEMANTICS:
            raise ValueError(f"semantics must be one of {_SEMANTICS}")
        if self.block_size < 1:
            raise ValueError("block size must be positive")
        if self.iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if self.total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")


@dataclass
class FioResult:
    """Measurements from one fio run."""

    job: FioJob
    elapsed: float
    bytes: int
    gbps: float
    #: Requester-host CPU, percent of one core.
    src_cpu_pct: float
    #: Responder-host CPU (≈0 for one-sided semantics).
    dst_cpu_pct: float
    #: Source + sink CPU combined — the paper's "CPU consumption" axis.
    total_cpu_pct: float
    lat_mean_us: float
    lat_p50_us: float
    lat_p99_us: float
    _latencies: List[float] = field(default_factory=list, repr=False)


def run_fio(testbed: Testbed, job: FioJob) -> FioResult:
    """Execute ``job`` on ``testbed`` and return the measurements."""
    engine = testbed.engine
    pd_src = testbed.src_dev.alloc_pd()
    pd_dst = testbed.dst_dev.alloc_pd()
    send_cq = testbed.src_dev.create_cq(depth=1 << 16)
    recv_cq_src = testbed.src_dev.create_cq(depth=1 << 16)
    send_cq_dst = testbed.dst_dev.create_cq(depth=1 << 16)
    recv_cq_dst = testbed.dst_dev.create_cq(depth=1 << 16)
    depth = max(job.iodepth * 2, 64)
    qp_src = testbed.src_dev.create_qp(
        pd_src, send_cq, recv_cq_src, max_send_wr=depth, max_recv_wr=depth * 2
    )
    qp_dst = testbed.dst_dev.create_qp(
        pd_dst, send_cq_dst, recv_cq_dst, max_send_wr=depth, max_recv_wr=depth * 2
    )
    connect_pair(qp_src, qp_dst, testbed.duplex)

    # One remote region, one slot per in-flight op (regions are reused —
    # registration happens once, as the middleware does).
    remote_buf = testbed.dst.memory.alloc(job.block_size * job.iodepth)
    remote_mr = pd_dst.reg_mr_sync(
        remote_buf, AccessFlags.REMOTE_WRITE | AccessFlags.REMOTE_READ
    )

    src_thread = testbed.src.thread("fio-src", "app")
    src_cq_thread = testbed.src.thread("fio-src-cq", "app")
    dst_thread = testbed.dst.thread("fio-dst", "app")
    profile_src = testbed.src_dev.arch_profile
    profile_dst = testbed.dst_dev.arch_profile

    post_times: Dict[int, float] = {}
    latencies: List[float] = []

    opcode = {
        "write": Opcode.RDMA_WRITE,
        "read": Opcode.RDMA_READ,
        "send": Opcode.SEND,
    }[job.semantics]

    def submitter() -> Generator:
        posted = 0
        while posted < job.total_blocks:
            if qp_src.send_outstanding >= job.iodepth:
                yield qp_src.send_slot_retired()
                continue
            slot = posted % job.iodepth
            yield src_thread.exec(profile_src.post_send_seconds)
            post_times[posted] = engine.now
            qp_src.post_send(
                SendWR(
                    opcode=opcode,
                    length=job.block_size,
                    wr_id=posted,
                    remote_addr=remote_buf.addr + slot * job.block_size,
                    rkey=remote_mr.rkey,
                    payload=("fio", posted),
                )
            )
            posted += 1

    def reaper() -> Generator:
        channel = None if job.busy_poll else CompletionChannel(send_cq)
        done = 0
        while done < job.total_blocks:
            if channel is not None:
                yield channel.wait(src_cq_thread)
            wcs = yield send_cq.poll(src_cq_thread, max_entries=depth)
            if not wcs and channel is None:
                # Busy-poll spin: the polling core burns flat out.  This
                # 1 µs chunk is modelled CPU time (it is what makes
                # busy_poll cost more CPU), not a simulator poll.
                yield src_cq_thread.exec(1e-6)
                continue
            for wc in wcs:
                if not wc.ok:
                    raise RuntimeError(f"fio completion error: {wc.status}")
                latencies.append(engine.now - post_times.pop(wc.wr_id))
                done += 1

    def responder() -> Generator:
        """SEND semantics only: post receives and reap receive CQEs."""
        channel = CompletionChannel(recv_cq_dst)
        for i in range(min(depth * 2, job.total_blocks + job.iodepth)):
            yield dst_thread.exec(profile_dst.post_recv_seconds)
            qp_dst.post_recv(RecvWR(length=job.block_size, wr_id=i))
        reaped = 0
        while reaped < job.total_blocks:
            yield channel.wait(dst_thread)
            wcs = yield recv_cq_dst.poll(dst_thread, max_entries=depth)
            for wc in wcs:
                reaped += 1
                if reaped + job.iodepth <= job.total_blocks + job.iodepth:
                    yield dst_thread.exec(profile_dst.post_recv_seconds)
                    qp_dst.post_recv(RecvWR(length=job.block_size, wr_id=wc.wr_id))

    testbed.src.cpu.reset_accounting()
    testbed.dst.cpu.reset_accounting()
    start = engine.now
    engine.process(submitter())
    reaping = engine.process(reaper())
    if job.semantics == "send":
        engine.process(responder())
    engine.run()
    if not reaping.triggered:
        raise RuntimeError("fio run did not complete")
    elapsed = engine.now - start
    total_bytes = job.total_blocks * job.block_size
    lat_us = [v * 1e6 for v in latencies]
    src_cpu = testbed.src.cpu.utilization_pct()
    dst_cpu = testbed.dst.cpu.utilization_pct()
    return FioResult(
        job=job,
        elapsed=elapsed,
        bytes=total_bytes,
        gbps=total_bytes * 8.0 / elapsed / 1e9,
        src_cpu_pct=src_cpu,
        dst_cpu_pct=dst_cpu,
        total_cpu_pct=src_cpu + dst_cpu,
        lat_mean_us=mean(lat_us),
        lat_p50_us=exact_percentile(lat_us, 50),
        lat_p99_us=exact_percentile(lat_us, 99),
        _latencies=latencies,
    )
