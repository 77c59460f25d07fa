"""PCIe bus, NIC engine, and disk array timing models."""

import pytest

from repro.hardware import DiskArray, DiskProfile, PcieBus
from repro.hardware.cpu import CpuScheduler, CpuThread
from tests.conftest import make_host


# -- PCIe -------------------------------------------------------------------
def test_pcie_transfer_time(engine):
    bus = PcieBus(engine, gbps=8.0)  # 1 GB/s

    def proc(env):
        yield from bus.dma(1_000_000_000)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(1.0)
    assert bus.bytes_moved == 1_000_000_000


def test_pcie_fifo_serialisation(engine):
    bus = PcieBus(engine, gbps=8.0)
    finish = []

    def proc(env, tag):
        yield from bus.dma(500_000_000)
        finish.append((env.now, tag))

    engine.process(proc(engine, "a"))
    engine.process(proc(engine, "b"))
    engine.run()
    assert finish == [(pytest.approx(0.5), "a"), (pytest.approx(1.0), "b")]


def test_pcie_zero_dma_free(engine):
    bus = PcieBus(engine, gbps=8.0)

    def proc(env):
        yield from bus.dma(0)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == 0.0


def test_pcie_validation(engine):
    with pytest.raises(ValueError):
        PcieBus(engine, 0)
    bus = PcieBus(engine, 8)
    with pytest.raises(ValueError):
        list(bus.dma(-1))


# -- NIC ----------------------------------------------------------------------
def test_nic_wqe_rate_cap(engine):
    """Per-WQE processing bounds message rate (small-block ceiling)."""
    host = make_host(engine, nic_gbps=40.0)
    nic = host.nic

    def proc(env):
        for _ in range(50):
            yield from nic.process_wqe()

    # Two serial submitters saturate both NIC pipelines.
    engine.process(proc(engine))
    engine.process(proc(engine))
    engine.run()
    expected = 100 * nic.profile.wqe_seconds / nic.profile.engines
    assert engine.now == pytest.approx(expected)
    assert nic.wqes_processed == 100


def test_nic_read_engine_serialises_gap_and_dma(engine):
    host = make_host(engine, nic_gbps=40.0, pcie_gbps=8.0)  # 1 GB/s PCIe
    nic = host.nic

    def proc(env):
        for _ in range(4):
            yield from nic.serve_read(1_000_000)

    engine.process(proc(engine))
    engine.run()
    per_req = nic.profile.read_gap_seconds + 1_000_000 / 1e9
    assert engine.now == pytest.approx(4 * per_req, rel=1e-6)
    assert nic.read_requests_served == 4


# -- Disk ------------------------------------------------------------------------
def _disk_fixture(engine, **profile_kwargs):
    sched = CpuScheduler(engine, cores=4)
    thread = CpuThread(sched, "writer", "app")
    disk = DiskArray(engine, DiskProfile(**profile_kwargs))
    return sched, thread, disk


def test_disk_write_throughput(engine):
    sched, thread, disk = _disk_fixture(
        engine, write_bytes_per_second=1e9, lanes=1
    )

    def proc(env):
        yield from disk.write(thread, 100_000_000, direct=True)

    engine.process(proc(engine))
    engine.run()
    assert engine.now == pytest.approx(0.1, rel=1e-3)
    assert disk.bytes_written == 100_000_000


def test_posix_write_charges_copy_cpu(engine):
    sched, thread, disk = _disk_fixture(engine)

    def proc(env):
        yield from disk.write(thread, 100_000_000, direct=False)

    engine.process(proc(engine))
    engine.run()
    copy_cost = 100_000_000 * disk.profile.posix_copy_ns_per_byte * 1e-9
    assert sched.busy_seconds("app") == pytest.approx(
        copy_cost + disk.profile.syscall_seconds
    )


def test_direct_write_cpu_is_per_op_only(engine):
    sched, thread, disk = _disk_fixture(engine)

    def proc(env):
        yield from disk.write(thread, 100_000_000, direct=True)

    engine.process(proc(engine))
    engine.run()
    assert sched.busy_seconds("app") == pytest.approx(
        disk.profile.direct_setup_seconds + disk.profile.syscall_seconds
    )


def test_raid_lanes_parallelise(engine):
    """With 2 lanes, two concurrent writes share aggregate bandwidth and
    finish together; a single lane would serialise them."""
    sched = CpuScheduler(engine, cores=4)
    disk = DiskArray(
        engine, DiskProfile(write_bytes_per_second=1e9, lanes=2)
    )

    done = []

    def proc(env, tag):
        thread = CpuThread(sched, tag, "app")
        yield from disk.write(thread, 100_000_000, direct=True)
        done.append((env.now, tag))

    engine.process(proc(engine, "a"))
    engine.process(proc(engine, "b"))
    engine.run()
    # Each lane runs at 0.5 GB/s: both finish at ~0.2 s.
    assert done[0][0] == pytest.approx(0.2, rel=1e-2)
    assert done[1][0] == pytest.approx(0.2, rel=1e-2)


def test_disk_profile_validation(engine):
    with pytest.raises(ValueError):
        DiskProfile(write_bytes_per_second=0)
    with pytest.raises(ValueError):
        DiskProfile(lanes=0)
    _, thread, disk = _disk_fixture(engine)
    with pytest.raises(ValueError, match="write size must be non-negative"):
        next(disk.write(thread, -1))
