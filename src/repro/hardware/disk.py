"""Storage model: a RAID array with POSIX vs direct I/O cost structure.

The paper's memory-to-disk experiments (Figure 11) hinge on two storage
facts: (1) a striped RAID of fast disks can absorb a 10 Gbps WAN stream,
and (2) *how* you write matters — standard POSIX buffered writes burn a
per-byte page-cache copy on the writing thread, while direct I/O costs
almost nothing per byte.  RFTP uses direct I/O; GridFTP (at the time) did
not.  Both facts are parameters here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.hardware.cpu import CpuThread

__all__ = ["DiskArray", "DiskProfile"]


@dataclass(frozen=True)
class DiskProfile:
    """Static parameters of a disk array."""

    #: Aggregate streaming write bandwidth, bytes/second.
    write_bytes_per_second: float = 2.0e9
    #: Number of stripes that can be written concurrently (RAID lanes).
    lanes: int = 4
    #: Page-cache copy cost for POSIX buffered I/O, ns per byte (on the
    #: calling thread).
    posix_copy_ns_per_byte: float = 0.25
    #: Per-call syscall cost, seconds.
    syscall_seconds: float = 2.0e-6
    #: Per-call setup for direct I/O (alignment checks, DMA mapping), seconds.
    direct_setup_seconds: float = 4.0e-6

    def __post_init__(self) -> None:
        if self.write_bytes_per_second <= 0:
            raise ValueError("disk bandwidth must be positive")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")


class DiskArray:
    """A striped disk array attached to a host."""

    def __init__(self, engine: "Engine", profile: DiskProfile, name: str = "raid") -> None:
        self.engine = engine
        self.profile = profile
        self.name = name
        self._lanes = Resource(engine, capacity=profile.lanes)
        self.bytes_written = 0

    def _lane_time(self, nbytes: int, rate: float) -> float:
        # Each lane delivers its share of the aggregate bandwidth.
        return nbytes / (rate / self.profile.lanes)

    def write(self, thread: "CpuThread", nbytes: int, direct: bool = False) -> Generator:
        """Process generator: synchronously write ``nbytes``.

        CPU cost lands on ``thread`` (copy for POSIX, setup only for
        direct I/O); the device transfer itself occupies a RAID lane but
        not the CPU.
        """
        if nbytes < 0:
            raise ValueError("write size must be non-negative")
        prof = self.profile
        if direct:
            cpu = prof.direct_setup_seconds + prof.syscall_seconds
        else:
            cpu = prof.syscall_seconds + nbytes * prof.posix_copy_ns_per_byte * 1e-9
        yield thread.exec(cpu)
        yield self._lanes.request()
        try:
            yield self.engine.timeout(self._lane_time(nbytes, prof.write_bytes_per_second))
        finally:
            self._lanes.release()
        self.bytes_written += nbytes
