"""Figure 11: RFTP memory-to-memory vs memory-to-disk.

Run on the WAN testbed (where the paper's 400 GB RAID file sets lived):
with direct I/O the RAID keeps pace with the 10G stream, so disk and
memory bandwidth match, at slightly higher server CPU.  A POSIX-I/O
variant is included to show what RFTP avoided (and why GridFTP, which
lacked direct I/O, 'is not comparable').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis import Table
from repro.apps.io import DiskSink, NullSink
from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.testbeds import ani_wan

__all__ = ["run", "check", "render"]

TOTAL_BYTES = 4 << 30
BLOCK_SIZE = 4 << 20


@dataclass(frozen=True)
class Point:
    mode: str  # "memory" | "disk-direct" | "disk-posix"
    gbps: float
    client_cpu_pct: float
    server_cpu_pct: float


def _cfg() -> ProtocolConfig:
    return ProtocolConfig(
        block_size=BLOCK_SIZE,
        num_channels=4,
        source_blocks=48,
        sink_blocks=48,
        writer_threads=4,
    )


def run() -> List[Point]:
    points: List[Point] = []
    tb = ani_wan()
    mem = run_rftp(tb, TOTAL_BYTES, _cfg(), sink=NullSink(tb.dst))
    points.append(Point("memory", mem.gbps, mem.client_cpu_pct, mem.server_cpu_pct))

    tb = ani_wan()
    direct = run_rftp(tb, TOTAL_BYTES, _cfg(), sink=DiskSink(tb.dst, direct=True))
    points.append(
        Point("disk-direct", direct.gbps, direct.client_cpu_pct, direct.server_cpu_pct)
    )

    tb = ani_wan()
    posix = run_rftp(tb, TOTAL_BYTES, _cfg(), sink=DiskSink(tb.dst, direct=False))
    points.append(
        Point("disk-posix", posix.gbps, posix.client_cpu_pct, posix.server_cpu_pct)
    )
    return points


def _sel(points: List[Point], mode: str) -> Point:
    return next(p for p in points if p.mode == mode)


def check(points: List[Point]) -> None:
    mem = _sel(points, "memory")
    direct = _sel(points, "disk-direct")
    posix = _sel(points, "disk-posix")
    # Figure 11: same bandwidth between memory and (direct-I/O) disk...
    assert abs(direct.gbps - mem.gbps) / mem.gbps < 0.1
    # ...with slightly higher server CPU for the disk path.
    assert direct.server_cpu_pct >= mem.server_cpu_pct
    # POSIX writes burn clearly more server CPU than direct I/O.
    assert posix.server_cpu_pct > direct.server_cpu_pct * 1.5


def render(points: List[Point]) -> Table:
    table = Table(
        "Fig. 11 — RFTP memory-to-memory vs memory-to-disk (ANI WAN)",
        ["mode", "Gbps", "client cpu%", "server cpu%"],
    )
    for p in points:
        table.add_row(
            p.mode, f"{p.gbps:.2f}", f"{p.client_cpu_pct:.0f}", f"{p.server_cpu_pct:.0f}"
        )
    return table
