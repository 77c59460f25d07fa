"""Figure 10: GridFTP vs RFTP over the ANI WAN (10G RoCE, 49 ms RTT).

Memory-to-memory transfers with 1 and 8 streams.  The WAN is where the
protocol design pays off: RFTP's proactive credits keep a BDP's worth of
RDMA WRITEs in flight and reach ~99 % of the 10G line; GridFTP is at the
mercy of TCP's loss response — badly with one stream, partially healed
by eight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis import Table
from repro.apps.gridftp import run_gridftp
from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.testbeds import ani_wan

__all__ = ["run", "check", "render", "STREAMS"]

STREAMS = (1, 8)
BLOCK_SIZE = 4 << 20
TOTAL_BYTES = 8 << 30
#: 48 blocks of 4 MiB: 201 MB, ≈ 3.3 × the 61 MB BDP.  Measured on
#: ``ani-wan`` (2 048 blocks, seed 0, equal pools): 32 blocks run at
#: 6.94 Gbit/s, 48 at 9.44 and 56 at line rate, a window of 3.2–3.5
#: RTTs of goodput (ROADMAP.md, "The WAN credit loop").
POOL_BLOCKS = 48
#: Seeds averaged for the loss-sensitive GridFTP runs.
SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Point:
    tool: str
    streams: int
    gbps: float
    client_cpu_pct: float
    server_cpu_pct: float
    losses: int = 0


def run() -> List[Point]:
    points: List[Point] = []
    for streams in STREAMS:
        gbps = cpu_c = cpu_s = 0.0
        losses = 0
        for seed in SEEDS:
            g = run_gridftp(
                ani_wan(seed=seed), TOTAL_BYTES, streams=streams, block_size=BLOCK_SIZE
            )
            gbps += g.gbps / len(SEEDS)
            cpu_c += g.client_cpu_pct / len(SEEDS)
            cpu_s += g.server_cpu_pct / len(SEEDS)
            losses += g.losses
        points.append(Point("gridftp", streams, gbps, cpu_c, cpu_s, losses))

        cfg = ProtocolConfig(
            block_size=BLOCK_SIZE,
            num_channels=streams,
            source_blocks=POOL_BLOCKS,
            sink_blocks=POOL_BLOCKS,
        )
        r = run_rftp(ani_wan(), TOTAL_BYTES, cfg)
        points.append(
            Point("rftp", streams, r.gbps, r.client_cpu_pct, r.server_cpu_pct)
        )
    return points


def _sel(points: List[Point], tool: str, streams: int) -> Point:
    return next(p for p in points if p.tool == tool and p.streams == streams)


def check(points: List[Point]) -> None:
    rftp1 = _sel(points, "rftp", 1)
    rftp8 = _sel(points, "rftp", 8)
    grid1 = _sel(points, "gridftp", 1)
    grid8 = _sel(points, "gridftp", 8)
    # RFTP ≈ line rate with one stream already (Figure 10's headline).
    assert rftp1.gbps > 9.0
    assert rftp8.gbps > 9.0
    # GridFTP single stream is well below; parallel streams help but do
    # not close the gap.
    assert grid1.gbps < 8.0
    assert grid8.gbps > grid1.gbps
    assert rftp8.gbps > grid8.gbps
    assert rftp1.gbps > grid1.gbps * 1.2
    # GridFTP saw real loss events.
    assert grid1.losses + grid8.losses > 0
    # RFTP does it with less CPU.
    assert rftp1.client_cpu_pct < grid1.client_cpu_pct
    assert rftp8.client_cpu_pct < grid8.client_cpu_pct


def render(points: List[Point]) -> Table:
    table = Table(
        "Fig. 10 — GridFTP vs RFTP over RoCE WAN (10G, 49 ms)",
        ["tool", "streams", "Gbps", "client cpu%", "server cpu%", "losses"],
    )
    for p in points:
        table.add_row(
            p.tool,
            p.streams,
            f"{p.gbps:.2f}",
            f"{p.client_cpu_pct:.0f}",
            f"{p.server_cpu_pct:.0f}",
            p.losses,
        )
    return table
