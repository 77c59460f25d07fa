"""The three testbeds of Table I, wired and ready to run.

Each factory returns a fresh :class:`Testbed` — its own engine, two
hosts ("src" and "dst"), RDMA devices, fabric paths, connection manager,
and TCP facilities — parameterised from the paper's Table I row:

=============== ==================== ==================== ========================
                InfiniBand LAN       RoCE LAN             RoCE WAN (ANI)
=============== ==================== ==================== ========================
CPU             Xeon X5550, 8 cores  Xeon X5650, 12 cores ANL Opteron 6140 16c /
                                                          NERSC Xeon E5530 8c
Memory          48 GB                24 GB                64 GB / 24 GB
NIC             40 Gb/s (4X QDR)     40 Gb/s              10 Gb/s
TCP congestion  cubic                bic                  cubic (ANL) / htcp
MTU             65520                9000                 9000
RTT             0.013 ms             0.025 ms             49 ms
=============== ==================== ==================== ========================

The InfiniBand bare-metal ceiling is the 8-lane PCIe 2.0 slot (~25 Gbps,
per the vendor's validation quoted in §V-A1), encoded as ``pcie_gbps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hardware import DiskProfile, Host, HostSpec, NicProfile
from repro.network import DuplexPath, back_to_back, lan_switched, wan_path
from repro.sim import Engine, RandomStreams
from repro.tcp import Bottleneck, TcpConnection, TcpMode
from repro.verbs import ArchProfile, ConnectionManager, Device, RdmaArch, RdmaFabric

__all__ = ["Testbed", "roce_lan", "infiniband_lan", "ani_wan", "iwarp_lan", "TESTBEDS"]


@dataclass
class Testbed:
    """A wired two-host experiment environment."""

    name: str
    engine: Engine
    src: Host
    dst: Host
    src_dev: Device
    dst_dev: Device
    duplex: DuplexPath
    fabric: RdmaFabric
    cm: ConnectionManager
    arch: RdmaArch
    nic_gbps: float
    rtt: float
    mtu: int
    tcp_cc: str
    tcp_mode: TcpMode
    rng: RandomStreams = field(default_factory=lambda: RandomStreams(0))
    _bottleneck: Optional[Bottleneck] = None

    @property
    def bare_metal_gbps(self) -> float:
        """The true ceiling: min of link rate and host PCIe."""
        return min(self.nic_gbps, self.src.spec.pcie_gbps, self.dst.spec.pcie_gbps)

    #: Background loss probability per byte on the path (0 on LANs; the
    #: long-haul circuit sees rare transient loss).
    wan_loss_per_byte: float = 0.0

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the path."""
        return self.nic_gbps * 1e9 / 8.0 * self.rtt

    def tcp_bottleneck(self) -> Bottleneck:
        """The shared WAN bottleneck (created once, shared by all flows)."""
        if self._bottleneck is None:
            # The fluid model draws numpy arrays (``random(n)``,
            # ``permutation(n)``), so numpy stays a TCP-only import.
            import numpy as np

            self._bottleneck = Bottleneck(
                self.engine,
                capacity_bytes_per_second=self.nic_gbps * 1e9 / 8.0,
                rtt=self.rtt,
                rng=np.random.default_rng(self.rng.seed("bottleneck")),
                random_loss_per_byte=self.wan_loss_per_byte,
            )
        return self._bottleneck

    def tcp_connection(
        self,
        cc: Optional[str] = None,
        sndbuf: Optional[float] = None,
        rcvbuf: Optional[float] = None,
    ) -> TcpConnection:
        """A tuned TCP connection src→dst (buffers default to the BDP,
        the paper's 'proven value for optimal network performance')."""
        buf = max(self.bdp_bytes, 4 * 1024 * 1024)
        kwargs = dict(
            cc=cc or self.tcp_cc,
            mss=min(self.mtu, 9000) - 52,
            sndbuf=sndbuf if sndbuf is not None else buf,
            rcvbuf=rcvbuf if rcvbuf is not None else buf,
        )
        if self.tcp_mode is TcpMode.PIPE:
            return TcpConnection(
                self.engine, self.src, self.dst, TcpMode.PIPE,
                path=self.duplex, **kwargs,
            )
        return TcpConnection(
            self.engine, self.src, self.dst, TcpMode.FLUID,
            bottleneck=self.tcp_bottleneck(), **kwargs,
        )


def _build(
    name: str,
    arch: RdmaArch,
    src_spec: HostSpec,
    dst_spec: HostSpec,
    nic: NicProfile,
    duplex_factory,
    rtt: float,
    mtu: int,
    tcp_cc: str,
    tcp_mode: TcpMode,
    seed: int,
    with_disk: bool,
    wan_loss_per_byte: float = 0.0,
) -> Testbed:
    engine = Engine()
    src, dst = Host(engine, src_spec), Host(engine, dst_spec)
    src.add_nic(nic)
    dst.add_nic(nic)
    if with_disk:
        dst.add_disk(DiskProfile())
        src.add_disk(DiskProfile())
    profile = ArchProfile.for_arch(arch)
    src_dev = Device(src.nic, arch, profile)
    dst_dev = Device(dst.nic, arch, profile)
    duplex = duplex_factory(engine)
    fabric = RdmaFabric(engine)
    fabric.wire(src_dev, dst_dev, duplex)
    cm = ConnectionManager(fabric)
    return Testbed(
        name=name,
        engine=engine,
        src=src,
        dst=dst,
        src_dev=src_dev,
        dst_dev=dst_dev,
        duplex=duplex,
        fabric=fabric,
        cm=cm,
        arch=arch,
        nic_gbps=nic.gbps,
        rtt=rtt,
        mtu=mtu,
        tcp_cc=tcp_cc,
        tcp_mode=tcp_mode,
        rng=RandomStreams(seed),
        wan_loss_per_byte=wan_loss_per_byte,
    )


def roce_lan(seed: int = 0, with_disk: bool = False) -> Testbed:
    """Stony Brook back-to-back 40 Gbps RoCE testbed (Table I col. 2)."""
    spec = lambda n: HostSpec(  # noqa: E731 - local factory
        name=n,
        cores=12,
        mem_bytes=24 << 30,
        pcie_gbps=52.0,  # PCIe not binding on this testbed
        cpu_model="Intel Xeon X5650 2.67GHz",
    )
    return _build(
        name="roce-lan",
        arch=RdmaArch.ROCE,
        src_spec=spec("src"),
        dst_spec=spec("dst"),
        nic=NicProfile(gbps=40.0, mtu=9000),
        duplex_factory=lambda eng: back_to_back(eng, 40.0, rtt=0.025e-3, mtu=9000),
        rtt=0.025e-3,
        mtu=9000,
        tcp_cc="bic",
        tcp_mode=TcpMode.PIPE,
        seed=seed,
        with_disk=with_disk,
    )


def infiniband_lan(seed: int = 0, with_disk: bool = False) -> Testbed:
    """NERSC 4X QDR InfiniBand LAN (Table I col. 1).

    The 40 Gbps HCA sits in an 8-lane PCIe 2.0 slot; vendor-validated
    effective bandwidth ≈ 25 Gbps, which ``pcie_gbps`` encodes.
    """
    spec = lambda n: HostSpec(  # noqa: E731 - local factory
        name=n,
        cores=8,
        mem_bytes=48 << 30,
        pcie_gbps=25.6,
        cpu_model="Intel Xeon X5550 2.67GHz",
    )
    return _build(
        name="infiniband-lan",
        arch=RdmaArch.INFINIBAND,
        src_spec=spec("src"),
        dst_spec=spec("dst"),
        nic=NicProfile(gbps=40.0, mtu=65520),
        duplex_factory=lambda eng: lan_switched(eng, 40.0, rtt=0.013e-3, mtu=65520),
        rtt=0.013e-3,
        mtu=65520,
        tcp_cc="cubic",
        tcp_mode=TcpMode.PIPE,
        seed=seed,
        with_disk=with_disk,
    )


def ani_wan(seed: int = 0, with_disk: bool = True) -> Testbed:
    """DOE ANI 100G testbed: ANL → NERSC, 10 Gbps RoCE NICs, 49 ms RTT."""
    src_spec = HostSpec(
        name="anl",
        cores=16,
        mem_bytes=64 << 30,
        pcie_gbps=16.0,
        cpu_model="AMD Opteron 6140 2.6GHz",
    )
    dst_spec = HostSpec(
        name="nersc",
        cores=8,
        mem_bytes=24 << 30,
        pcie_gbps=16.0,
        cpu_model="Intel Xeon E5530 2.40GHz",
    )
    return _build(
        name="ani-wan",
        arch=RdmaArch.ROCE,
        src_spec=src_spec,
        dst_spec=dst_spec,
        nic=NicProfile(gbps=10.0, mtu=9000),
        duplex_factory=lambda eng: wan_path(eng, 10.0, rtt=49e-3, mtu=9000),
        rtt=49e-3,
        mtu=9000,
        tcp_cc="cubic",
        tcp_mode=TcpMode.FLUID,
        seed=seed,
        with_disk=with_disk,
        wan_loss_per_byte=5e-10,
    )


def iwarp_lan(seed: int = 0, with_disk: bool = False) -> Testbed:
    """A 10 Gbps iWARP LAN — an *extension* testbed (not in Table I).

    The paper's middleware claims transparency across all three RDMA
    architectures of its Figure 1; Table I only exercises RoCE and
    InfiniBand.  This testbed lets the same applications run over the
    iWARP cost profile (full TCP offload: heaviest verbs software path)
    on commodity 10G Ethernet.
    """
    spec = lambda n: HostSpec(  # noqa: E731 - local factory
        name=n,
        cores=8,
        mem_bytes=24 << 30,
        pcie_gbps=32.0,
        cpu_model="Intel Xeon E5620 2.40GHz",
    )
    return _build(
        name="iwarp-lan",
        arch=RdmaArch.IWARP,
        src_spec=spec("src"),
        dst_spec=spec("dst"),
        nic=NicProfile(gbps=10.0, mtu=9000),
        duplex_factory=lambda eng: back_to_back(eng, 10.0, rtt=0.040e-3, mtu=9000),
        rtt=0.040e-3,
        mtu=9000,
        tcp_cc="cubic",
        tcp_mode=TcpMode.PIPE,
        seed=seed,
        with_disk=with_disk,
    )


#: Name → factory, for CLI and workload parameterisation.  The first three are
#: the paper's Table I; ``iwarp-lan`` is this reproduction's extension.
TESTBEDS = {
    "roce-lan": roce_lan,
    "infiniband-lan": infiniband_lan,
    "ani-wan": ani_wan,
    "iwarp-lan": iwarp_lan,
}
