"""Multi-hop paths and the three testbed topologies from Table I."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Sequence

from repro.network.link import Link
from repro.sim.events import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Path", "DuplexPath", "back_to_back", "lan_switched", "wan_path"]


class Path:
    """An ordered sequence of links from one host's NIC to another's.

    A transfer unit serialises through each link in order (store-and-
    forward at block granularity) and then waits the summed propagation
    delay.  Small control messages use :meth:`deliver_latency` — pure
    latency plus a negligible serialisation on the bottleneck.
    """

    def __init__(self, engine: "Engine", links: Sequence[Link], name: str = "path") -> None:
        if not links:
            raise ValueError("a path needs at least one link")
        self.engine = engine
        self.links: List[Link] = list(links)
        self.name = name
        for link in self.links:
            link._path_uses += 1
        # A link's rate and delay, and a path's link list, are fixed at
        # construction, so the sums below are computed once.
        #: Rate of the slowest link on the path.
        self.bottleneck_gbps = min(link.gbps for link in self.links)
        self.bottleneck_bytes_per_second = self.bottleneck_gbps * 1e9 / 8.0
        #: One-way propagation delay (sum over hops), seconds.
        self.latency = sum(link.delay for link in self.links)
        self.mtu = min(link.mtu for link in self.links)
        #: One-way time of a 64 B control datagram (an ACK, a NAK, a READ
        #: request): :meth:`deliver_latency`'s wait, booked by the QP.
        self.ctrl_wait = self.latency + 64 / self.bottleneck_bytes_per_second
        reg = engine.metrics
        labels = {"path": name, "i": reg.sequence("path")}
        self._m_bytes = reg.counter("path.bytes_total", **labels)
        self._m_ctrl = reg.counter("path.ctrl_datagrams", **labels)

    def chain_ok(self) -> bool:
        """Can a transfer be booked over the whole hop chain right now?

        Only under fluid mode with every link clean (no fault hook armed,
        never flapped) and owned by this path alone; anything else goes
        per hop through ``Link.serialize``.
        """
        if not self.engine.use_fluid:
            return False
        for link in self.links:
            if (
                link.fault_hook is not None
                or link._flap_seen
                or link._path_uses != 1
            ):
                return False
        return True

    def book(self, nbytes: int) -> float:
        """Book ``nbytes`` down a :meth:`chain_ok` path; returns the
        instant it arrives.

        ``start_i = max(end_{i-1}, free_i)`` per hop plus the summed
        propagation: the float expressions hop-by-hop execution evaluates,
        so arrivals are bit-identical.  Back-to-back bookings pipeline:
        the next one starts when the wire frees, not when this one
        arrives.  The caller sleeps until the instant if it is in the
        future, then calls :meth:`arrived`.
        """
        t = self.engine.now
        for link in self.links:
            free = link._fluid_free
            start = t if t > free else free
            t = start + nbytes / link.bytes_per_second
            link._fluid_free = t
        delay = self.latency
        if delay > 0:
            t = t + delay
        return t

    def arrived(self, nbytes: int) -> None:
        """Count ``nbytes`` delivered over a :meth:`book`-ed chain."""
        for link in self.links:
            link.bytes_sent.add(nbytes)
        self._m_bytes.add(nbytes)

    def transmit(self, nbytes: int) -> Generator:
        """Process generator: move ``nbytes`` along the path.

        Completes when the last byte arrives at the far end.  Consecutive
        transfers pipeline across hops because each link is an independent
        FIFO resource.  A :meth:`chain_ok` path books the whole hop chain
        as one timer; any ineligible link drops the transfer to per-hop
        serialisation.
        """
        engine = self.engine
        if nbytes > 0 and self.chain_ok():
            t = self.book(nbytes)
            if t > engine.now:
                yield engine.timeout_at(t)
            self.arrived(nbytes)
            return
        for link in self.links:
            yield from link.serialize(nbytes)
        delay = self.latency
        if delay > 0:
            yield engine.timeout(delay)
        self._m_bytes.add(nbytes)

    def deliver_latency(self, nbytes: int = 64) -> Generator:
        """Process generator: deliver a small control datagram.

        Serialises only on the bottleneck (the rest is negligible at this
        granularity), then propagates.
        """
        wait = self.latency + nbytes / self.bottleneck_bytes_per_second
        if wait > 0:
            yield Timeout(self.engine, wait)
        self._m_ctrl.add()

    def __repr__(self) -> str:  # pragma: no cover
        hops = " -> ".join(link.name for link in self.links)
        return f"<Path {self.name}: {hops}>"


class DuplexPath:
    """A pair of directed paths between two endpoints (full duplex)."""

    def __init__(self, forward: Path, backward: Path) -> None:
        self.forward = forward
        self.backward = backward

    def reversed(self) -> "DuplexPath":
        """The same channel viewed from the other endpoint."""
        return DuplexPath(self.backward, self.forward)


def back_to_back(
    engine: "Engine",
    gbps: float,
    rtt: float,
    mtu: int = 9000,
    name: str = "b2b",
) -> DuplexPath:
    """Two hosts joined by one cable (the RoCE LAN testbed).

    ``rtt`` is the measured round-trip time; each direction gets half.
    """
    half = rtt / 2.0
    fwd = Link(engine, gbps, half, mtu, f"{name}.fwd")
    bwd = Link(engine, gbps, half, mtu, f"{name}.bwd")
    return DuplexPath(
        Path(engine, [fwd], f"{name}.fwd"),
        Path(engine, [bwd], f"{name}.bwd"),
    )


def lan_switched(
    engine: "Engine",
    gbps: float,
    rtt: float,
    mtu: int = 65520,
    name: str = "lan",
) -> DuplexPath:
    """Two hosts through one switch (the InfiniBand QDR LAN testbed)."""
    quarter = rtt / 4.0
    fwd = [
        Link(engine, gbps, quarter, mtu, f"{name}.a-sw"),
        Link(engine, gbps, quarter, mtu, f"{name}.sw-b"),
    ]
    bwd = [
        Link(engine, gbps, quarter, mtu, f"{name}.b-sw"),
        Link(engine, gbps, quarter, mtu, f"{name}.sw-a"),
    ]
    return DuplexPath(
        Path(engine, fwd, f"{name}.fwd"),
        Path(engine, bwd, f"{name}.bwd"),
    )


def wan_path(
    engine: "Engine",
    nic_gbps: float,
    rtt: float,
    backbone_gbps: float = 100.0,
    mtu: int = 9000,
    name: str = "wan",
) -> DuplexPath:
    """A long-haul circuit: 10G host links into a 100G backbone (ANI).

    The backbone carries essentially all the propagation delay; the edge
    links are local.
    """
    half = rtt / 2.0

    def one_way(tag: str) -> Path:
        links = [
            Link(engine, nic_gbps, 1e-6, mtu, f"{name}.{tag}.edge-in"),
            Link(engine, backbone_gbps, max(half - 2e-6, 0.0), mtu, f"{name}.{tag}.core"),
            Link(engine, nic_gbps, 1e-6, mtu, f"{name}.{tag}.edge-out"),
        ]
        return Path(engine, links, f"{name}.{tag}")

    return DuplexPath(one_way("fwd"), one_way("bwd"))
